"""Benchmark-owned click-log generator with planted quality and herd bursts.

The program under test never sees this module: it receives only the TSV this
writes. It does not use ``tide.synthgen``, so a change to the program's own
generator cannot change the inputs of any other workload.

What is planted, per item:

* quality ``q_i ~ U(0, 1)``. It sets the item's organic click rate
  (``exp(QUALITY_GAIN * q_i)``) and every rating the item receives;
* a herd strength and a few burst times. Herd clicks land shortly after one
  of the item's bursts and do not depend on quality, so they shape timing and
  popularity but never ratings.

Users belong to one of ``N_GROUPS`` taste groups and prefer their group's
items for organic clicks, so the matching backbone has something to learn.

Every user and every item gets at least ``MIN_CLICKS`` clicks, so ``tide
prepare --core-n 5`` keeps every id and planted ids map 1:1 onto the split's
dense ids. The horizon is fixed at 200 days: with the benchmark's tau of
3e4 s that is a span/tau of 576, below the 700 at which the program's
conformity index refuses a log. A longer-horizon workload waits for the
exponent-free index.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DAY = 86_400
HORIZON = 200 * DAY
T0 = 1_600_000_000  # epoch offset, so timestamps look like real ones
MIN_CLICKS = 5
N_GROUPS = 16
IN_GROUP = 0.7  # share of organic clicks that stay in the user's taste group
HERD_SHARE = 0.35  # share of free clicks that follow a burst
QUALITY_GAIN = 2.0
BURSTS_PER_ITEM = 2
BURST_WIDTH = 3 * DAY  # mean delay of a herd click after its burst
RATING_NOISE = 0.7


@dataclass(frozen=True)
class Inputs:
    users: np.ndarray
    items: np.ndarray
    times: np.ndarray
    ratings: np.ndarray
    quality: np.ndarray
    n_users: int
    n_items: int

    def __len__(self) -> int:
        return int(self.users.size)


def _ratings(quality: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    raw = 1.0 + 4.0 * quality + rng.normal(0.0, RATING_NOISE, quality.size)
    return np.clip(np.round(raw), 1.0, 5.0)


def _organic_items(users, user_group, item_group, base, rng) -> np.ndarray:
    """Quality-weighted item per click; in-group with probability IN_GROUP."""
    n_items = base.size
    out = np.empty(users.size, dtype=np.int64)
    in_group = rng.random(users.size) < IN_GROUP
    draws = rng.random(users.size)
    everyone = ~in_group
    cdf = np.cumsum(base)
    out[everyone] = np.searchsorted(cdf, draws[everyone] * cdf[-1], side="right")
    for g in range(N_GROUPS):
        members = np.flatnonzero(item_group == g)
        sel = in_group & (user_group[users] == g)
        gcdf = np.cumsum(base[members])
        out[sel] = members[np.searchsorted(gcdf, draws[sel] * gcdf[-1], side="right")]
    return np.minimum(out, n_items - 1)


def generate(seed: int, n_users: int, n_items: int, n_clicks: int) -> Inputs:
    """Same arguments, same log. Raises if the sizes cannot meet the guarantees."""
    if n_clicks < MIN_CLICKS * (n_users + n_items):
        raise ValueError("too few clicks to give every user and item MIN_CLICKS")
    if n_items < N_GROUPS:
        raise ValueError(f"need at least {N_GROUPS} items")
    rng = np.random.default_rng(seed)
    quality = rng.uniform(0.0, 1.0, n_items)
    herd = rng.lognormal(0.0, 1.0, n_items)
    bursts = rng.integers(0, HORIZON, (n_items, BURSTS_PER_ITEM))
    base = np.exp(QUALITY_GAIN * quality)
    user_group = rng.integers(0, N_GROUPS, n_users)
    item_group = rng.permutation(np.arange(n_items) % N_GROUPS)

    # coverage: MIN_CLICKS organic clicks per user, MIN_CLICKS per item
    cov_users = np.repeat(np.arange(n_users), MIN_CLICKS)
    cov_user_items = _organic_items(cov_users, user_group, item_group, base, rng)
    cov_items = np.repeat(np.arange(n_items), MIN_CLICKS)
    cov_item_users = rng.integers(0, n_users, cov_items.size)

    n_free = n_clicks - cov_users.size - cov_items.size
    free_users = rng.integers(0, n_users, n_free)
    is_herd = rng.random(n_free) < HERD_SHARE
    free_items = _organic_items(free_users, user_group, item_group, base, rng)
    hcdf = np.cumsum(herd)
    n_herd = int(is_herd.sum())
    herd_items = np.minimum(
        np.searchsorted(hcdf, rng.random(n_herd) * hcdf[-1], side="right"), n_items - 1
    )
    free_items[is_herd] = herd_items

    users = np.concatenate([cov_users, cov_item_users, free_users])
    items = np.concatenate([cov_user_items, cov_items, free_items])
    times = rng.integers(0, HORIZON, users.size)
    herd_rows = cov_users.size + cov_items.size + np.flatnonzero(is_herd)
    which = rng.integers(0, BURSTS_PER_ITEM, n_herd)
    delay = rng.exponential(BURST_WIDTH, n_herd).astype(np.int64)
    times[herd_rows] = np.minimum(bursts[herd_items, which] + delay, HORIZON - 1)
    ratings = _ratings(quality[items], rng)

    distinct = np.bincount(np.unique(users * n_items + items) // n_items, minlength=n_users)
    if distinct.max() >= n_items:
        raise ValueError("a user covers the whole catalog; the trainer would refuse the log")
    order = rng.permutation(users.size)  # file order must not give away the time order
    return Inputs(
        users=users[order], items=items[order], times=times[order] + T0,
        ratings=ratings[order], quality=quality, n_users=n_users, n_items=n_items,
    )


def write_tsv(inputs: Inputs, path: Path) -> None:
    """user<TAB>item<TAB>rating<TAB>time, the layout ``tide prepare`` reads."""
    rows = zip(inputs.users.tolist(), inputs.items.tolist(),
               inputs.ratings.astype(np.int64).tolist(), inputs.times.tolist())
    path.write_text("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in rows))
