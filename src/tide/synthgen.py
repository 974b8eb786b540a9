"""Synthetic click logs with planted quality and conformity parameters.

Each event picks a random user who clicks one item with probability
proportional to tanh(q*_i + beta*_i * S_i(t)) * softplus(e_u . e_i), where
S_i(t) is the exponentially decayed count of the item's strictly earlier
clicks: events that share a timestamp never see each other's clicks. Ratings
depend on planted quality plus noise only, never on the conformity state, so
the log carries a ground-truth separation that real datasets lack: popularity
mixes both causes, ratings reflect quality alone.

Items are drawn by thinning, exactly: propose an item from the user's
matching term alone and keep it with probability tanh(q*_i + beta*_i * S_i(t)),
which lies in [0, 1). An event costs O(1) expected work instead of a pass over
the catalog. An event whose first ``MAX_REJECTIONS`` proposals are all
rejected is drawn from its full weight vector instead, which is also where a
config whose weights are all zero fails.

Event times are uniform over the horizon; any burstiness in the output is
produced by the conformity feedback itself, not by the arrival process.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import InteractionLog, save_interactions, write_json
from .numerics import TANH_HI, bounded_tanh, softplus

# Events whose proposals are drawn in one vectorized round, and the proposals
# one event may have rejected before it is drawn from its full weight vector.
CHUNK = 4096
MAX_REJECTIONS = 32
# matching scores computed per block while the proposal CDFs are built
_BLOCK_SCORES = 1 << 17


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 1000
    n_items: int = 300
    embed_dim: int = 16
    quality_scale: float = 2.0
    beta_scale: float = 0.1
    tau: float = 5e5
    horizon: int = 20_000_000
    n_events: int = 100_000
    rating_noise: float = 0.8
    emb_std: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        for key in ("tau", "horizon", "quality_scale", "beta_scale", "rating_noise", "emb_std"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if min(self.n_users, self.n_items, self.embed_dim, self.n_events) < 1:
            raise ValueError("counts must be >= 1")
        if self.tau <= 0 or self.horizon <= 0:
            raise ValueError("tau and horizon must be positive")
        if min(self.quality_scale, self.beta_scale, self.rating_noise, self.emb_std) < 0:
            raise ValueError("scales must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SynthTruth:
    """Planted per-item quality/conformity and the planted embeddings."""

    true_quality: np.ndarray
    true_beta: np.ndarray
    true_user_emb: np.ndarray
    true_item_emb: np.ndarray

    def validate(self, config: SynthConfig) -> None:
        if self.true_quality.shape != (config.n_items,) or self.true_beta.shape != (config.n_items,):
            raise ValueError("per-item truth length mismatch")
        if self.true_user_emb.shape != (config.n_users, config.embed_dim):
            raise ValueError("user embedding shape mismatch")
        if self.true_item_emb.shape != (config.n_items, config.embed_dim):
            raise ValueError("item embedding shape mismatch")
        planted = (self.true_quality, self.true_beta, self.true_user_emb, self.true_item_emb)
        if not all(np.isfinite(a).all() for a in planted):
            raise ValueError("planted truth must be finite")
        if (self.true_quality < 0).any() or (self.true_beta < 0).any():
            raise ValueError("planted quality and beta must be nonnegative")


def sample_truth(config: SynthConfig, rng: np.random.Generator) -> SynthTruth:
    """q* ~ U(0, quality_scale), beta* ~ U(0, beta_scale), embeddings gaussian."""
    return SynthTruth(
        true_quality=rng.uniform(0.0, config.quality_scale, config.n_items),
        true_beta=rng.uniform(0.0, config.beta_scale, config.n_items),
        true_user_emb=rng.normal(0.0, config.emb_std, (config.n_users, config.embed_dim)),
        true_item_emb=rng.normal(0.0, config.emb_std, (config.n_items, config.embed_dim)),
    )


def generate(config: SynthConfig, truth: SynthTruth | None = None) -> tuple[InteractionLog, SynthTruth]:
    """Simulate the log sequentially; pass ``truth`` to plant exact parameters.

    Times, users, each event's first proposal uniform and the rating noise
    are drawn up front, in that order; a ``ThinningSampler`` then picks each
    event's item in time order, so every click raises its item's conformity
    for all later events (and for none at the same time). Ratings follow from
    the items in one vectorized step. The history is self-referential, so
    generation is inherently single-threaded. Same config and seed always
    produce the identical log.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    if truth is None:
        truth = sample_truth(config, rng)
    truth.validate(config)

    times = np.sort(rng.integers(0, config.horizon, config.n_events))
    users = rng.integers(0, config.n_users, config.n_events)
    first = rng.random(config.n_events)
    eps = rng.normal(0.0, 1.0, config.n_events)
    items = ThinningSampler(truth, config.tau, rng).draw(users, times, first)

    q = truth.true_quality
    raw = 3.0 + config.quality_scale * (q[items] - q.mean()) + config.rating_noise * eps
    ratings = np.clip(np.round(raw), 1.0, 5.0)
    log = InteractionLog.build(users, items, times, ratings, config.n_users, config.n_items)
    return log, truth


class ThinningSampler:
    """Exact draws from p(j | u, t) proportional to tanh(q_j + beta_j * S_j(t)) * m_uj.

    m_uj = softplus(e_u . e_j) is the matching term and S_j(t) the decayed
    count of item j's clicks strictly before t. Because the coefficient lies
    in [0, 1), thinning draws p exactly (Lewis and Shedler, 1979; Ogata,
    1981): propose j from user u's matching row, keep it with probability
    ``acceptance(j, t)``, otherwise propose again. Proposals are drawn
    ``CHUNK`` events at a time, one round per attempt: an event rejected r
    times takes its next proposal from round r + 1, drawn for the whole chunk
    when first needed. After ``MAX_REJECTIONS`` rejections an event is drawn
    from its full weight vector instead; a mixture of exact draws is exact,
    and this is where an all-zero weight vector raises.

    S_j is kept lazily per item: the time of its latest click, the decayed
    sum of its clicks strictly before that time, and the number of clicks at
    exactly that time. Events that share a timestamp therefore never see
    each other's clicks. Clicks must arrive in nondecreasing time.
    """

    def __init__(self, truth: SynthTruth, tau: float, rng: np.random.Generator):
        self.truth = truth
        self.tau = float(tau)
        self.rng = rng
        self.n_items = n_items = truth.true_quality.size
        self.q, self.beta = truth.true_quality.tolist(), truth.true_beta.tolist()
        self.last = [0] * n_items     # time of the item's latest click
        self.before = [0.0] * n_items  # clicks strictly before it, decayed to it
        self.at = [0] * n_items       # clicks at exactly that time
        self.fallbacks = 0
        # each user's matching row, as its cumulative sum; a block of rows at
        # a time, so no second n_users x n_items array is ever allocated
        self.cdf = np.empty((truth.true_user_emb.shape[0], n_items))
        block = max(1, _BLOCK_SCORES // n_items)
        for lo in range(0, self.cdf.shape[0], block):
            match = softplus(truth.true_user_emb[lo:lo + block] @ truth.true_item_emb.T)
            np.cumsum(match, axis=1, out=self.cdf[lo:lo + block])

    def level(self, j: int, t: int) -> float:
        """S_j(t): item j's clicks strictly before t, decayed to t."""
        last = self.last[j]
        if t == last:
            return self.before[j]
        return (self.before[j] + self.at[j]) * math.exp((last - t) / self.tau)

    def levels(self, t: int) -> np.ndarray:
        """S(t) for every item at once."""
        last = np.asarray(self.last)
        decayed = (np.asarray(self.before) + np.asarray(self.at)) * np.exp((last - t) / self.tau)
        return np.where(last == t, self.before, decayed)

    def acceptance(self, j: int, t: int) -> float:
        """The probability that a proposal of item j at time t is kept."""
        return min(math.tanh(self.q[j] + self.beta[j] * self.level(j, t)), TANH_HI)

    def click(self, j: int, t: int) -> None:
        """Record a click on item j at time t, no earlier than its last one."""
        if t != self.last[j]:
            self.before[j] = self.level(j, t)
            self.at[j] = 0
            self.last[j] = t
        self.at[j] += 1

    def draw(self, users: np.ndarray, times: np.ndarray, first: np.ndarray) -> np.ndarray:
        """One item per event, in order; each event's click enters the state.

        ``first`` holds each event's uniform in [0, 1) for its first proposal.
        """
        if np.any(np.diff(times) < 0):
            raise ValueError("event times must be nondecreasing")
        items = np.empty(len(users), dtype=np.int64)
        acceptance, click = self.acceptance, self.click
        for start in range(0, len(users), CHUNK):
            chunk_users = users[start:start + CHUNK]
            chunk_items = []
            rounds = []  # rounds[r]: every event's (r + 1)-th proposal and accept draw
            for k, t in enumerate(times[start:start + CHUNK].tolist()):
                for r in range(MAX_REJECTIONS):
                    if r == len(rounds):
                        uniforms = first[start:start + CHUNK] if r == 0 else self.rng.random(chunk_users.size)
                        rounds.append(self._propose(chunk_users, uniforms))
                    proposals, accept = rounds[r]
                    j = proposals[k]
                    if accept[k] < acceptance(j, t):
                        break
                else:
                    j = self._exact(int(chunk_users[k]), t, start + k)
                click(j, t)
                chunk_items.append(j)
            items[start:start + len(chunk_items)] = chunk_items
        return items

    def _propose(self, users: np.ndarray, uniforms: np.ndarray) -> tuple[list, list]:
        """One proposal per event from its user's matching row, and one accept draw each.

        A branchless binary search runs on every row at once: ``found`` ends
        as the count of the row's CDF entries at or below the target, which
        is what ``np.searchsorted(row, target, side="right")`` returns.
        """
        n = self.n_items
        targets = uniforms * self.cdf[users, -1]
        flat, base = self.cdf.ravel(), users * n - 1
        found = np.zeros(users.size, dtype=np.int64)
        step = 1 << (n.bit_length() - 1)
        while step:
            probe = np.minimum(found + step, n)
            found = np.where(flat[base + probe] <= targets, probe, found)
            step >>= 1
        return np.minimum(found, n - 1).tolist(), self.rng.random(users.size).tolist()

    def _exact(self, u: int, t: int, event: int) -> int:
        """Draw event ``event``'s item from its full weight vector."""
        self.fallbacks += 1
        truth = self.truth
        coeff = bounded_tanh(truth.true_quality + truth.true_beta * self.levels(t))
        weights = coeff * softplus(truth.true_user_emb[u] @ truth.true_item_emb.T)
        total = weights.sum()
        if total <= 0.0:
            raise ValueError(
                f"degenerate config: every click score is zero at event {event} "
                "(needs quality_scale > 0 or an already-clicked history)"
            )
        item = int(np.searchsorted(np.cumsum(weights), self.rng.random() * total, side="right"))
        return min(item, self.n_items - 1)


def save_synth(log: InteractionLog, truth: SynthTruth, config: SynthConfig, outdir) -> Path:
    """Write interactions.tsv (loader-compatible) plus a JSON truth file."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_interactions(log, outdir / "interactions.tsv")
    payload = {
        "true_quality": truth.true_quality.tolist(),
        "true_beta": truth.true_beta.tolist(),
        "seed": config.seed,
        "config": asdict(config),
    }
    truth_path = outdir / "truth.json"
    write_json(truth_path, payload)
    return truth_path
