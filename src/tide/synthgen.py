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
which lies in [0, 1). An event whose first ``MAX_REJECTIONS`` proposals are
all rejected is drawn from its full weight vector instead, which is also
where a config whose weights are all zero fails. Events are decided
``CHUNK`` at a time by a fixed point over the chunk, which gives the
per-event loop's result bit for bit (see ``ThinningSampler._settle``).

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
# an acceptance the fixed point computes this close to its uniform is decided
# again by the loop's own arithmetic (see ThinningSampler._settle)
_MARGIN = 1e-9
# the most chunks one give-up of the fixed point sends to the loop
_MAX_BACKOFF = 16
# the passes one chunk's fixed point may make before it gives up
_MAX_PASSES = 12


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

    ``level``, ``acceptance`` and ``click`` define one event's step. ``draw``
    decides a chunk's events at once where it can (``_settle``) and runs the
    rest through the per-event loop (``_scan``, the same steps inlined); both
    give the loop's items, state and random stream, bit for bit.
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
        # chunks still to start in the loop after the fixed point gave up, and
        # how many the next give-up skips
        self._skip, self._backoff = 0, 1
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
        times = np.asarray(times)
        if np.any(np.diff(times) < 0):
            raise ValueError("event times must be nondecreasing")
        items = np.empty(len(users), dtype=np.int64)
        for start in range(0, len(users), CHUNK):
            chunk = slice(start, start + CHUNK)
            rounds = _Rounds(self, users[chunk], first[chunk])
            done = 0
            if self._skip:
                self._skip -= 1
            elif MAX_REJECTIONS:
                done = self._settle(rounds, times[chunk], items[chunk], start)
            self._scan(rounds, times[chunk], done, rounds.users.size, items[chunk], start)
            rounds.finish()
        return items

    def _scan(self, rounds: "_Rounds", times: np.ndarray, lo: int, hi: int, items: np.ndarray, offset: int) -> None:
        """The per-event loop: decide events lo..hi-1 of a chunk in order, on the exact state.

        ``acceptance`` and ``click`` inlined, with the same arithmetic; the
        kept proposal's S_j(t) is the level ``click`` decays its sum to.
        """
        last, before, at, q, beta = self.last, self.before, self.at, self.q, self.beta
        exp, tanh, tau, hi_p = math.exp, math.tanh, self.tau, float(TANH_HI)
        # rows[r]: round r's proposals and accept draws, looked up when an event
        # first needs the round, for the later events still open: an event is
        # closed once a proposal's acceptance at the chunk's start clears its
        # uniform by over _MARGIN, since clicks only raise an acceptance
        rows, open_ = [], np.arange(hi - lo)
        picked = []
        for k, t in enumerate(times[lo:hi].tolist()):
            for r in range(MAX_REJECTIONS):
                if r == len(rows):
                    open_ = open_[np.searchsorted(open_, k):]
                    found, kept = rounds.propose(r * rounds.size + lo + open_)
                    proposals, accept = np.zeros(hi - lo, dtype=np.int64), np.zeros(hi - lo)
                    proposals[open_], accept[open_] = found, kept
                    rows.append((proposals.tolist(), accept.tolist()))
                    if open_.size > 1:
                        open_ = open_[kept >= rounds.acceptance0(found, times[lo + open_]) - _MARGIN]
                proposals, accept = rows[r]
                j = proposals[k]
                s = before[j] if t == last[j] else (before[j] + at[j]) * exp((last[j] - t) / tau)
                if accept[k] < min(tanh(q[j] + beta[j] * s), hi_p):
                    break
            else:
                j = self._exact(int(rounds.users[lo + k]), t, offset + lo + k)
                s = before[j] if t == last[j] else (before[j] + at[j]) * exp((last[j] - t) / tau)
            if t != last[j]:
                before[j], at[j], last[j] = s, 0, t
            at[j] += 1
            picked.append(j)
        items[lo:hi] = picked
        rounds.used = max(rounds.used, len(rows))

    def _settle(self, rounds: "_Rounds", times: np.ndarray, items: np.ndarray, offset: int) -> int:
        """Decide a chunk's events by a fixed point; returns how many lead events it decided.

        A guess gives every event an item, or none while all its proposals
        are rejected. Each pass decides again, with numpy, the events whose
        tested proposals saw a guessed click change before their time, from
        the chunk-start state plus the guessed clicks strictly earlier. An
        event reads only earlier clicks, so if every guess before the first
        wrong one is right, the next pass corrects it, and a pass that changes
        nothing leaves the loop's result. The first pass sees no in-chunk
        click, and acceptance only grows with clicks, so its round-0 accepts
        are final and never decided again.

        Every decision keeps its margin: how far its tested acceptances lie
        from their uniforms. A changed click moves S_j(t_k) by at most its
        decayed weight and the acceptance by beta_j times that, so a pass
        spends that bound from the margins it reaches and decides again only
        the events whose margin it used up.

        The loop (``_scan``) decides an event on the exact state where the
        fixed point holds no kept proposal for it (a real fallback), and
        where an acceptance lies within ``_MARGIN`` of its uniform; the passes
        then go on from it. Elsewhere the decision is the loop's: the two
        compute each S_j from the same sums of positive terms, so they
        differ by a few rounding errors per click of the chunk, a relative
        1e-12 or so, and tanh(x) moves by at most 0.45 times the relative
        change of x. Decided clicks enter the state with ``click``'s own
        arithmetic, so it stays bit-identical.

        Strong conformity makes long chains of flips, and passes that keep
        changing many decisions. The fixed point then gives up and keeps the
        events before the first change; the loop takes the rest, and the
        next chunks start in the loop, more of them after every give-up in
        a row. It gives up before any pass where acceptance at the chunk's
        start is so low that over an eighth of the events reject their first
        seven proposals.
        """
        n, tau, R = times.size, self.tau, MAX_REJECTIONS
        q, beta = self.truth.true_quality, self.truth.true_beta
        # the first event at each event's time: the clicks before it are the strictly earlier ones
        tied = np.ones(n, dtype=bool)
        tied[1:] = times[1:] == times[:-1]
        tie = np.maximum.accumulate(np.where(tied, 0, np.arange(n)))

        def test(ev, r, clicks):
            """Each (event, round) pair's proposal, whether it is kept, and its acceptance's distance to the uniform."""
            j, a = rounds.propose(r * n + ev)
            s = rounds.level0(j, times[ev])
            if clicks is not None:
                s += clicks(j, ev)
            p = np.minimum(np.tanh(q[j] + beta[j] * s), TANH_HI)
            return j, a < p, np.abs(a - p)

        def decide(events, clicks, patient=True):
            """Each event's item (-1 if every proposal is rejected), rounds tested and closest margin.

            Events test rounds in order until one accepts: round 0 for all,
            then the next 1, 2, 4... rounds at once for those still open.
            Unless ``patient``, None where over an eighth of the chunk is
            still open after seven rounds.
            """
            item = np.full(events.size, -1)
            used = np.full(events.size, R)
            margin = np.full(events.size, np.inf)
            open_, r, width = np.arange(events.size), 0, 1
            while open_.size and r < R:
                if r == 7 and not patient and 8 * open_.size > n:
                    return None
                width = min(width, R - r)
                j, kept, gap = (
                    x.reshape(width, open_.size)
                    for x in test(np.tile(events[open_], width), np.repeat(np.arange(r, r + width), open_.size), clicks)
                )
                hit = kept.any(axis=0)
                first = np.where(hit, kept.argmax(axis=0), width - 1)
                tested = np.arange(width)[:, None] <= first
                margin[open_] = np.minimum(margin[open_], np.where(tested, gap, np.inf).min(axis=0))
                cols = np.flatnonzero(hit)
                item[open_[cols]] = j[first[cols], cols]
                used[open_[cols]] = r + first[cols] + 1
                open_ = open_[~hit]
                r += width
                width *= 2
            return item, used, margin

        def decayed(clicked, at):
            """Query, for (item j, event k) pairs, the sum over these clicks on j strictly before t_k.

            Each click is an item and an event; a doubling scan over the clicks
            sorted by item, then event, holds each one's decayed sum so far.
            ``ConformityIndex`` answers the same query, but ranking times on
            its own clock made ``draw`` a fifth slower on the benchmark config.
            """
            key = clicked * n + at
            order = np.argsort(key)
            key, ct = key[order], times[at[order]]
            same = key[1:] // n == key[:-1] // n
            reach = np.zeros(key.size)
            reach[1:] = np.where(same, np.exp(np.minimum(ct[:-1] - ct[1:], 0) / tau), 0.0)
            sums = np.ones(key.size)
            cuts = np.flatnonzero(~same)
            longest = np.diff(cuts, prepend=-1, append=key.size - 1).max(initial=0)
            d = 1
            while d < longest:
                sums[d:] += reach[d:] * sums[:-d]
                reach[d:] = reach[d:] * reach[:-d]
                d *= 2

            def query(j, events):
                # searchsorted runs fastest on sorted needles
                needle = j * n + tie[events]
                order = np.argsort(needle)
                pos = np.empty_like(order)
                pos[order] = np.searchsorted(key, needle[order]) - 1
                hit = np.maximum(pos, 0)
                found = (pos >= 0) & (key[hit] >= j * n)
                return np.where(found, np.exp(np.minimum(ct[hit] - times[events], 0) / tau) * sums[hit], 0.0)

            return query

        # pass 0, from the chunk-start state alone; where acceptance there is
        # low, the first clicks either raise it fast (and pass 0 guesses far
        # off) or leave many events to fall back, which the loop must draw
        first_pass = decide(np.arange(n), None, patient=False)
        if first_pass is None:
            return self._give_up(0)
        g, used, margin = first_pass
        pinned = (g >= 0) & (used == 1)
        changed = np.flatnonzero(g >= 0)
        old = np.full(changed.size, -1)
        done, passes, counts = 0, 0, []  # counts: decisions each pass since the last loop step changed
        while True:
            redo = changed[:0]
            if changed.size:
                # spend each changed click's bound from the margins of the later events it reaches
                ends = np.concatenate((old, g[changed]))
                at = np.concatenate((changed, changed))[ends >= 0]
                ends = ends[ends >= 0]
                since = np.full(self.n_items, n)  # each item's first changed click
                np.minimum.at(since, ends, tie[at])
                cand = changed[0] + 1 + np.flatnonzero(~pinned[changed[0] + 1:])
                # every round each candidate tested
                width = used[cand]
                ev = np.repeat(cand, width)
                r = np.arange(ev.size) - np.repeat(np.cumsum(width) - width, width)
                j = rounds.proposals[r * n + ev]
                near = np.flatnonzero(since[j] < tie[ev])
                if near.size:
                    ev, j = ev[near], j[near]
                    heads = np.flatnonzero(np.diff(ev, prepend=-1))
                    margin[ev[heads]] -= np.maximum.reduceat(beta[j] * decayed(ends, at)(j, ev), heads)
                redo = cand[margin[cand] <= _MARGIN]
            if redo.size:
                passes += 1
                clicked = np.flatnonzero(g >= 0)
                item, used[redo], margin[redo] = decide(redo, decayed(g[clicked], clicked))
                moved = item != g[redo]
                changed, old = redo[moved], g[redo[moved]]
                g[redo] = item
                counts.append(changed.size)
                if self._slow(counts, n) or passes > _MAX_PASSES:
                    # the guesses before the first change are the loop's, up to the first problem
                    stop = max(done, min(changed[0] if changed.size else n, self._first_problem(g, margin, done)))
                    self._commit(rounds, g, used, times, done, stop, items)
                    return self._give_up(stop)
                continue
            stop = self._first_problem(g, margin, done)
            self._commit(rounds, g, used, times, done, stop, items)
            pinned[done:stop] = True
            if stop == n:
                self._backoff = 1
                return n
            if passes >= _MAX_PASSES:
                return self._give_up(stop)
            # the loop decides this event on the exact state, and the passes go on from it
            passes += 1
            self._scan(rounds, times, stop, stop + 1, items, offset)
            pinned[stop] = True
            changed = np.flatnonzero(items[stop:stop + 1] != g[stop:stop + 1]) + stop
            old, g[stop] = g[changed], items[stop]
            done, counts = stop + 1, []

    def _give_up(self, decided: int) -> int:
        """Send the next chunks to the loop, twice as many after every give-up in a row."""
        self._skip, self._backoff = self._backoff, min(2 * self._backoff, _MAX_BACKOFF)
        return decided

    @staticmethod
    def _slow(counts: list, n: int) -> bool:
        """Whether passes that changed these numbers of decisions, in order, converge too slowly to go on.

        A first pass that changes over an eighth of the chunk's decisions
        marks strong coupling. After it, the changes shrink by some ratio per
        pass; more than two further passes at that ratio (c**3 > c_before**2)
        cost more than the loop would, unless only a few decisions are left.
        """
        if len(counts) == 1:
            return 8 * counts[0] > n
        return counts[-1] > 16 and counts[-1] ** 3 > counts[-2] ** 2

    @staticmethod
    def _first_problem(g: np.ndarray, margin: np.ndarray, done: int) -> int:
        """The first event from ``done`` on with no guessed item or a margin the loop must settle."""
        bad = np.flatnonzero((g[done:] < 0) | (margin[done:] <= _MARGIN))
        return done + int(bad[0]) if bad.size else g.size

    def _commit(self, rounds, g, used, times, lo, hi, items) -> None:
        """Enter events lo..hi-1's decided clicks, leaving the state ``click`` leaves, bit for bit.

        Each distinct (item, time) is one step of ``click``'s recurrence:
        before = (before + at) * exp((last - t) / tau), with ``math.exp``,
        then at counts the clicks at t; a time equal to the item's last one
        only adds to at. The steps run in click order, in one Python loop.
        """
        if hi <= lo:
            return
        items[lo:hi] = g[lo:hi]
        rounds.used = max(rounds.used, int(used[lo:hi].max()))
        order = np.argsort(g[lo:hi], kind="stable")
        j, t = g[lo:hi][order], times[lo:hi][order]
        head = np.ones(j.size, dtype=bool)
        head[1:] = (j[1:] != j[:-1]) | (t[1:] != t[:-1])
        starts = np.flatnonzero(head)
        j, t = j[starts], t[starts]
        count = np.diff(starts, append=head.size)
        fresh = np.ones(j.size, dtype=bool)  # the item's first step in this commit
        fresh[1:] = j[1:] != j[:-1]
        firsts = j[fresh].tolist()
        last = np.array([self.last[x] for x in firsts], dtype=t.dtype)
        at0 = np.array([self.at[x] for x in firsts], dtype=np.int64)
        tied = np.zeros(j.size, dtype=bool)
        tied[fresh] = t[fresh] == last
        # at after each step, and the at each step adds before it decays
        at = count.copy()
        at[tied] += at0[tied[fresh]]
        add = np.empty(j.size, dtype=np.int64)
        add[1:] = at[:-1]
        add[fresh] = at0
        add[tied] = 0
        since = np.empty_like(t)
        since[1:] = t[:-1]
        since[fresh] = last
        decay = map(math.exp, ((since - t) / self.tau).tolist())
        level, b, bases = [], 0.0, iter([self.before[x] for x in firsts])
        for new, k, e in zip(fresh.tolist(), add.tolist(), decay):
            b = ((next(bases) if new else b) + k) * e
            level.append(b)
        ends = np.flatnonzero(np.append(fresh[1:], True)).tolist()
        for x, when, b, n_at in zip(j[ends].tolist(), t[ends].tolist(), [level[e] for e in ends], at[ends].tolist()):
            self.last[x], self.before[x], self.at[x] = when, b, n_at

    def _propose(self, users: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One proposal per event from its user's matching row.

        A branchless binary search runs on every row at once: ``found`` ends
        as the count of the row's CDF entries at or below the target, which
        is what ``np.searchsorted(row, target, side="right")`` returns, and
        the proposal is that count clamped to the last item.
        """
        n = self.n_items
        targets = uniforms * self.cdf[users, -1]
        flat, base = self.cdf.ravel(), users * n - 1
        found = np.zeros(users.size, dtype=np.int64)
        step = 1 << (n.bit_length() - 1)
        while step:
            # a probe past the row's end reads its last entry, the total: found
            # then passes n only where the target reaches the total, and is clamped
            found += step * (flat[base + np.minimum(found + step, n)] <= targets)
            step >>= 1
        return np.minimum(found, n - 1)

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


class _Rounds:
    """One chunk's proposal rounds, each drawn for the whole chunk when first needed.

    Round 0 proposes from the events' ``first`` uniforms and draws one accept
    uniform each; a later round draws the proposal uniforms, then the accept
    uniforms. A cell is round * ``size`` + event, and an event's proposal is
    looked up only once a cell is asked for. ``used`` counts the rounds that
    decided events needed. A guess may draw rounds past it, so ``finish``
    puts the generator back where drawing the used rounds alone leaves it;
    fallback draws come after every round, so a chunk with one has used
    them all.
    """

    def __init__(self, sampler: ThinningSampler, users: np.ndarray, first: np.ndarray):
        self.sampler, self.users, self.first = sampler, users, first
        self.size = users.size
        cells = MAX_REJECTIONS * users.size
        self.uniforms, self.accepts = np.empty(cells), np.empty(cells)
        self.proposals = np.empty(cells, dtype=np.int64)  # -1 in a drawn round until looked up
        self.drawn = 0
        self.states = [sampler.rng.bit_generator.state]  # states[r]: the generator after r rounds
        self.used = 0
        # the per-item state at the chunk's start
        self.last0, self.before0 = np.array(sampler.last), np.array(sampler.before)
        self.held0 = self.before0 + np.array(sampler.at)

    def propose(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The proposals and accept draws at these cells."""
        rng, n = self.sampler.rng, self.size
        while self.drawn * n <= cells.max(initial=-1):
            row = slice(self.drawn * n, (self.drawn + 1) * n)
            self.uniforms[row] = rng.random(n) if self.drawn else self.first
            self.accepts[row] = rng.random(n)
            self.proposals[row] = -1
            self.states.append(rng.bit_generator.state)
            self.drawn += 1
        got = self.proposals[cells]
        new = got < 0
        if new.any():
            fresh = cells[new]
            got[new] = self.proposals[fresh] = self.sampler._propose(self.users[fresh % n], self.uniforms[fresh])
        return got, self.accepts[cells]

    def level0(self, j: np.ndarray, t: np.ndarray) -> np.ndarray:
        """S_j(t) from the chunk-start state, in numpy: the clicks before t, less the chunk's."""
        lj = self.last0[j]
        return np.where(t == lj, self.before0[j], self.held0[j] * np.exp((lj - t) / self.sampler.tau))

    def acceptance0(self, j: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``acceptance`` from the chunk-start state, in numpy; the chunk's clicks only raise it."""
        truth = self.sampler.truth
        return np.minimum(np.tanh(truth.true_quality[j] + truth.true_beta[j] * self.level0(j, t)), TANH_HI)

    def finish(self) -> None:
        """Leave the generator where drawing only the used rounds leaves it."""
        if self.used < self.drawn:
            self.sampler.rng.bit_generator.state = self.states[self.used]


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
