"""Ranking evaluation for the two tasks: click prediction and preference prediction.

Click prediction ranks every item the user has not interacted with in
training and asks whether their future (held-out) clicks surface in the
top K. Preference prediction ranks only the user's rated held-out items and
asks whether the top-rated ones come first; it probes whether a score orders
by true preference rather than by exposure.

Both tasks, and validation inside training, run on one blocked engine,
``rank_tasks``; a task is built once from its logs and ranked for any number
of scorers. A scorer maps an array of user ids to one (users, n_items) score
block per inference mode; users are scored ``BLOCK_ELEMENTS // n_items`` at a
time, so each user's score rows are computed once and shared by both tasks
while the working set stays bounded whatever the catalog size. Ranking stays
exact over the full catalog: the top k come from ``argpartition`` and are
ordered by (-score, id), and a row whose k-th score ties a score outside the
selection (or is not finite) falls back to a full (-score, id) sort of its
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import InteractionLog

# Scores held at once while ranking (about 1 MB of float64): a block has
# max(1, BLOCK_ELEMENTS // n_items) user rows.
BLOCK_ELEMENTS = 1 << 17

# The rating that marks a held-out item as a positive in preference prediction.
POSITIVE_RATING = 5.0


@dataclass(frozen=True)
class RankedList:
    """Top-ranked items for one user, scores descending, ids break ties."""

    user: int
    items: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        if self.items.shape != self.scores.shape:
            raise ValueError("items and scores lengths differ")


# ------------------------------------------------------------------ ranking


def topk_rows(scores: np.ndarray, k: int, excluded: np.ndarray | None = None) -> np.ndarray:
    """Top-k item ids of every score row, ordered by (-score, id).

    ``excluded`` is an optional boolean mask of the block's shape; masked
    items are never ranked. The result has min(k, n_items) columns; a row
    with fewer candidates is padded on the right with -1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    neg = np.negative(np.asarray(scores, dtype=np.float64))  # ascending neg = descending score
    n_rows, n_items = neg.shape
    kk = min(k, n_items)
    if kk == 0:
        return np.empty((n_rows, 0), dtype=np.int64)
    if excluded is not None:
        np.copyto(neg, np.inf, where=excluded)
    if kk < n_items:
        part = np.argpartition(neg, kk - 1, axis=1)[:, :kk]
    else:
        part = np.broadcast_to(np.arange(n_items), neg.shape)
    vals = np.take_along_axis(neg, part, axis=1)
    order = np.lexsort((part, vals), axis=1)
    top = np.take_along_axis(part, order, axis=1)
    kth = np.take_along_axis(vals, order[:, -1:], axis=1)
    # the selection is the exact top k iff nothing outside it reaches the
    # k-th score; masked (+inf) and nan entries never pass a finite k-th value
    exact = np.isfinite(kth[:, 0]) & (np.count_nonzero(neg <= kth, axis=1) == kk)
    for r in np.flatnonzero(~exact):
        cand = np.arange(n_items) if excluded is None else np.flatnonzero(~excluded[r])
        best = cand[np.lexsort((cand, neg[r, cand]))[:kk]]
        top[r] = -1
        top[r, : best.size] = best
    return top


def rank_topk(scores: np.ndarray, user: int, k: int, exclusions=()) -> RankedList:
    """Top-k items by score with excluded ids removed; ties go to lower id.

    A one-row call into ``topk_rows``, the ranker every evaluation uses.
    """
    scores = np.asarray(scores, dtype=np.float64)
    excluded = np.zeros(scores.size, dtype=bool)
    excluded[np.fromiter(exclusions, dtype=np.int64, count=len(exclusions))] = True
    items = topk_rows(scores[None, :], k, excluded[None, :])[0]
    items = items[items >= 0]
    if items.size == 0:
        raise ValueError("no candidates remain after exclusion")
    return RankedList(user=int(user), items=items, scores=scores[items])


# ------------------------------------------------------------------ metrics


def _discounts(k: int) -> list[float]:
    return [1.0 / math.log2(r + 1) for r in range(1, k + 1)]


def recall_rows(hits: np.ndarray, n_relevant) -> np.ndarray:
    """Recall of every row of a (rows, ranks) hit matrix."""
    return np.count_nonzero(hits, axis=1) / n_relevant


def precision_rows(hits: np.ndarray, k: int) -> np.ndarray:
    """Precision@k of every row; the denominator stays k for short lists."""
    return np.count_nonzero(hits, axis=1) / k


def ndcg_rows(hits: np.ndarray, n_relevant, k: int) -> np.ndarray:
    """Binary-gain NDCG@k of every row; ideal DCG fills min(k, |relevant|) slots.

    Gains are added rank by rank, so a row's DCG is the same float as the
    scalar left-to-right sum over its hits.
    """
    disc = _discounts(k)
    dcg = np.zeros(hits.shape[0])
    for r in range(min(k, hits.shape[1])):
        dcg += np.where(hits[:, r], disc[r], 0.0)
    ideal = np.array(list(accumulate(disc)))
    return dcg / ideal[np.minimum(k, n_relevant) - 1]


def _hit_row(top: RankedList, relevant: set, k: int) -> np.ndarray:
    return np.isin(top.items[:k], list(relevant))[None, :]


def recall_at_k(top: RankedList, relevant, k: int) -> float:
    rel = set(relevant)
    if not rel:
        raise ValueError("recall needs a non-empty relevant set")
    return float(recall_rows(_hit_row(top, rel, k), len(rel))[0])


def precision_at_k(top: RankedList, relevant, k: int) -> float:
    return float(precision_rows(_hit_row(top, set(relevant), k), k)[0])


def ndcg_at_k(top: RankedList, relevant, k: int) -> float:
    """Binary-gain NDCG; ideal DCG uses min(k, |relevant|) leading slots."""
    rel = set(relevant)
    if not rel:
        raise ValueError("ndcg needs a non-empty relevant set")
    return float(ndcg_rows(_hit_row(top, rel, k), len(rel), k)[0])


# ------------------------------------------------------------------ tasks


class _Task:
    """A ranking task's users (ascending), skip count, metric names, and per-user counts.

    A task is built once from its logs and can be ranked for any number of
    scorers and modes: ``rank_tasks`` gives every mode of every pass fresh
    metric columns (``columns``), which ``rank`` fills and ``result`` reads,
    so reusing a task cannot leak an earlier scorer's numbers.
    """

    def __init__(self, k: int, n_items: int, users: np.ndarray, n_skipped: int, metrics: tuple, counts: dict):
        self.k, self.n_items, self.users, self.n_skipped = k, int(n_items), users, int(n_skipped)
        self.metric_names = metrics
        self.counts = counts

    def columns(self) -> dict:
        """Empty per-user metric columns for one mode of one ranking pass."""
        return {name: np.empty(self.users.size) for name in self.metric_names}

    def result(self, metrics: dict, collect_per_user: bool) -> dict:
        n = self.users.size
        out = {"k": self.k, "n_users": n, "n_skipped": self.n_skipped}
        out.update({name: float(np.mean(col)) if n else None for name, col in metrics.items()})
        if collect_per_user:
            columns = {**metrics, **self.counts}
            out["per_user"] = {
                int(u): {name: col[j].item() for name, col in columns.items()} for j, u in enumerate(self.users)
            }
        return out


class ClickTask(_Task):
    """Macro-averaged Recall/Precision/NDCG@k over held-out click lists.

    Candidates are all items minus the user's training positives; relevant
    items are the user's held-out items restricted to those candidates (an
    item already consumed in training cannot be recommended again, so it
    cannot count against the ranking either). Users left with no relevant
    item are skipped.
    """

    def __init__(self, train: InteractionLog, eval_log: InteractionLog, k: int):
        if (train.n_users, train.n_items) != (eval_log.n_users, eval_log.n_items):
            raise ValueError("training and held-out logs must share one id space")
        self.seen = train.pairs
        self.relevant = eval_log.subset(~self.seen.contains(eval_log.users, eval_log.items)).pairs
        eval_users = np.flatnonzero(np.diff(eval_log.pairs.offsets))
        # a user who clicked every item in training has no relevant item left
        n_relevant = np.diff(self.relevant.offsets)[eval_users]
        keep = n_relevant > 0
        super().__init__(k, train.n_items, eval_users[keep], eval_users.size - keep.sum(),
                         ("recall", "precision", "ndcg"), {"n_relevant": n_relevant[keep]})

    def rank(self, a: int, b: int, scores: np.ndarray, metrics: dict) -> None:
        users = self.users[a:b]
        # the block users' training items: pairs lo[r] .. lo[r] + n[r] - 1 for block row r
        lo = self.seen.offsets[users]
        n = self.seen.offsets[users + 1] - lo
        row = np.repeat(np.arange(users.size), n)
        pair = np.arange(row.size) + np.repeat(lo - (np.cumsum(n) - n), n)
        excluded = np.zeros(scores.shape, dtype=bool)
        excluded[row, self.seen.items[pair]] = True
        top = topk_rows(scores, self.k, excluded)
        hits = (top >= 0) & self.relevant.contains(users[:, None], top)
        n_relevant = self.counts["n_relevant"][a:b]
        metrics["recall"][a:b] = recall_rows(hits, n_relevant)
        metrics["precision"][a:b] = precision_rows(hits, self.k)
        metrics["ndcg"][a:b] = ndcg_rows(hits, n_relevant, self.k)


class PreferenceTask(_Task):
    """Rank each user's rated held-out items; positives are top-rated ones.

    Users whose rated items are all positive or all negative carry no
    within-user ranking signal and are skipped. When an item was rated more
    than once in the held-out window, the latest rating stands. Precision
    keeps the fixed denominator k even for users with fewer than k items.
    """

    def __init__(self, eval_log: InteractionLog, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        rated = eval_log.subset(~np.isnan(eval_log.ratings))
        latest = rated.pairs.last_row
        users, items = rated.users[latest], rated.items[latest]
        positive = rated.ratings[latest] == POSITIVE_RATING
        n_rated = np.diff(rated.pairs.offsets)
        n_positive = np.bincount(users[positive], minlength=eval_log.n_users)
        mixed = (n_positive > 0) & (n_positive < n_rated)
        kept = np.flatnonzero(mixed)
        n_eval_users = np.count_nonzero(np.diff(eval_log.pairs.offsets))
        super().__init__(k, eval_log.n_items, kept, n_eval_users - kept.size, ("recall", "precision"),
                         {"n_rated": n_rated[kept], "n_positive": n_positive[kept]})
        keep = mixed[users]
        self.pair_users, self.pair_items, self.pair_positive = users[keep], items[keep], positive[keep]

    def rank(self, a: int, b: int, scores: np.ndarray, metrics: dict) -> None:
        users = self.users[a:b]
        lo, hi = np.searchsorted(self.pair_users, [users[0], users[-1] + 1])
        row = np.searchsorted(users, self.pair_users[lo:hi])
        items = self.pair_items[lo:hi]
        order = np.lexsort((items, -scores[row, items], row))
        row, positive = row[order], self.pair_positive[lo:hi][order]
        rank = np.arange(row.size) - np.searchsorted(row, row)
        top = rank < self.k
        hits = np.zeros((users.size, min(self.k, int(rank.max()) + 1)), dtype=bool)
        hits[row[top], rank[top]] = positive[top]
        metrics["recall"][a:b] = recall_rows(hits, self.counts["n_positive"][a:b])
        metrics["precision"][a:b] = precision_rows(hits, self.k)


def rank_tasks(score_blocks, tasks, collect_per_user: bool = False, n_modes: int = 1) -> list[list[dict]]:
    """Rank every task in every mode from one scoring pass; returns per mode each task's ``result``, in order.

    ``score_blocks(users)`` must yield ``n_modes`` (len(users), n_items)
    score blocks, one per mode, in the same mode order for every call. The
    union of the tasks' users is scored block by block, so a user ranked by
    several tasks is scored once; every task ranks its own rows of a mode's
    block before the next mode's block is drawn, so a scorer may build each
    one lazily.
    """
    if len({task.n_items for task in tasks}) != 1:
        raise ValueError("tasks ranked together must share one catalog")
    users = np.unique(np.concatenate([task.users for task in tasks]))
    step = max(1, BLOCK_ELEMENTS // max(tasks[0].n_items, 1))
    metrics = [[task.columns() for task in tasks] for _ in range(n_modes)]
    for lo in range(0, users.size, step):
        block = users[lo : lo + step]
        # each task's users in this block, and their rows of it (None: every row)
        spans = []
        for task in tasks:
            a, b = np.searchsorted(task.users, [block[0], block[-1] + 1])
            rows = None if b - a == block.size else np.searchsorted(block, task.users[a:b])
            spans.append((a, b, rows))
        for scores, mode_metrics in zip(score_blocks(block), metrics, strict=True):
            for task, (a, b, rows), out in zip(tasks, spans, mode_metrics):
                if a < b:
                    task.rank(a, b, scores if rows is None else scores[rows], out)
    return [[task.result(out, collect_per_user) for task, out in zip(tasks, mode_metrics)]
            for mode_metrics in metrics]


def click_prediction_eval(
    score_blocks, train: InteractionLog, eval_log: InteractionLog, k: int = 20, collect_per_user: bool = False
) -> dict:
    """The result of ranking a ``ClickTask`` alone, for a one-mode scorer."""
    return rank_tasks(score_blocks, [ClickTask(train, eval_log, k)], collect_per_user)[0][0]


def preference_prediction_eval(
    score_blocks, eval_log: InteractionLog, k: int = 3, collect_per_user: bool = False
) -> dict:
    """The result of ranking a ``PreferenceTask`` alone, for a one-mode scorer."""
    return rank_tasks(score_blocks, [PreferenceTask(eval_log, k)], collect_per_user)[0][0]
