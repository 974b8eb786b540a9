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
while the working set stays bounded whatever the catalog size. That working
set is allocated once per pass, not per block or mode: a scorer keeps its
block arrays, ``rank_tasks`` one work block in which ``ClickTask`` negates
and partitions each block's scores, and every later block writes into them
(a shorter one into their first rows). Ranking stays
exact over the full catalog, and no top-k list is built: the metrics need
only the ranks of the relevant items. An item's rank is the number of
candidates that beat it, by a higher score or by an equal score and a lower
id, with NaN last. A relevant item scoring below its row's k-th score is a
miss without counting; each other one is counted against its whole row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dataset import InteractionLog

# Scores held at once while ranking (about 1 MB of float64): a block has
# max(1, BLOCK_ELEMENTS // n_items) user rows. The scorer's arrays and
# rank_tasks' work block are allocated once per pass at this size.
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


def rank_topk(scores: np.ndarray, user: int, k: int, exclusions=()) -> RankedList:
    """Top-k items by score with excluded ids removed; ties go to lower id, and NaN ranks last."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    items = np.delete(np.arange(scores.size), np.fromiter(exclusions, dtype=np.int64, count=len(exclusions)))
    if items.size == 0:
        raise ValueError("no candidates remain after exclusion")
    items = items[np.lexsort((items, -scores[items]))[:k]]
    return RankedList(user=int(user), items=items, scores=scores[items])


# ------------------------------------------------------------------ metrics
#
# Every metric is read from the hits of a block of rows: the row and the
# 0-based rank (below k) of each relevant item ranked in the top k.


def _discounts(k: int) -> list[float]:
    return [1.0 / math.log2(r + 1) for r in range(1, k + 1)]


def recall_rows(row: np.ndarray, n_relevant: np.ndarray) -> np.ndarray:
    """Recall of every row; ``n_relevant`` holds one count per row."""
    return np.bincount(row, minlength=n_relevant.size) / n_relevant


def precision_rows(row: np.ndarray, n_rows: int, k: int) -> np.ndarray:
    """Precision@k of every row; the denominator stays k for short lists."""
    return np.bincount(row, minlength=n_rows) / k


def ndcg_rows(row: np.ndarray, rank: np.ndarray, n_relevant: np.ndarray, k: int) -> np.ndarray:
    """Binary-gain NDCG@k of every row; ideal DCG fills min(k, |relevant|) slots.

    The hits must be sorted by (row, rank): gains are then added rank by rank,
    so a row's DCG is the same float as the scalar left-to-right sum over its hits.
    """
    disc = _discounts(k)
    dcg = np.bincount(row, weights=np.array(disc)[rank], minlength=n_relevant.size)
    ideal = np.array(list(accumulate(disc)))
    return dcg / ideal[np.minimum(k, n_relevant) - 1]


def _hit_ranks(top: RankedList, relevant: set, k: int) -> np.ndarray:
    return np.flatnonzero(np.isin(top.items[:k], list(relevant)))


def recall_at_k(top: RankedList, relevant, k: int) -> float:
    rel = set(relevant)
    if not rel:
        raise ValueError("recall needs a non-empty relevant set")
    rank = _hit_ranks(top, rel, k)
    return float(recall_rows(np.zeros_like(rank), np.array([len(rel)]))[0])


def precision_at_k(top: RankedList, relevant, k: int) -> float:
    rank = _hit_ranks(top, set(relevant), k)
    return float(precision_rows(np.zeros_like(rank), 1, k)[0])


def ndcg_at_k(top: RankedList, relevant, k: int) -> float:
    """Binary-gain NDCG; ideal DCG uses min(k, |relevant|) leading slots."""
    rel = set(relevant)
    if not rel:
        raise ValueError("ndcg needs a non-empty relevant set")
    rank = _hit_ranks(top, rel, k)
    return float(ndcg_rows(np.zeros_like(rank), rank, np.array([len(rel)]), k)[0])


# ------------------------------------------------------------------ tasks


class _Task:
    """A ranking task's users (ascending), skip count, metric names, and per-user counts.

    A task is built once from its logs and can be ranked for any number of
    scorers and modes: ``rank_tasks`` gives every mode of every pass fresh
    metric columns (``columns``), which ``rank`` fills and ``result`` reads,
    so reusing a task cannot leak an earlier scorer's numbers. What ranking
    users a..b-1 needs beyond their scores comes from ``block(a, b)``, once
    per block, and goes to every mode's ``rank``, with the pass's ``work``
    block, which ``rank`` may overwrite. ``rank`` reads the users' score
    rows of the block at ``rows``, or all of its rows where ``rows`` is None.
    """

    def __init__(self, k: int, n_items: int, users: np.ndarray, n_skipped: int, metrics: tuple, counts: dict):
        if k < 1:
            raise ValueError("k must be >= 1")
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

    def block(self, a: int, b: int) -> tuple:
        """The block's cells (row * n_items + item) of the users' training items, the candidate mask
        they leave, and the block rows and items of the users' relevant items."""
        users = self.users[a:b]
        row, items = _block_pairs(self.seen, users)
        excluded = row * self.n_items + items
        allowed = np.ones(users.size * self.n_items, dtype=bool)
        allowed[excluded] = False
        return excluded, allowed.reshape(users.size, -1), *_block_pairs(self.relevant, users)

    def rank(self, a: int, b: int, scores: np.ndarray, rows, metrics: dict, context: tuple,
             work: np.ndarray) -> None:
        excluded, allowed, row, items = context
        # ascending neg = descending score; excluded cells go last, and the partition is in place.
        # A take that may clip writes straight into ``out``; rows are in range, so it never clips
        neg = work[: b - a]
        np.negative(scores if rows is None else np.take(scores, rows, axis=0, out=neg, mode="clip"), out=neg)
        neg.reshape(-1)[excluded] = np.inf
        kk = min(self.k, neg.shape[1])
        neg.partition(kk - 1, axis=1)
        kth = -neg[:, kk - 1]
        # k allowed candidates beat an item strictly behind the k-th score; a nan compares false and stays.
        # Negation is exact, so comparing scores gives the counts that comparing negated scores gives.
        at = row if rows is None else rows[row]  # the block's score row of each relevant item
        value = scores[at, items]
        near = ~(value < kth[row])
        row, at, items, value = row[near], at[near], items[near, None], value[near, None]
        # count each remaining item's rivals, at most BLOCK_ELEMENTS cells at a time
        ids = np.arange(scores.shape[1])
        rank = np.empty(row.size, dtype=np.int64)
        step = max(1, BLOCK_ELEMENTS // scores.shape[1])
        for lo in range(0, row.size, step):
            part = slice(lo, lo + step)
            cand, v, ahead = scores[at[part]], value[part], ids < items[part]
            beats = (cand > v) | ((cand == v) & ahead)
            nan = np.isnan(v[:, 0])
            beats[nan] = ~np.isnan(cand[nan]) | ahead[nan]  # nan ranks last, nans by id
            rank[part] = np.count_nonzero(beats & allowed[row[part]], axis=1)
        hit = np.flatnonzero(rank < self.k)
        hit = hit[np.lexsort((rank[hit], row[hit]))]
        row, rank = row[hit], rank[hit]
        n_relevant = self.counts["n_relevant"][a:b]
        metrics["recall"][a:b] = recall_rows(row, n_relevant)
        metrics["precision"][a:b] = precision_rows(row, b - a, self.k)
        metrics["ndcg"][a:b] = ndcg_rows(row, rank, n_relevant, self.k)


class PreferenceTask(_Task):
    """Rank each user's rated held-out items; positives are top-rated ones.

    Users whose rated items are all positive or all negative carry no
    within-user ranking signal and are skipped. When an item was rated more
    than once in the held-out window, the latest rating stands. Precision
    keeps the fixed denominator k even for users with fewer than k items.
    """

    def __init__(self, eval_log: InteractionLog, k: int):
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

    def block(self, a: int, b: int) -> tuple:
        """The block rows, items and positive flags of its users' rated pairs."""
        users = self.users[a:b]
        lo, hi = np.searchsorted(self.pair_users, [users[0], users[-1] + 1])
        return np.searchsorted(users, self.pair_users[lo:hi]), self.pair_items[lo:hi], self.pair_positive[lo:hi]

    def rank(self, a: int, b: int, scores: np.ndarray, rows, metrics: dict, pairs: tuple,
             work: np.ndarray) -> None:
        row, items, positive = pairs
        order = np.lexsort((items, -scores[row if rows is None else rows[row], items], row))
        row, positive = row[order], positive[order]
        rank = np.arange(row.size) - np.searchsorted(row, row)
        hit_row = row[positive & (rank < self.k)]
        metrics["recall"][a:b] = recall_rows(hit_row, self.counts["n_positive"][a:b])
        metrics["precision"][a:b] = precision_rows(hit_row, b - a, self.k)


def _block_pairs(pairs, users: np.ndarray) -> tuple:
    """The block row and item of every pair of ``users``, by row and then item."""
    # user r's pairs are lo[r] .. lo[r] + n[r] - 1
    lo = pairs.offsets[users]
    n = pairs.offsets[users + 1] - lo
    row = np.repeat(np.arange(users.size), n)
    return row, pairs.items[np.arange(row.size) + np.repeat(lo - (np.cumsum(n) - n), n)]


def rank_tasks(score_blocks, tasks, collect_per_user: bool = False, n_modes: int = 1) -> list[list[dict]]:
    """Rank every task in every mode from one scoring pass; returns per mode each task's ``result``, in order.

    ``score_blocks(users)`` must yield ``n_modes`` (len(users), n_items)
    score blocks, one per mode, in the same mode order for every call. The
    union of the tasks' users is scored block by block, so a user ranked by
    several tasks is scored once; every task ranks its own rows of a mode's
    block before the next mode's block is drawn, so a scorer may build each
    one lazily and write each call's blocks into the arrays of the last.
    """
    if len({task.n_items for task in tasks}) != 1:
        raise ValueError("tasks ranked together must share one catalog")
    users = np.unique(np.concatenate([task.users for task in tasks]))
    step = max(1, BLOCK_ELEMENTS // max(tasks[0].n_items, 1))
    metrics = [[task.columns() for task in tasks] for _ in range(n_modes)]
    # one block that every rank call of this pass may overwrite; it dies with the pass, so it
    # does not stay allocated between passes (between fit's epochs, among the training steps)
    work = np.empty((min(step, users.size), tasks[0].n_items))
    for lo in range(0, users.size, step):
        block = users[lo : lo + step]
        # each task's users in this block, their rows of it (None: every row), and what
        # ranking them needs beyond the scores
        spans = []
        for task in tasks:
            a, b = np.searchsorted(task.users, [block[0], block[-1] + 1])
            rows = None if b - a == block.size else np.searchsorted(block, task.users[a:b])
            spans.append((a, b, rows, task.block(a, b) if a < b else None))
        for scores, mode_metrics in zip(score_blocks(block), metrics, strict=True):
            for task, (a, b, rows, context), out in zip(tasks, spans, mode_metrics):
                if a < b:
                    task.rank(a, b, scores, rows, out, context, work)
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
