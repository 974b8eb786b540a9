"""Ranking evaluation for the two tasks: click prediction and preference prediction.

Click prediction ranks every item the user has not interacted with in
training and asks whether their future (held-out) clicks surface in the
top K. Preference prediction ranks only the user's rated held-out items and
asks whether the top-rated ones come first; it probes whether a score orders
by true preference rather than by exposure.

Both tasks, and validation inside training, run on one blocked engine. A
scorer maps an array of user ids to a (users, n_items) score block; users
are scored ``BLOCK_ELEMENTS // n_items`` at a time, so each user's score row
is computed once and shared by both tasks while the working set stays
bounded whatever the catalog size. Ranking stays exact over the full
catalog: the top k come from ``argpartition`` and are ordered by
(-score, id), and a row whose k-th score ties a score outside the selection
(or is not finite) falls back to a full (-score, id) sort of its candidates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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


@dataclass
class EvalReport:
    method: str
    mode: str
    k_click: int
    k_pref: int
    cp_rec: float | None = None
    cp_pre: float | None = None
    cp_ndcg: float | None = None
    pp_rec: float | None = None
    pp_pre: float | None = None
    n_users_click: int = 0
    n_users_pref: int = 0
    n_skipped_click: int = 0
    n_skipped_pref: int = 0
    per_user: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        if not self.per_user:
            out.pop("per_user")
        return out


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
    """A ranking task's users (ascending), skip count, and per-user metric columns."""

    def __init__(self, k: int, users: np.ndarray, n_skipped: int, metrics: tuple, counts: dict):
        self.k, self.users, self.n_skipped = k, users, int(n_skipped)
        self.metrics = {name: np.empty(users.size) for name in metrics}
        self.counts = counts

    def result(self, collect_per_user: bool) -> dict:
        n = self.users.size
        out = {"k": self.k, "n_users": n, "n_skipped": self.n_skipped}
        out.update({name: float(np.mean(col)) if n else None for name, col in self.metrics.items()})
        if collect_per_user:
            columns = {**self.metrics, **self.counts}
            out["per_user"] = {
                int(u): {name: col[j].item() for name, col in columns.items()} for j, u in enumerate(self.users)
            }
        return out


class _ClickTask(_Task):
    """Click prediction over all non-training items, for users with new clicks."""

    def __init__(self, train: InteractionLog, eval_log: InteractionLog, k: int):
        if (train.n_users, train.n_items) != (eval_log.n_users, eval_log.n_items):
            raise ValueError("training and held-out logs must share one id space")
        self.seen = train.pairs
        self.relevant = eval_log.subset(~self.seen.contains(eval_log.users, eval_log.items)).pairs
        eval_users = np.flatnonzero(np.diff(eval_log.pairs.offsets))
        # a user who clicked every item in training has no relevant item left
        n_relevant = np.diff(self.relevant.offsets)[eval_users]
        keep = n_relevant > 0
        super().__init__(k, eval_users[keep], eval_users.size - keep.sum(), ("recall", "precision", "ndcg"),
                         {"n_relevant": n_relevant[keep]})

    def rank(self, a: int, b: int, scores: np.ndarray) -> None:
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
        self.metrics["recall"][a:b] = recall_rows(hits, n_relevant)
        self.metrics["precision"][a:b] = precision_rows(hits, self.k)
        self.metrics["ndcg"][a:b] = ndcg_rows(hits, n_relevant, self.k)


class _PreferenceTask(_Task):
    """Preference prediction over each user's rated held-out items."""

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
        super().__init__(k, kept, n_eval_users - kept.size, ("recall", "precision"),
                         {"n_rated": n_rated[kept], "n_positive": n_positive[kept]})
        keep = mixed[users]
        self.pair_users, self.pair_items, self.pair_positive = users[keep], items[keep], positive[keep]

    def rank(self, a: int, b: int, scores: np.ndarray) -> None:
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
        self.metrics["recall"][a:b] = recall_rows(hits, self.counts["n_positive"][a:b])
        self.metrics["precision"][a:b] = precision_rows(hits, self.k)


def _rank_in_blocks(score_block, n_items: int, tasks) -> None:
    """Score the union of the tasks' users block by block; each task ranks its rows."""
    users = np.unique(np.concatenate([task.users for task in tasks]))
    step = max(1, BLOCK_ELEMENTS // max(n_items, 1))
    for lo in range(0, users.size, step):
        block = users[lo : lo + step]
        scores = score_block(block)
        for task in tasks:
            a, b = np.searchsorted(task.users, [block[0], block[-1] + 1])
            if a == b:
                continue
            rows = scores if b - a == block.size else scores[np.searchsorted(block, task.users[a:b])]
            task.rank(a, b, rows)


def click_prediction_eval(
    score_block,
    train: InteractionLog,
    eval_log: InteractionLog,
    k: int = 20,
    collect_per_user: bool = False,
    pref_k: int | None = None,
) -> dict:
    """Macro-averaged Recall/Precision/NDCG@k over held-out click lists.

    ``score_block(users)`` must return a (len(users), n_items) score block.
    Candidates are all items minus the user's training positives; relevant
    items are the user's held-out items restricted to those candidates (an
    item already consumed in training cannot be recommended again, so it
    cannot count against the ranking either). Users left with no relevant
    item are skipped.

    With ``pref_k`` set, the preference task (``preference_prediction_eval``)
    is ranked from the same score rows, so each user is scored once for both
    tasks; its result is returned under ``"pref"``, for the caller to take
    out beside the click result. The click result stays the returned dict
    itself, so callers that read only ``"recall"`` or ``"n_users"`` are
    unaffected.
    """
    click = _ClickTask(train, eval_log, k)
    tasks = [click]
    if pref_k is not None:
        tasks.append(_PreferenceTask(eval_log, pref_k))
    _rank_in_blocks(score_block, train.n_items, tasks)
    out = click.result(collect_per_user)
    if pref_k is not None:
        out["pref"] = tasks[1].result(collect_per_user)
    return out


def preference_prediction_eval(
    score_block,
    eval_log: InteractionLog,
    k: int = 3,
    collect_per_user: bool = False,
) -> dict:
    """Rank each user's rated held-out items; positives are top-rated ones.

    Users whose rated items are all positive or all negative carry no
    within-user ranking signal and are skipped. When an item was rated more
    than once in the held-out window, the latest rating stands. Precision
    keeps the fixed denominator k even for users with fewer than k items.
    """
    task = _PreferenceTask(eval_log, k)
    _rank_in_blocks(score_block, eval_log.n_items, [task])
    return task.result(collect_per_user)


def combine_report(
    method: str,
    mode: str,
    click: dict | None,
    pref: dict | None,
    k_click: int = 20,
    k_pref: int = 3,
) -> EvalReport:
    report = EvalReport(method=method, mode=mode, k_click=k_click, k_pref=k_pref)
    if click is not None:
        report.cp_rec = click["recall"]
        report.cp_pre = click["precision"]
        report.cp_ndcg = click["ndcg"]
        report.n_users_click = click["n_users"]
        report.n_skipped_click = click["n_skipped"]
        if "per_user" in click:
            report.per_user["click"] = click["per_user"]
    if pref is not None:
        report.pp_rec = pref["recall"]
        report.pp_pre = pref["precision"]
        report.n_users_pref = pref["n_users"]
        report.n_skipped_pref = pref["n_skipped"]
        if "per_user" in pref:
            report.per_user["pref"] = pref["per_user"]
    return report
