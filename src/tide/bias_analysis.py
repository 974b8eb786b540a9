"""Log-level diagnostics separating the two faces of popularity.

Two observations motivate the model and are reproduced here as data, not
figures: (1) more-popular items tend to have higher average ratings, so part
of popularity reflects quality; (2) per item, the rating given at a click is
often negatively correlated with the item's instantaneous popularity at that
moment, the footprint of conformity-driven clicks by users who then turn out
to be disappointed. A third analysis checks that a fitted quality parameter
orders items by average rating better than raw popularity does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import InteractionLog, ItemTimeline

HALF_YEAR_SECONDS = 15_768_000  # 182.5 days
WEEK_SECONDS = 604_800


@dataclass(frozen=True)
class BucketReport:
    """Per-bucket mean of item average ratings; empty buckets stay None."""

    n_buckets: int
    bucket_bounds: list
    avg_rating: list
    item_counts: list

    def centers(self) -> np.ndarray:
        bounds = np.asarray(self.bucket_bounds)
        return (bounds[:-1] + bounds[1:]) / 2.0

    def occupied(self) -> tuple[np.ndarray, np.ndarray]:
        """(bucket centers, mean AR) over non-empty buckets."""
        keep = [k for k, v in enumerate(self.avg_rating) if v is not None]
        return self.centers()[keep], np.array([self.avg_rating[k] for k in keep])


@dataclass(frozen=True)
class CorrReport:
    """Per-item rating vs instant-popularity correlations with a p-screen."""

    items: np.ndarray
    n: np.ndarray
    r: np.ndarray
    p: np.ndarray
    retained: np.ndarray
    p_threshold: float
    t_o: int
    weekly: bool

    def retained_r(self) -> np.ndarray:
        return self.r[self.retained]

    def negative_fraction(self) -> float | None:
        kept = self.retained_r()
        if kept.size == 0:
            return None
        return float(np.mean(kept < 0))

    def histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        counts, edges = np.histogram(self.retained_r(), bins=bins, range=(-1.0, 1.0))
        return counts, edges


def pearson(x, y) -> float | None:
    """Sample Pearson r; None when either side is constant (max == min)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if x.size < 2:
        raise ValueError("pearson needs at least 2 points")
    r = float(_pearson_rows(x[None, :], y[None, :])[0])
    return None if math.isnan(r) else r


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of each row of x with the same row of y; NaN where either row is constant.

    Rows are centred on their means and reduced by stacked matmul, which runs
    the same dot product per row as ``@`` on that row alone, so a row's r
    does not depend on what it is stacked with.
    """
    vx = x - x.mean(axis=1, keepdims=True)
    vy = y - y.mean(axis=1, keepdims=True)
    sxy, sxx, syy = (np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0] for a, b in ((vx, vy), (vx, vx), (vy, vy)))
    constant = (x.max(axis=1) == x.min(axis=1)) | (y.max(axis=1) == y.min(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(constant, np.nan, np.clip(sxy / (np.sqrt(sxx) * np.sqrt(syy)), -1.0, 1.0))


def _runs_by_length(starts: np.ndarray, size: int):
    """Group the runs ``starts[g]:starts[g + 1]`` (the last ends at ``size``) by length m.

    Yields each length's run indices and their (runs, m) row indices: one Python step per length.
    """
    n = np.diff(np.append(starts, size))
    for m in np.unique(n):
        runs = np.flatnonzero(n == m)
        yield runs, starts[runs, None] + np.arange(m)


def kendall_tau(a, b) -> float | None:
    """Tie-corrected (tau-b) rank correlation; None if either side is all ties."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("kendall_tau needs two equal-length vectors")
    if a.size < 2:
        raise ValueError("kendall_tau needs at least 2 points")
    from scipy import stats  # the slowest scipy import: only analyze with a checkpoint pays for it

    tau = stats.kendalltau(a, b).statistic
    if np.isnan(tau):
        return None
    return float(tau)


def corr_p_values(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Two-sided p of each Pearson r via the t statistic with n - 2 dof, from one t-tail call.

    ``stdtr(df, -t)`` is the upper tail ``stats.t.sf(t, df)``, bit for bit, and
    ``scipy.special`` imports in a fraction of ``scipy.stats``' time.
    """
    from scipy import special

    r = np.asarray(r, dtype=np.float64)
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 3):
        raise ValueError("p-value needs n >= 3")
    perfect = np.abs(r) >= 1.0
    rr = np.where(perfect, 0.0, r)
    t = np.abs(rr) * np.sqrt((n - 2) / (1.0 - rr * rr))
    return np.where(perfect, 0.0, 2.0 * special.stdtr(n - 2, -t))


def item_stats(log: InteractionLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(popularity, average rating, rated-interaction count) per item id.

    Popularity counts every interaction; the average rating uses only rated
    ones and is NaN for items never rated.
    """
    pop = np.bincount(log.items, minlength=log.n_items)
    rated = ~np.isnan(log.ratings)
    n_rated = np.bincount(log.items[rated], minlength=log.n_items)
    rating_sum = np.bincount(log.items[rated], weights=log.ratings[rated], minlength=log.n_items)
    with np.errstate(invalid="ignore"):
        ar = np.where(n_rated > 0, rating_sum / np.maximum(n_rated, 1), np.nan)
    return pop, ar, n_rated


def _bucketize(values: np.ndarray, avg_rating: np.ndarray, n_buckets: int) -> BucketReport:
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo
    if span == 0.0:
        idx = np.zeros(values.size, dtype=np.int64)
    else:
        idx = np.minimum(((values - lo) / span * n_buckets).astype(np.int64), n_buckets - 1)
    bounds = [lo + span * k / n_buckets for k in range(n_buckets + 1)]
    means: list = []
    counts: list = []
    for b in range(n_buckets):
        sel = idx == b
        counts.append(int(sel.sum()))
        means.append(float(avg_rating[sel].mean()) if sel.any() else None)
    return BucketReport(n_buckets=n_buckets, bucket_bounds=bounds, avg_rating=means, item_counts=counts)


def popularity_buckets(log: InteractionLog, n_buckets: int = 30) -> BucketReport:
    """Mean item average-rating per uniform popularity bucket."""
    pop, ar, n_rated = item_stats(log)
    sel = n_rated > 0
    if not sel.any():
        raise ValueError("no rated interactions to bucket")
    return _bucketize(pop[sel].astype(np.float64), ar[sel], n_buckets)


def quality_buckets(quality: np.ndarray, log: InteractionLog, n_buckets: int = 30) -> BucketReport:
    """Mean item average-rating per uniform bucket of the per-item quality vector."""
    q = np.asarray(quality, dtype=np.float64)
    _, ar, n_rated = item_stats(log)
    if q.size != log.n_items:
        raise ValueError("quality vector length does not match item count")
    sel = n_rated > 0
    if not sel.any():
        raise ValueError("no rated interactions to bucket")
    return _bucketize(q[sel], ar[sel], n_buckets)


def instant_popularities(log: InteractionLog, t_o: int = HALF_YEAR_SECONDS) -> np.ndarray:
    """Per click of the log, the clicks on its item with time in [t - t_o, t), t the click's time."""
    if t_o <= 0:
        raise ValueError("t_o must be positive")
    timeline = ItemTimeline(log.items, log.times, log.n_items)
    return timeline.before(log.items, log.times) - timeline.before(log.items, log.times - t_o)


def per_item_rating_instant_pop_corr(
    log: InteractionLog,
    t_o: int = HALF_YEAR_SECONDS,
    p_threshold: float = 0.2,
    min_ratings: int = 3,
    weekly_aggregate: bool = False,
) -> CorrReport:
    """Correlate each rated click's rating with the item's popularity right then.

    Items need at least ``min_ratings`` rated interactions and neither side
    constant; the rest get screened by the two-sided p-value.
    With ``weekly_aggregate`` both series are first averaged inside calendar
    weeks (anchored at the log's first click) before correlating.
    """
    window = instant_popularities(log, t_o).astype(np.float64)
    rated = np.flatnonzero(~np.isnan(log.ratings))
    # rated rows grouped by item; stable, so each item's rows keep log (time) order
    rows = rated[np.argsort(log.items[rated], kind="stable")]
    items, xs, ys = log.items[rows], window[rows], log.ratings[rows]
    if weekly_aggregate:
        week = (log.times[rows] - (log.t_min if len(log) else 0)) // WEEK_SECONDS
        starts = np.flatnonzero(np.diff(items, prepend=-1) | np.diff(week, prepend=-1))
        x_week, y_week = np.empty(starts.size), np.empty(starts.size)
        for runs, idx in _runs_by_length(starts, items.size):
            x_week[runs], y_week[runs] = xs[idx].mean(axis=1), ys[idx].mean(axis=1)
        items, xs, ys = items[starts], x_week, y_week
    starts = np.flatnonzero(np.diff(items, prepend=-1))
    n, r = np.diff(np.append(starts, items.size)), np.full(starts.size, np.nan)
    for runs, idx in _runs_by_length(starts, items.size):
        if idx.shape[1] >= min_ratings:
            r[runs] = _pearson_rows(xs[idx], ys[idx])
    keep = ~np.isnan(r)
    r_arr, n_arr = r[keep], n[keep]
    p_arr = corr_p_values(r_arr, n_arr)
    return CorrReport(
        items=items[starts[keep]],
        n=n_arr,
        r=r_arr,
        p=p_arr,
        retained=p_arr <= p_threshold,
        p_threshold=p_threshold,
        t_o=int(t_o),
        weekly=weekly_aggregate,
    )


def quality_rating_rcc(quality: np.ndarray, log: InteractionLog) -> tuple[float | None, float | None]:
    """(tau(quality, AR), tau(popularity, AR)) over items carrying ratings."""
    q = np.asarray(quality, dtype=np.float64)
    pop, ar, n_rated = item_stats(log)
    if q.size != log.n_items:
        raise ValueError("quality vector length does not match item count")
    sel = n_rated > 0
    if sel.sum() < 2:
        raise ValueError("need at least 2 rated items")
    return (
        kendall_tau(q[sel], ar[sel]),
        kendall_tau(pop[sel].astype(np.float64), ar[sel]),
    )
