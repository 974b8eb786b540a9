"""Correlation statistics and popularity/quality diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tide.bias_analysis import (
    HALF_YEAR_SECONDS,
    WEEK_SECONDS,
    corr_p_value,
    corr_p_values,
    instant_popularities,
    instant_popularity,
    item_stats,
    kendall_tau,
    pearson,
    per_item_rating_instant_pop_corr,
    popularity_buckets,
    quality_buckets,
    quality_rating_rcc,
)
from tide.dataset import InteractionLog


def brute_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(sum((b - my) ** 2 for b in y))
    return num / den


def brute_kendall_tau_b(a, b):
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif da * db > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0.0:
        return None
    return (concordant - discordant) / denom


def student_t_sf(x, df):
    """Closed-form survival function of the t distribution for df in {1,2,3}."""
    if df == 1:
        return 0.5 - math.atan(x) / math.pi
    if df == 2:
        return 0.5 * (1.0 - x / math.sqrt(2.0 + x * x))
    if df == 3:
        z = x / math.sqrt(3.0)
        return 0.5 - (math.atan(z) + z / (1.0 + z * z)) / math.pi
    raise ValueError("closed form implemented for df in {1, 2, 3}")


def test_pearson_closed_form_half():
    # x = [1,2,3], y = [1,3,2]: cov = 1, var_x = var_y = 2, r = 1/2
    x = [1.0, 2.0, 3.0]
    y = [1.0, 3.0, 2.0]
    assert pearson(x, y) == pytest.approx(0.5, abs=1e-15)
    assert pearson(x, y) == pytest.approx(brute_pearson(x, y), abs=1e-15)


def test_pearson_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        x = rng.integers(0, 5, n).astype(float)
        y = rng.integers(0, 5, n).astype(float)
        got = pearson(x, y)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            assert got is None
            continue
        assert got == pytest.approx(brute_pearson(list(x), list(y)), abs=1e-12)


def test_pearson_edge_cases():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    # constant but not exactly centred: the mean of three 0.1s is not 0.1
    assert pearson([0.1] * 3, [1.0, 2.0, 3.0]) is None
    assert pearson([1.0, 2.0, 3.0], [10 / 3] * 3) is None
    assert pearson([1.0, 2.0], [5.0, 7.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_kendall_tau_exact_small_case():
    # rankings [1,2,3] vs [1,3,2]: 2 concordant, 1 discordant -> 1/3
    assert kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_kendall_tau_matches_pair_counting_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        a = rng.integers(0, 4, n).astype(float)
        b = rng.integers(0, 4, n).astype(float)
        want = brute_kendall_tau_b(list(a), list(b))
        got = kendall_tau(a, b)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_kendall_tau_perfect_orders():
    a = np.arange(8, dtype=float)
    assert kendall_tau(a, a) == pytest.approx(1.0)
    assert kendall_tau(a, -a) == pytest.approx(-1.0)
    assert kendall_tau([2.0, 2.0, 2.0], [1.0, 5.0, 3.0]) is None


def test_corr_p_value_against_closed_form_t_tails():
    for n in (3, 4, 5):
        for r in (-0.97, -0.5, 0.0, 0.3, 0.9):
            t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
            want = 2.0 * student_t_sf(t, n - 2)
            assert corr_p_value(r, n) == pytest.approx(want, abs=1e-12)
    assert corr_p_value(1.0, 5) == 0.0
    assert corr_p_value(-1.0, 5) == 0.0
    assert corr_p_value(0.0, 10) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        corr_p_value(0.5, 2)


def test_vectorized_p_values_equal_the_scalar_ones_bit_for_bit():
    r = np.array([-1.0, -0.97, -0.5, 0.0, 0.3, 0.9, 1.0, 0.999999, -1e-12])
    n = np.array([5, 3, 4, 10, 3, 7, 3, 50, 1000])
    got = corr_p_values(r, n)
    assert got.tolist() == [corr_p_value(ri, ni) for ri, ni in zip(r.tolist(), n.tolist())]
    assert corr_p_values(np.zeros(0), np.zeros(0, dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError):
        corr_p_values(np.array([0.5, 0.5]), np.array([3, 2]))

    # the per-item scan's p column is the scalar p of each item's r and n
    rng = np.random.default_rng(5)
    m = 3000
    log = InteractionLog.build(
        rng.integers(0, 50, m), rng.integers(0, 120, m), np.sort(rng.integers(0, 60 * WEEK_SECONDS, m)),
        rng.integers(1, 6, m).astype(float), 50, 120,
    )
    for weekly in (False, True):
        rep = per_item_rating_instant_pop_corr(log, t_o=4 * WEEK_SECONDS, p_threshold=1.0, weekly_aggregate=weekly)
        assert rep.items.size > 50
        want = [corr_p_value(ri, ni) for ri, ni in zip(rep.r.tolist(), rep.n.tolist())]
        assert rep.p.tolist() == want


def test_item_stats_counts_and_averages():
    log = InteractionLog.build(
        users=[0, 1, 2, 0, 1],
        items=[0, 0, 0, 1, 2],
        times=[1, 2, 3, 4, 5],
        ratings=[4.0, 2.0, np.nan, 5.0, np.nan],
        n_users=3,
        n_items=4,
    )
    pop, ar, n_rated = item_stats(log)
    assert pop.tolist() == [3, 1, 1, 0]
    assert n_rated.tolist() == [2, 1, 0, 0]
    assert ar[0] == pytest.approx(3.0)
    assert ar[1] == pytest.approx(5.0)
    assert np.isnan(ar[2]) and np.isnan(ar[3])


def test_instant_popularity_window_is_half_open():
    log = InteractionLog.build(
        users=[0, 0, 0, 0],
        items=[0, 0, 0, 0],
        times=[100, 150, 200, 260],
        n_users=1,
        n_items=1,
    )
    # window [t - 100, t): click at t excluded, click at exactly t - 100 included
    assert instant_popularity(log, 0, 200, t_o=100) == 2
    assert instant_popularity(log, 0, 201, t_o=100) == 2
    assert instant_popularity(log, 0, 100, t_o=100) == 0
    assert instant_popularity(log, 0, 10**9, t_o=100) == 0
    with pytest.raises(ValueError):
        instant_popularity(log, 0, 200, t_o=0)


@settings(deadline=None, max_examples=100)
@given(
    clicks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 60)), min_size=1, max_size=40),
    t_o=st.integers(1, 70),
)
def test_vectorized_window_counts_equal_instant_popularity(clicks, t_o):
    items, times = zip(*clicks)
    log = InteractionLog.build(np.zeros(len(items)), items, times, n_users=1, n_items=5)
    counts = instant_popularities(log, t_o)
    for k in range(len(log)):
        assert counts[k] == instant_popularity(log, int(log.items[k]), int(log.times[k]), t_o)


def test_default_window_is_half_a_year():
    assert HALF_YEAR_SECONDS == 15_768_000
    assert WEEK_SECONDS == 7 * 24 * 3600


def test_popularity_buckets_structure_and_means():
    # two items, popularities 1 and 3, ratings 2 and 4
    log = InteractionLog.build(
        users=[0, 0, 1, 2],
        items=[0, 1, 1, 1],
        times=[1, 2, 3, 4],
        ratings=[2.0, 4.0, 4.0, 4.0],
        n_users=3,
        n_items=2,
    )
    rep = popularity_buckets(log, n_buckets=4)
    assert rep.n_buckets == 4
    assert len(rep.bucket_bounds) == 5
    assert rep.bucket_bounds[0] == 1.0 and rep.bucket_bounds[-1] == 3.0
    # popularity 1 lands in bucket 0, popularity 3 clamps into bucket 3
    assert rep.item_counts == [1, 0, 0, 1]
    assert rep.avg_rating[0] == pytest.approx(2.0)
    assert rep.avg_rating[1] is None and rep.avg_rating[2] is None
    assert rep.avg_rating[3] == pytest.approx(4.0)
    centers, means = rep.occupied()
    assert len(centers) == 2
    assert means.tolist() == [2.0, 4.0]


def test_buckets_degenerate_single_popularity():
    log = InteractionLog.build([0, 1], [0, 1], [1, 2], [3.0, 5.0], 2, 2)
    rep = popularity_buckets(log, n_buckets=5)
    assert rep.item_counts[0] == 2
    assert rep.avg_rating[0] == pytest.approx(4.0)


def test_quality_buckets_bin_items_by_the_quality_vector():
    log = InteractionLog.build([0, 1], [0, 1], [1, 2], [3.0, 5.0], 2, 2)
    rep = quality_buckets(np.array([1.0, 2.0]), log, n_buckets=2)
    assert rep.avg_rating[0] == pytest.approx(3.0)
    assert rep.avg_rating[-1] == pytest.approx(5.0)
    with pytest.raises(ValueError, match="length"):
        quality_buckets(np.array([1.0]), log)


def test_per_item_corr_negative_when_ratings_drop_with_popularity():
    # item 0: ratings fall exactly when the trailing window count rises
    times = [0, 100, 110, 120, 300, 500]
    counts_at = []
    log = InteractionLog.build(
        users=[0, 1, 2, 3, 4, 5],
        items=[0] * 6,
        times=times,
        ratings=[5.0, 4.0, 3.0, 2.0, 5.0, 5.0],
        n_users=6,
        n_items=1,
    )
    rep = per_item_rating_instant_pop_corr(log, t_o=100, p_threshold=1.0, min_ratings=3)
    assert rep.items.tolist() == [0]
    # windows: [0,1,2,3,(300:count 1 at 120? no: [200,300) none -> 0),...]
    xs = [instant_popularity(log, 0, t, 100) for t in times]
    want = brute_pearson(xs, [5.0, 4.0, 3.0, 2.0, 5.0, 5.0])
    assert rep.r[0] == pytest.approx(want, abs=1e-12)
    assert rep.n[0] == 6


def test_per_item_corr_respects_min_ratings_and_variance():
    log = InteractionLog.build(
        users=[0, 1, 0, 1, 2],
        items=[0, 0, 1, 1, 1],
        times=[10, 20, 10, 20, 30],
        ratings=[4.0, 5.0, 3.0, 3.0, 3.0],
        n_users=3,
        n_items=2,
    )
    rep = per_item_rating_instant_pop_corr(log, t_o=100, p_threshold=1.0, min_ratings=3)
    # item 0 has two ratings (below min), item 1 has zero rating variance
    assert rep.items.size == 0
    assert rep.negative_fraction() is None


def test_per_item_corr_p_screen_filters():
    rng = np.random.default_rng(2)
    n = 40
    times = np.sort(rng.integers(0, 10_000, n))
    ratings = rng.integers(1, 6, n).astype(float)
    log = InteractionLog.build(np.arange(n) % 7, np.zeros(n, dtype=int), times, ratings, 7, 1)
    loose = per_item_rating_instant_pop_corr(log, t_o=1000, p_threshold=1.0, min_ratings=3)
    tight = per_item_rating_instant_pop_corr(log, t_o=1000, p_threshold=1e-9, min_ratings=3)
    assert loose.retained.sum() >= tight.retained.sum()
    assert (loose.p >= 0).all() and (loose.p <= 1).all()


def loop_corr(log, t_o, min_ratings, weekly):
    """The per-item loop the grouped scan replaced: {item: (points, pearson r)}."""
    window = instant_popularities(log, t_o).astype(np.float64)
    out = {}
    for item in range(log.n_items):
        rows = np.flatnonzero((log.items == item) & ~np.isnan(log.ratings))
        xs, ys = window[rows], log.ratings[rows]
        if weekly:
            week = (log.times[rows] - log.t_min) // WEEK_SECONDS
            xs = np.array([xs[week == w].mean() for w in np.unique(week)])
            ys = np.array([ys[week == w].mean() for w in np.unique(week)])
        if xs.size >= min_ratings and (r := pearson(xs, ys)) is not None:
            out[item] = (xs.size, r)
    return out


@pytest.mark.parametrize("weekly", [False, True])
def test_grouped_scan_equals_the_per_item_pearson_loop(weekly):
    logs = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, n_items = int(rng.integers(1, 300)), int(rng.integers(1, 12))
        ratings = rng.integers(1, 11, n) / 2.0
        ratings[rng.random(n) < 0.1] = np.nan
        ratings[rng.integers(0, n_items, n) == 0] = 4.0  # some items rate one value
        logs.append(InteractionLog.build(
            rng.integers(0, 9, n), rng.integers(0, n_items, n), rng.integers(0, 8 * WEEK_SECONDS, n),
            ratings, 9, n_items,
        ))
    # seven weekly rating means of 10/3: constant, though their centred sum is not 0
    times = [w * WEEK_SECONDS + d for w in range(7) for d in (0, 1, 2)]
    constant_weeks = InteractionLog.build([0] * 21, [0] * 21, times, [3.0, 3.0, 4.0] * 7, 1, 1)
    assert per_item_rating_instant_pop_corr(constant_weeks, WEEK_SECONDS, 1.0, 3, True).items.size == 0
    logs.append(constant_weeks)
    for log in logs:
        for t_o, min_ratings in ((WEEK_SECONDS, 3), (3 * WEEK_SECONDS, 5)):
            rep = per_item_rating_instant_pop_corr(log, t_o, 1.0, min_ratings, weekly)
            want = loop_corr(log, t_o, min_ratings, weekly)
            assert rep.items.tolist() == sorted(want)
            assert rep.n.tolist() == [want[i][0] for i in sorted(want)]
            assert np.allclose(rep.r, [want[i][1] for i in sorted(want)], rtol=0, atol=1e-12)


def test_per_item_corr_weekly_aggregation_reduces_points():
    n = 30
    rng = np.random.default_rng(3)
    times = np.sort(rng.integers(0, 5 * WEEK_SECONDS, n))
    ratings = rng.integers(1, 6, n).astype(float)
    log = InteractionLog.build(np.arange(n) % 5, np.zeros(n, dtype=int), times, ratings, 5, 1)
    raw = per_item_rating_instant_pop_corr(log, p_threshold=1.0, min_ratings=3)
    weekly = per_item_rating_instant_pop_corr(log, p_threshold=1.0, min_ratings=3, weekly_aggregate=True)
    assert weekly.weekly and not raw.weekly
    if weekly.items.size and raw.items.size:
        assert weekly.n[0] <= raw.n[0]
        assert weekly.n[0] <= 5


def test_histogram_covers_unit_interval():
    rep = per_item_rating_instant_pop_corr(
        InteractionLog.build(
            users=[0, 1, 2, 3],
            items=[0, 0, 0, 0],
            times=[0, 10, 20, 30],
            ratings=[1.0, 2.0, 3.0, 4.0],
            n_users=4,
            n_items=1,
        ),
        t_o=15,
        p_threshold=1.0,
        min_ratings=3,
    )
    counts, edges = rep.histogram(bins=10)
    assert counts.sum() == rep.retained.sum()
    assert edges[0] == -1.0 and edges[-1] == 1.0


def test_quality_rating_rcc_orders_like_quality():
    # quality [0.5, 1.0, 2.0]; ratings track quality; popularity is inverted
    log = InteractionLog.build(
        users=[0, 1, 2, 3, 0, 1, 2, 0, 1],
        items=[0, 0, 0, 0, 1, 1, 1, 2, 2],
        times=list(range(9)),
        ratings=[2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 5.0, 5.0],
        n_users=4,
        n_items=3,
    )
    tau_q, tau_p = quality_rating_rcc(np.array([0.5, 1.0, 2.0]), log)
    assert tau_q == pytest.approx(1.0)
    assert tau_p == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="length"):
        quality_rating_rcc(np.array([1.0]), log)
