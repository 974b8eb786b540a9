"""Popularity tables and the MF/IPS/PD/PDA scoring rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tide.baselines import (
    PopularityTable,
    ips_instance_weights,
    ips_weights_raw,
    pda_coefficient,
)
from tide.dataset import InteractionLog, chrono_split, part_assignments
from tide.model import MATCHING_ONLY, TideModel
from tide.numerics import elu_plus_one
from tide.trainer import make_scorer

# the hyperparameter values the paper's baseline grids sweep
PDA_GAMMA_GRID = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)
IPS_CAP_GRID = (10.0, 30.0, 100.0)


def make_log(seed=0, n=500, n_users=20, n_items=12, span=1000):
    rng = np.random.default_rng(seed)
    return InteractionLog.build(
        users=rng.integers(0, n_users, n),
        items=rng.integers(0, n_items, n),
        times=rng.integers(0, span, n),
        n_users=n_users,
        n_items=n_items,
    )


def test_table_periods_sum_to_global():
    log = make_log()
    table = PopularityTable.from_train(log, int(log.t_min), int(log.t_max), 10)
    assert np.array_equal(table.per_period.sum(axis=0), np.bincount(log.items, minlength=log.n_items))


def test_table_periods_follow_part_assignments():
    log = make_log(1)
    parts = 10
    table = PopularityTable.from_train(log, int(log.t_min), int(log.t_max), parts)
    periods = part_assignments(log.times, int(log.t_min), int(log.t_max), parts)
    for p in range(parts):
        want = np.bincount(log.items[periods == p], minlength=log.n_items)
        assert np.array_equal(table.per_period[p], want)


def test_table_from_split_uses_split_boundaries():
    log = make_log(2, n=2000)
    split = chrono_split(log, parts=10, split_seed=0)
    table = PopularityTable.from_split(split)
    assert table.parts == 10
    assert (table.t_min, table.t_max) == (int(split.boundaries[0]), int(split.boundaries[-1]))
    # training records live in parts 0..8, so the final period stays empty
    assert table.per_period[9].sum() == 0
    assert table.per_period.sum() == len(split.train)


def test_normalized_divides_by_period_max():
    per = np.array([[4, 2, 0], [0, 0, 0]])
    table = PopularityTable(per_period=per, t_min=0, t_max=2)
    assert np.allclose(table.query([0, 1, 2], [0, 0, 0]), [1.0, 0.5, 0.0])
    # an empty period normalizes to all zeros instead of dividing by zero
    assert np.allclose(table.query([0, 1, 2], [1, 1, 1]), [0.0, 0.0, 0.0])


def test_query_at_the_training_end_skips_final_and_empty_periods():
    per = np.array([[3, 1], [2, 4], [0, 0], [5, 5]])
    table = PopularityTable(per_period=per, t_min=0, t_max=40)
    # the last training record at t = 19 sits in part 1; part 2 is empty and
    # part 3 is the held-out window, so the time reads part 1
    assert np.allclose(table.query([0, 1], [19, 19]), [0.5, 1.0])


def test_query_rejects_a_time_before_the_table_starts():
    table = PopularityTable(per_period=np.array([[1, 2], [3, 4]]), t_min=10, t_max=20)
    assert np.allclose(table.query([0, 1], [10, 25]), [0.5, 1.0])
    with pytest.raises(ValueError, match="time 9 precedes"):
        table.query([0, 1], [12, 9])


@st.composite
def logs_and_queries(draw):
    """A random training log, the split's time range and parts, and (item, time) queries in that range."""
    n_items = draw(st.integers(1, 6))
    parts = draw(st.integers(2, 6))
    t_min = draw(st.integers(0, 50))
    t_max = t_min + draw(st.integers(0, 60))
    n = draw(st.integers(1, 40))
    items = draw(st.lists(st.integers(0, n_items - 1), min_size=n, max_size=n))
    times = draw(st.lists(st.integers(t_min, t_max), min_size=n, max_size=n))
    m = draw(st.integers(1, 20))
    q_items = draw(st.lists(st.integers(0, n_items - 1), min_size=m, max_size=m))
    q_times = draw(st.lists(st.integers(t_min, t_max + 10), min_size=m, max_size=m))
    log = InteractionLog.build([0] * n, items, times, None, 1, n_items)
    return log, t_min, t_max, parts, q_items, q_times


@settings(max_examples=200, deadline=None)
@given(logs_and_queries())
def test_query_matches_a_brute_force_count(case):
    log, t_min, t_max, parts, q_items, q_times = case
    span = t_max - t_min

    def part_of(t):
        # part k holds [t_min + k * span / parts, t_min + (k + 1) * span / parts); the last part is closed
        if span == 0:
            return parts - 1
        return max(k for k in range(parts) if k * span <= (t - t_min) * parts)

    table = PopularityTable.from_train(log, t_min, t_max, parts)
    got = table.query(q_items, q_times)
    for value, item, t in zip(got, q_items, q_times):
        in_part = [i for i, ti in zip(log.items.tolist(), log.times.tolist()) if part_of(ti) == part_of(t)]
        top = max((in_part.count(i) for i in in_part), default=0)
        assert value == (in_part.count(item) / top if top else 0.0)


def test_pda_serves_the_latest_populated_training_part():
    # no click falls in part 8, just before the held-out part 9, so serving
    # at the last training time reads part 7
    rng = np.random.default_rng(8)
    n, n_items = 3000, 12
    times = rng.integers(0, 10_000, n)
    times = times[(times < 8_000) | (times >= 9_000)]
    log = InteractionLog.build(
        rng.integers(0, 30, times.size), rng.integers(0, n_items, times.size), times, None, 30, n_items
    )
    with pytest.warns(UserWarning, match=r"empty time parts: \[8\]"):
        split = chrono_split(log, parts=10, split_seed=0)
    table = PopularityTable.from_split(split)
    part7 = np.bincount(split.train.items[split.train.times >= 7_000], minlength=n_items)
    want = part7 / part7.max()
    model = TideModel.init(4, n_items, 3, seed=8, init_std=0.5)
    gamma = 0.2
    [got] = make_scorer(model, "pda", MATCHING_ONLY, t_eval=split.train.t_max, table=table, gamma=gamma)(np.arange(4))
    assert np.array_equal(got, pda_coefficient(want, gamma) * elu_plus_one(model.user_emb @ model.item_emb.T))
    with pytest.raises(ValueError, match="t_eval"):
        make_scorer(model, "pda", MATCHING_ONLY, table=table, gamma=gamma)


def test_ips_weights_formula_and_cap():
    counts = np.array([10, 1, 0, 89])
    raw = ips_weights_raw(counts, cap=30.0)
    total = 100.0
    assert np.allclose(raw, [total / 10, 30.0, 30.0, total / 89])
    with pytest.raises(ValueError):
        ips_weights_raw(counts, cap=0.0)


def test_ips_instance_weights_have_mean_one():
    log = make_log(4)
    for cap in IPS_CAP_GRID:
        w = ips_instance_weights(log, cap)
        assert w.shape == (len(log),)
        assert abs(w.mean() - 1.0) < 1e-12
        assert (w > 0).all()
    # rarer items never weigh less than more popular ones
    counts = np.bincount(log.items, minlength=log.n_items)
    w = ips_instance_weights(log, 1e9)
    rare = w[counts[log.items] == counts[counts > 0].min()]
    common = w[counts[log.items] == counts.max()]
    assert rare.min() >= common.max()


def pda_scores(gamma, seed):
    """pda's served rows for every user of a random model on a random split, with their m and popularity."""
    split = chrono_split(make_log(seed), parts=4, split_seed=0)
    table = PopularityTable.from_split(split)
    n_items = split.train.n_items
    model = TideModel.init(split.train.n_users, n_items, 4, seed=seed, init_std=0.8)
    pop = table.query(np.arange(n_items), split.train.t_max)
    scorer = make_scorer(model, "pda", MATCHING_ONLY, t_eval=split.train.t_max, table=table, gamma=gamma)
    [scores] = scorer(np.arange(model.n_users))
    return scores, model.user_emb @ model.item_emb.T, pop


def test_pda_scores_match_hand_formula():
    for gamma in PDA_GAMMA_GRID:
        got, m, pop = pda_scores(gamma, seed=5)
        assert np.allclose(got, pop**gamma * elu_plus_one(m), rtol=1e-15)
    with pytest.raises(ValueError):
        pda_coefficient(pop, 1.5)


def test_pd_infer_is_popularity_free_and_rank_preserving():
    model = TideModel.init(5, 50, 4, seed=6, init_std=0.5)
    [got] = make_scorer(model, "pd", MATCHING_ONLY)(np.arange(5))
    m = model.user_emb @ model.item_emb.T
    assert np.allclose(got, elu_plus_one(m), rtol=1e-15)
    assert (got > 0).all()
    assert np.array_equal(np.argsort(got, axis=1), np.argsort(m, axis=1))


def test_gamma_zero_reduces_pda_to_pd():
    got, m, _ = pda_scores(0.0, seed=7)
    assert np.array_equal(got, elu_plus_one(m))
