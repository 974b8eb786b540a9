"""Popularity tables and the MF/IPS/PD/PDA scoring rules."""

import numpy as np
import pytest

from tide.baselines import (
    PopularityTable,
    ips_instance_weights,
    ips_weights_raw,
    pda_coefficient,
    pda_infer,
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
    assert np.array_equal(table.per_period.sum(axis=0), table.global_counts)
    assert np.array_equal(table.global_counts, np.bincount(log.items, minlength=log.n_items))


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
    # training records live in parts 0..8, so the final period stays empty
    assert table.per_period[9].sum() == 0
    assert table.global_counts.sum() == len(split.train)


def test_table_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        PopularityTable(
            global_counts=np.array([1, 2]),
            per_period=np.zeros((3, 3), dtype=np.int64),
            parts=3,
        )
    with pytest.raises(ValueError, match="sum"):
        PopularityTable(
            global_counts=np.array([1, 2]),
            per_period=np.zeros((3, 2), dtype=np.int64),
            parts=3,
        )


def test_normalized_divides_by_period_max():
    per = np.array([[4, 2, 0], [0, 0, 0]])
    table = PopularityTable(global_counts=per.sum(axis=0), per_period=per, parts=2)
    assert np.allclose(table.normalized(0), [1.0, 0.5, 0.0])
    # an empty period normalizes to all zeros instead of dividing by zero
    assert np.allclose(table.normalized(1), [0.0, 0.0, 0.0])


def test_last_train_normalized_skips_final_and_empty_periods():
    per = np.array([[3, 1], [2, 4], [0, 0], [5, 5]])
    table = PopularityTable(global_counts=per.sum(axis=0), per_period=per, parts=4)
    # part 3 is the held-out window and part 2 is empty: fall back to part 1
    assert np.allclose(table.last_train_normalized(), [0.5, 1.0])


def test_last_train_normalized_errors_when_all_empty():
    per = np.zeros((3, 2), dtype=np.int64)
    table = PopularityTable(global_counts=per.sum(axis=0), per_period=per, parts=3)
    with pytest.raises(ValueError, match="no populated"):
        table.last_train_normalized()


def test_ips_weights_formula_and_cap():
    counts = np.array([10, 1, 0, 89])
    per = counts[None, :]
    table = PopularityTable(global_counts=counts, per_period=per, parts=1)
    raw = ips_weights_raw(table, cap=30.0)
    total = 100.0
    assert np.allclose(raw, [total / 10, 30.0, 30.0, total / 89])
    with pytest.raises(ValueError):
        ips_weights_raw(table, cap=0.0)


def test_ips_instance_weights_have_mean_one():
    log = make_log(4)
    table = PopularityTable.from_train(log, int(log.t_min), int(log.t_max), 10)
    for cap in IPS_CAP_GRID:
        w = ips_instance_weights(log, table, cap)
        assert w.shape == (len(log),)
        assert abs(w.mean() - 1.0) < 1e-12
        assert (w > 0).all()
    # rarer items never weigh less than more popular ones
    counts = table.global_counts
    w = ips_instance_weights(log, table, 1e9)
    rare = w[counts[log.items] == counts[counts > 0].min()]
    common = w[counts[log.items] == counts.max()]
    assert rare.min() >= common.max()


def test_pda_scores_match_hand_formula():
    rng = np.random.default_rng(5)
    m = rng.normal(size=20)
    pop = rng.uniform(0.0, 1.0, 20)
    for gamma in PDA_GAMMA_GRID:
        got = pda_infer(m, pda_coefficient(pop, gamma))
        assert np.allclose(got, pop**gamma * elu_plus_one(m), rtol=1e-15)
    with pytest.raises(ValueError):
        pda_coefficient(pop, 1.5)


def test_pd_infer_is_popularity_free_and_rank_preserving():
    model = TideModel.init(5, 50, 4, seed=6, init_std=0.5)
    got = make_scorer(model, "pd", MATCHING_ONLY)(np.arange(5))
    m = model.user_emb @ model.item_emb.T
    assert np.allclose(got, elu_plus_one(m), rtol=1e-15)
    assert (got > 0).all()
    assert np.array_equal(np.argsort(got, axis=1), np.argsort(m, axis=1))


def test_gamma_zero_reduces_pda_to_pd():
    rng = np.random.default_rng(7)
    m = rng.normal(size=30)
    pop = rng.uniform(0.001, 1.0, 30)
    assert np.allclose(pda_infer(m, pda_coefficient(pop, 0.0)), elu_plus_one(m), rtol=1e-15)
