"""Scoring model, conformity index, inference modes, and checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tide.dataset import InteractionLog
from tide.model import (
    FULL,
    INTERVENED,
    MATCHING_ONLY,
    NO_CONFORMITY,
    NO_QUALITY,
    ConformityIndex,
    TideModel,
    fixed_quality,
    load_checkpoint,
    parse_mode,
    save_checkpoint,
)
from tide.numerics import inv_softplus, softplus


def naive_conformity(items, times, item, t, tau):
    mask = (np.asarray(items) == item) & (np.asarray(times) < t)
    return float(np.exp(-(t - np.asarray(times, dtype=float)[mask]) / tau).sum())


def test_index_prefix_example_two_clicks():
    # clicks tau apart give per-click sums [1, 1 + e^-1]
    idx = ConformityIndex(items=[0, 0], times=[100, 100 + 50], n_items=1, tau=50.0)
    assert np.allclose(idx.sums, [1.0, 1.0 + math.exp(-1.0)], rtol=1e-15)


def test_index_query_closed_forms():
    tau = 10.0
    idx = ConformityIndex(items=[0, 0], times=[100, 110], n_items=1, tau=tau)
    # one click exactly tau before t
    got = idx.query([0], [110])
    assert math.isclose(float(got[0]), math.exp(-1.0), rel_tol=1e-12)
    # clicks at t - tau and t - 2 tau
    got = idx.query([0], [120])
    want = math.exp(-1.0) + math.exp(-2.0)
    assert math.isclose(float(got[0]), want, rel_tol=1e-12)


def test_index_excludes_clicks_at_query_time():
    idx = ConformityIndex(items=[0, 0, 0], times=[5, 10, 10], n_items=1, tau=3.0)
    at10 = float(idx.query([0], [10])[0])
    assert math.isclose(at10, math.exp(-5.0 / 3.0), rel_tol=1e-12)
    just_after = float(idx.query([0], [11])[0])
    assert just_after > at10


def test_index_empty_item_and_early_query_return_zero():
    idx = ConformityIndex(items=[1], times=[50], n_items=3, tau=5.0)
    assert float(idx.query([0], [100])[0]) == 0.0
    assert float(idx.query([1], [50])[0]) == 0.0
    assert float(idx.query([1], [10])[0]) == 0.0


def test_index_matches_naive_summation_on_random_logs():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 300))
        n_items = int(rng.integers(1, 12))
        items = rng.integers(0, n_items, n)
        times = rng.integers(0, 5000, n)
        tau = float(rng.uniform(1.0, 2000.0))
        idx = ConformityIndex(items, times, n_items, tau)
        q_items = rng.integers(0, n_items, 50)
        q_times = rng.integers(-10, 6000, 50)
        got = idx.query(q_items, q_times)
        for i, t, g in zip(q_items, q_times, got):
            want = naive_conformity(items, times, int(i), int(t), tau)
            assert abs(g - want) <= 1e-9 * max(1.0, abs(want))


def test_index_survives_wide_exponent_spans():
    # many items, times spanning hundreds of decay constants: per-item sums
    # must not be contaminated by other items' far larger prefix weights
    rng = np.random.default_rng(1)
    n, n_items, horizon, tau = 5000, 40, 2_000_000, 3000.0
    items = rng.integers(0, n_items, n)
    times = rng.integers(0, horizon, n)
    idx = ConformityIndex(items, times, n_items, tau)
    q_items = rng.integers(0, n_items, 100)
    q_times = rng.integers(0, horizon, 100)
    got = idx.query(q_items, q_times)
    for i, t, g in zip(q_items, q_times, got):
        want = naive_conformity(items, times, int(i), int(t), tau)
        assert abs(g - want) <= 1e-9 * max(1.0, abs(want))


@st.composite
def click_logs(draw):
    """Clicks on a few items over spans up to 1e9 s, with repeated timestamps."""
    n_items = draw(st.integers(1, 5))
    span = draw(st.sampled_from([0, 10, 10**4, 10**7, 10**9]))
    n = draw(st.integers(0, 40))
    times = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    times += draw(st.lists(st.sampled_from(times), max_size=5)) if times else []
    items = draw(st.lists(st.integers(0, n_items - 1), min_size=len(times), max_size=len(times)))
    return items, times, n_items, span


@settings(deadline=None, max_examples=150)
@given(
    log=click_logs(),
    tau=st.floats(1.0, 1e12),
    offsets=st.lists(st.integers(-10**9, 2 * 10**9), min_size=1, max_size=10),
)
@example(log=([0, 0], [0, 10**9], 1, 10**9), tau=1.0, offsets=[10**9 + 1, 2 * 10**9])
@example(log=([1, 1, 1], [5, 5, 5], 3, 10), tau=1e12, offsets=[5, 6, 4])
@example(log=([0, 0], [0, 5], 1, 10), tau=1.0, offsets=[725])
def test_index_matches_the_naive_sum_for_any_span_and_tau(log, tau, offsets):
    # queries land before the first click, on clicks, between and after the last
    items, times, n_items, span = log
    idx = ConformityIndex(items, times, n_items, tau)
    q_times = list(offsets) + list(times)
    for i in range(n_items):
        got = idx.query(np.full(len(q_times), i), q_times)
        for t, g in zip(q_times, got):
            want = naive_conformity(items, times, i, t, tau)
            assert np.isfinite(g)
            # below the smallest normal float (~2.2e-308) only absolute precision is left
            assert abs(g - want) <= 1e-12 * want + 1e-300, (i, t, g, want)
        assert np.array_equal(idx.query_at(q_times[0])[i:i + 1], got[:1])


@settings(deadline=None, max_examples=100)
@given(log=click_logs(), offsets=st.lists(st.integers(-10**9, 2 * 10**9), max_size=10), seed=st.integers(0, 2**16))
def test_query_with_precomputed_ranks_equals_query(log, offsets, seed):
    # training ranks each row's time once, then queries it under every epoch's order
    items, times, n_items, span = log
    idx = ConformityIndex(items, times, n_items, tau=max(span, 1) / 3.0)
    q_times = np.array(list(offsets) + list(times), dtype=np.int64)
    rng = np.random.default_rng(seed)
    q_items = rng.integers(0, n_items, q_times.size)
    ranks = idx.timeline.ranks(q_times)
    assert idx.query(q_items, q_times, ranks).tobytes() == idx.query(q_items, q_times).tobytes()
    order = rng.permutation(q_times.size)
    got = idx.query(q_items, q_times[order], ranks[order])
    assert got.tobytes() == idx.query(q_items, q_times[order]).tobytes()


def test_query_rejects_ranks_of_another_shape():
    idx = ConformityIndex([0, 0], [1, 5], 1, tau=10.0)
    with pytest.raises(ValueError, match="ranks and times differ in shape"):
        idx.query([0, 0], [2, 6], np.array([1]))


def test_index_rejects_nonpositive_tau():
    with pytest.raises(ValueError, match="tau"):
        ConformityIndex(items=[0], times=[1], n_items=1, tau=0.0)


def test_query_at_agrees_with_pointwise_queries():
    rng = np.random.default_rng(2)
    items = rng.integers(0, 8, 200)
    times = rng.integers(0, 1000, 200)
    idx = ConformityIndex(items, times, 8, tau=37.0)
    for t in (0, 1, 500, 999, 1000, 2000):
        all_at = idx.query_at(t)
        each = idx.query(np.arange(8), np.full(8, t))
        assert np.array_equal(all_at, each)


def test_query_at_on_empty_index():
    idx = ConformityIndex(items=[], times=[], n_items=4, tau=10.0)
    assert np.array_equal(idx.query_at(100), np.zeros(4))


def make_model(seed=0, n_users=4, n_items=6, dim=3):
    return TideModel.init(n_users, n_items, dim, seed=seed, init_std=0.3, init_qb=0.2, tau=100.0)


def make_index(model, seed=3, n=60):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, model.n_items, n)
    times = rng.integers(0, 500, n)
    return ConformityIndex(items, times, model.n_items, model.tau)


def test_quality_and_conformity_scale_are_softplus_of_raw():
    m = make_model()
    assert np.allclose(m.quality, softplus(m.q_raw), rtol=1e-15)
    assert np.allclose(m.conformity_scale, softplus(m.beta_raw), rtol=1e-15)


def served(model, users, items, times, index, mode):
    """Each (user, item, time)'s entry of that user's score_all_items row at that time."""
    return np.array([
        model.score_all_items(u, t=t, index=index, mode=mode)[i] for u, i, t in zip(users, items, times)
    ])


def pairwise_forward(model, users, items, times, index, mode):
    """Tanh(a) * Softplus(m) per pair, from einsum matches and point conformity queries."""
    mm = np.einsum("ij,ij->i", model.user_emb[users], model.item_emb[items])
    raw = index.query(items, times) if mode.conformity else None
    a = mode.popularity_input(model.quality[items], model.conformity_scale[items], raw)
    return mm if a is None else np.tanh(a) * softplus(mm)


def test_matching_is_dot_product():
    m = make_model()
    u, i = 1, 4
    want = float(m.user_emb[u] @ m.item_emb[i])
    assert math.isclose(float(m.score_all_items(u, mode=MATCHING_ONLY)[i]), want, rel_tol=1e-12)


def test_score_mode_formulas_agree_with_hand_composition():
    m = make_model(seed=5)
    idx = make_index(m)
    users = np.array([0, 1, 2, 3])
    items = np.array([5, 0, 3, 2])
    times = np.array([100, 250, 400, 499])
    # a block row's @ and a pair's einsum may round differently
    mm = np.einsum("ij,ij->i", m.user_emb[users], m.item_emb[items])
    raw = idx.query(items, times)
    q = m.quality[items]
    c = m.conformity_scale[items] * raw

    full = served(m, users, items, times, idx, FULL)
    assert np.allclose(full, np.tanh(q + c) * softplus(mm), rtol=1e-12)

    inter = served(m, users, items, times, idx, INTERVENED)
    assert np.allclose(inter, np.tanh(q) * softplus(mm), rtol=1e-12)

    noc = served(m, users, items, times, idx, NO_CONFORMITY)
    assert np.array_equal(inter, noc)

    noq = served(m, users, items, times, idx, NO_QUALITY)
    assert np.allclose(noq, np.tanh(c) * softplus(mm), rtol=1e-12)

    match_only = served(m, users, items, times, idx, MATCHING_ONLY)
    assert np.allclose(match_only, mm, rtol=1e-12)

    fq = served(m, users, items, times, idx, fixed_quality(1.0))
    assert np.allclose(fq, math.tanh(1.0) * softplus(mm), rtol=1e-12)


def test_score_scalar_closed_form():
    # q = 1, c = 0, m = 0 scores tanh(1) * ln 2
    m = make_model()
    m.q_raw[:] = inv_softplus(np.ones(m.n_items))
    m.user_emb[:] = 0.0
    got = float(m.score_all_items(0, mode=INTERVENED)[0])
    assert math.isclose(got, math.tanh(1.0) * math.log(2.0), rel_tol=1e-12)


def test_history_modes_require_index():
    m = make_model()
    idx = make_index(m)
    for kwargs in ({}, {"index": idx}, {"t": 100}):
        with pytest.raises(ValueError, match="requires interaction history"):
            m.score_all_items(0, mode=FULL, **kwargs)
    with pytest.raises(ValueError, match="requires interaction history"):
        m.score_all_items(0, mode=NO_QUALITY)


def test_score_all_items_matches_the_pairwise_forward():
    m = make_model(seed=6)
    idx = make_index(m, seed=7)
    t = 321
    for mode in (FULL, INTERVENED, MATCHING_ONLY, NO_QUALITY, NO_CONFORMITY, fixed_quality(0.7)):
        per_item = m.score_all_items(2, t=t, index=idx, mode=mode)
        pairwise = pairwise_forward(m, np.full(m.n_items, 2), np.arange(m.n_items), np.full(m.n_items, t), idx, mode)
        assert np.allclose(per_item, pairwise, rtol=1e-12, atol=1e-15)


def test_intervened_scores_ignore_query_time():
    m = make_model(seed=8)
    idx = make_index(m, seed=9)
    a = m.score_all_items(1, t=0, index=idx, mode=INTERVENED)
    b = m.score_all_items(1, t=10**9, index=idx, mode=INTERVENED)
    assert np.array_equal(a, b)


def test_full_scores_react_to_new_clicks():
    m = make_model(seed=10)
    items = [3, 3, 3]
    times = [100, 110, 120]
    before = ConformityIndex(items, times, m.n_items, m.tau)
    after = ConformityIndex(items + [3], times + [150], m.n_items, m.tau)
    s_before = float(m.score_all_items(0, t=200, index=before, mode=FULL)[3])
    s_after = float(m.score_all_items(0, t=200, index=after, mode=FULL)[3])
    assert s_after > s_before


def test_parse_mode_aliases_and_fixq():
    assert parse_mode("full") is FULL
    assert parse_mode("int") is INTERVENED
    assert parse_mode("e") is MATCHING_ONLY
    assert parse_mode("noq") is NO_QUALITY
    assert parse_mode("noc") is NO_CONFORMITY
    fq = parse_mode("fixq:1.5")
    assert fq.kind == "fixed-quality" and fq.fixed_quality == 1.5
    with pytest.raises(ValueError):
        parse_mode("fixq")
    with pytest.raises(ValueError):
        parse_mode("bogus")


def test_needs_history_only_for_conformity_dependent_modes():
    # the conformity flag is what decides whether serving needs a conformity index
    m = make_model()
    assert FULL.conformity and NO_QUALITY.conformity
    for mode in (INTERVENED, MATCHING_ONLY, NO_CONFORMITY, fixed_quality(2.0)):
        assert not mode.conformity
        assert m.score_all_items(np.arange(m.n_users), mode=mode).shape == (m.n_users, m.n_items)


def test_checkpoint_roundtrip_preserves_everything(tmp_path):
    m = make_model(seed=11)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(m, path, meta={"note": "x", "k": [1, 2]})
    back, meta = load_checkpoint(path)
    assert meta == {"note": "x", "k": [1, 2]}
    assert np.array_equal(back.user_emb, m.user_emb)
    assert np.array_equal(back.item_emb, m.item_emb)
    assert np.array_equal(back.q_raw, m.q_raw)
    assert np.array_equal(back.beta_raw, m.beta_raw)
    assert back.tau == m.tau


def test_checkpoint_without_meta_roundtrips(tmp_path):
    m = make_model()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(m, path)
    _, meta = load_checkpoint(path)
    assert meta == {}


def test_checkpoint_with_the_old_anchor_field_still_loads(tmp_path):
    m = make_model(seed=13)
    path = tmp_path / "old.npz"
    np.savez(
        path,
        version=np.int64(1),
        n_users=np.int64(m.n_users),
        n_items=np.int64(m.n_items),
        dim=np.int64(m.dim),
        tau=np.float64(m.tau),
        anchor=np.float64(12345),
        user_emb=m.user_emb,
        item_emb=m.item_emb,
        q_raw=m.q_raw,
        beta_raw=m.beta_raw,
        meta_json=np.str_('{"config": {"method": "tide"}}'),
    )
    back, meta = load_checkpoint(path)
    assert meta == {"config": {"method": "tide"}}
    assert np.array_equal(back.item_emb, m.item_emb)
    assert np.array_equal(back.beta_raw, m.beta_raw)
    assert back.tau == m.tau


def test_checkpoint_bytes_are_deterministic(tmp_path):
    m = make_model(seed=12)
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(m, p1, meta={"config": {"lr": 0.1}})
    save_checkpoint(m, p2, meta={"config": {"lr": 0.1}})
    assert p1.read_bytes() == p2.read_bytes()


def test_model_copy_is_deep_for_arrays():
    m = make_model()
    c = m.copy()
    c.q_raw[0] = 99.0
    assert m.q_raw[0] != 99.0
