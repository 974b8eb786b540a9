"""Synthetic log generator: determinism, planted truth, and feedback."""

import json
import math
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from tide import synthgen
from tide.dataset import load_interactions
from tide.model import ConformityIndex
from tide.numerics import bounded_tanh, softplus
from tide.synthgen import (
    SynthConfig,
    SynthTruth,
    ThinningSampler,
    generate,
    sample_truth,
    save_synth,
)


def load_truth(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read back (true_quality, true_beta, config) from a truth file."""
    payload = json.loads(Path(path).read_text())
    return (
        np.asarray(payload["true_quality"], dtype=np.float64),
        np.asarray(payload["true_beta"], dtype=np.float64),
        payload["config"],
    )


SMALL = SynthConfig(
    n_users=50,
    n_items=20,
    embed_dim=4,
    quality_scale=1.0,
    beta_scale=1.0,
    tau=2e4,
    horizon=1_000_000,
    n_events=3000,
    seed=0,
)


def test_same_seed_reproduces_identical_log():
    log_a, truth_a = generate(SMALL)
    log_b, truth_b = generate(SMALL)
    assert np.array_equal(log_a.users, log_b.users)
    assert np.array_equal(log_a.items, log_b.items)
    assert np.array_equal(log_a.times, log_b.times)
    assert np.array_equal(log_a.ratings, log_b.ratings)
    assert np.array_equal(truth_a.true_quality, truth_b.true_quality)


def test_different_seed_changes_log():
    log_a, _ = generate(SMALL)
    log_b, _ = generate(SynthConfig(**{**SMALL.__dict__, "seed": 1}))
    assert not np.array_equal(log_a.items, log_b.items)


def test_output_shapes_and_ranges():
    log, truth = generate(SMALL)
    assert len(log) == SMALL.n_events
    assert log.n_users == SMALL.n_users and log.n_items == SMALL.n_items
    assert (np.diff(log.times) >= 0).all()
    assert log.times.min() >= 0 and log.times.max() < SMALL.horizon
    assert set(np.unique(log.ratings)) <= {1.0, 2.0, 3.0, 4.0, 5.0}
    assert truth.true_quality.shape == (SMALL.n_items,)
    assert (truth.true_quality >= 0).all() and (truth.true_quality <= SMALL.quality_scale).all()
    assert (truth.true_beta >= 0).all() and (truth.true_beta <= SMALL.beta_scale).all()


def test_planted_truth_is_respected():
    rng = np.random.default_rng(9)
    truth = sample_truth(SMALL, rng)
    log1, out1 = generate(SMALL, truth)
    assert out1 is truth
    # planting the same truth again yields the same log even though the
    # config seed would have drawn a different truth
    log2, _ = generate(SMALL, truth)
    assert np.array_equal(log1.items, log2.items)


def test_ratings_are_the_per_event_formula_on_the_drawn_noise():
    # times, users, the first proposals' uniforms and the rating noise come
    # off the seeded stream in that order, right after the planted truth
    log, truth = generate(SMALL)
    rng = np.random.default_rng(SMALL.seed)
    sample_truth(SMALL, rng)
    times = np.sort(rng.integers(0, SMALL.horizon, SMALL.n_events))
    users = rng.integers(0, SMALL.n_users, SMALL.n_events)
    rng.random(SMALL.n_events)
    eps = rng.normal(0.0, 1.0, SMALL.n_events)
    assert np.array_equal(log.times, times) and np.array_equal(log.users, users)
    q, q_mean = truth.true_quality, truth.true_quality.mean()
    expected = [
        float(np.clip(np.round(3.0 + SMALL.quality_scale * (q[i] - q_mean) + SMALL.rating_noise * e), 1.0, 5.0))
        for i, e in zip(log.items.tolist(), eps.tolist())
    ]
    assert log.ratings.tolist() == expected


def test_truth_validation_rejects_bad_shapes():
    rng = np.random.default_rng(0)
    truth = sample_truth(SMALL, rng)
    bad = SynthTruth(
        true_quality=truth.true_quality[:-1],
        true_beta=truth.true_beta,
        true_user_emb=truth.true_user_emb,
        true_item_emb=truth.true_item_emb,
    )
    with pytest.raises(ValueError, match="length mismatch"):
        generate(SMALL, bad)


def test_degenerate_all_zero_scores_raise():
    cfg = SynthConfig(**{**SMALL.__dict__, "quality_scale": 0.0, "beta_scale": 0.0})
    with pytest.raises(ValueError, match="degenerate"):
        generate(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(**{**SMALL.__dict__, "n_users": 0}).validate()
    with pytest.raises(ValueError):
        SynthConfig(**{**SMALL.__dict__, "tau": 0.0}).validate()
    with pytest.raises(ValueError):
        SynthConfig(**{**SMALL.__dict__, "emb_std": -1.0}).validate()
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SynthConfig(**{**SMALL.__dict__, "seed": -1}).validate()


def test_high_quality_items_attract_more_clicks():
    cfg = SynthConfig(
        n_users=200,
        n_items=30,
        embed_dim=4,
        quality_scale=2.0,
        beta_scale=0.0,
        tau=1e5,
        horizon=2_000_000,
        n_events=20_000,
        emb_std=0.1,
        seed=2,
    )
    log, truth = generate(cfg)
    counts = np.bincount(log.items, minlength=cfg.n_items)
    top = np.argsort(truth.true_quality)[-10:]
    bottom = np.argsort(truth.true_quality)[:10]
    assert counts[top].mean() > 1.5 * counts[bottom].mean()


def test_conformity_feedback_concentrates_clicks_after_clicks():
    # with a strong herd term, an item's conformity level observed at its
    # own click times exceeds its level at uniformly random probe times
    flat = SynthConfig(
        n_users=300,
        n_items=40,
        embed_dim=4,
        quality_scale=0.5,
        beta_scale=1.5,
        tau=1e4,
        horizon=5_000_000,
        n_events=20_000,
        emb_std=0.1,
        seed=3,
    )
    log, truth = generate(flat)
    idx = ConformityIndex.from_log(log, flat.tau)
    s_click = idx.query(log.items, log.times)
    rng = np.random.default_rng(0)
    probe_t = rng.integers(log.times.min(), log.times.max(), 20_000)
    probe_i = log.items[rng.permutation(len(log))]
    s_probe = idx.query(probe_i, probe_t)
    assert s_click.mean() > 1.15 * s_probe.mean()


def test_ratings_track_quality_not_conformity():
    cfg = SynthConfig(
        n_users=300,
        n_items=40,
        embed_dim=4,
        quality_scale=2.0,
        beta_scale=2.0,
        tau=1e4,
        horizon=5_000_000,
        n_events=30_000,
        seed=4,
    )
    log, truth = generate(cfg)
    n_rated = np.bincount(log.items, minlength=cfg.n_items)
    sums = np.bincount(log.items, weights=log.ratings, minlength=cfg.n_items)
    avg = sums / np.maximum(n_rated, 1)
    ok = n_rated >= 10
    r = np.corrcoef(avg[ok], truth.true_quality[ok])[0, 1]
    assert r > 0.7


def test_save_synth_roundtrip(tmp_path):
    log, truth = generate(SMALL)
    save_synth(log, truth, SMALL, tmp_path / "synth")
    back = load_interactions(tmp_path / "synth" / "interactions.tsv")
    # the loader compacts ids onto the ones that actually occur
    u_seen, u_compact = np.unique(log.users, return_inverse=True)
    i_seen, i_compact = np.unique(log.items, return_inverse=True)
    assert back.n_users == u_seen.size and back.n_items == i_seen.size
    assert np.array_equal(back.users, u_compact)
    assert np.array_equal(back.items, i_compact)
    assert np.array_equal(back.times, log.times)
    assert np.array_equal(back.ratings, log.ratings)
    q, b, cfg = load_truth(tmp_path / "synth" / "truth.json")
    assert np.allclose(q, truth.true_quality, rtol=1e-15)
    assert np.allclose(b, truth.true_beta, rtol=1e-15)
    assert cfg["n_users"] == SMALL.n_users and cfg["seed"] == SMALL.seed


@pytest.mark.parametrize("key", ["tau", "horizon", "quality_scale", "beta_scale", "rating_noise", "emb_std"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_validation_rejects_non_finite_values(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite, got {value}"):
        SynthConfig(**{**SMALL.__dict__, key: value}).validate()


def test_truth_validation_rejects_non_finite_values():
    truth = sample_truth(SMALL, np.random.default_rng(0))
    beta = truth.true_beta.copy()
    beta[3] = np.nan
    bad = SynthTruth(truth.true_quality, beta, truth.true_user_emb, truth.true_item_emb)
    with pytest.raises(ValueError, match="planted truth must be finite"):
        generate(SMALL, bad)


# ------------------------------------------------ the thinning sampler

TAU = 50.0
HISTORY_ITEMS = np.array([0, 0, 3, 0, 3, 5, 7, 7, 7, 2])
# two clicks share t = 120, and the last one lands at the query time itself
HISTORY_TIMES = np.array([0, 40, 60, 100, 120, 120, 130, 150, 170, 200])
T_QUERY, USER = 200, 2


def fixed_truth(quality_scale=0.6):
    rng = np.random.default_rng(21)
    return SynthTruth(
        true_quality=rng.uniform(0.05, 1.0, 12) * quality_scale,
        true_beta=rng.uniform(0.5, 2.0, 12),
        true_user_emb=rng.normal(0.0, 0.8, (4, 3)),
        true_item_emb=rng.normal(0.0, 0.8, (12, 3)),
    )


def naive_distribution(truth, conformity=True):
    """weights / weights.sum() at (USER, T_QUERY), S from the conformity index."""
    index = ConformityIndex(HISTORY_ITEMS, HISTORY_TIMES, 12, TAU)
    s = index.query_at(T_QUERY) if conformity else np.zeros(12)
    weights = bounded_tanh(truth.true_quality + truth.true_beta * s)
    weights = weights * softplus(truth.true_user_emb[USER] @ truth.true_item_emb.T)
    return weights / weights.sum()


def draws_at_fixed_state(truth, n, seed=0):
    """n events by USER at T_QUERY: they share one timestamp, so all see the same history."""
    rng = np.random.default_rng(seed)
    sampler = ThinningSampler(truth, TAU, rng)
    for j, t in zip(HISTORY_ITEMS.tolist(), HISTORY_TIMES.tolist()):
        sampler.click(j, t)
    items = sampler.draw(np.full(n, USER), np.full(n, T_QUERY), rng.random(n))
    return np.bincount(items, minlength=12), sampler


@pytest.mark.parametrize("cap", [synthgen.MAX_REJECTIONS, 0], ids=["thinning", "fallback"])
def test_sampler_matches_the_naive_distribution_at_a_fixed_state(monkeypatch, cap):
    monkeypatch.setattr(synthgen, "MAX_REJECTIONS", cap)
    truth = fixed_truth()
    n = 20_000
    counts, sampler = draws_at_fixed_state(truth, n)
    assert sampler.fallbacks == (n if cap == 0 else 0)
    p = naive_distribution(truth)
    assert chisquare(counts, n * p).pvalue > 1e-3
    # the same test tells the history apart from no history at all
    assert chisquare(counts, n * naive_distribution(truth, conformity=False)).pvalue < 1e-6


def test_near_zero_quality_falls_back_at_the_cap_and_stays_exact():
    # q ~ 1e-9 and beta = 0: almost every proposal is rejected, so each event
    # reaches the cap and is drawn from its full weight vector
    base = fixed_truth(quality_scale=1e-9)
    truth = SynthTruth(base.true_quality, np.zeros(12), base.true_user_emb, base.true_item_emb)
    n = 5000
    started = time.perf_counter()
    counts, sampler = draws_at_fixed_state(truth, n)
    assert sampler.fallbacks == n
    assert chisquare(counts, n * naive_distribution(truth)).pvalue > 1e-3

    cfg = SynthConfig(**{**SMALL.__dict__, "quality_scale": 1e-9, "beta_scale": 0.0})
    log, _ = generate(cfg)
    assert len(log) == cfg.n_events
    assert time.perf_counter() - started < 20.0


def loop_draw(sampler, users, times, first):
    """The per-event thinning loop through ``acceptance`` and ``click``: the oracle for ``draw``.

    Proposals are drawn a round at a time for ``CHUNK`` events, each round
    when an event first needs it, and an event rejected ``MAX_REJECTIONS``
    times is drawn from its full weight vector.
    """
    items = []
    for start in range(0, len(users), synthgen.CHUNK):
        chunk_users, chunk_first = users[start:start + synthgen.CHUNK], first[start:start + synthgen.CHUNK]
        rounds = []
        for k, t in enumerate(times[start:start + synthgen.CHUNK].tolist()):
            for r in range(synthgen.MAX_REJECTIONS):
                if r == len(rounds):
                    uniforms = chunk_first if r == 0 else sampler.rng.random(chunk_users.size)
                    proposals = sampler._propose(chunk_users, uniforms).tolist()
                    rounds.append((proposals, sampler.rng.random(chunk_users.size).tolist()))
                proposals, accept = rounds[r]
                j = proposals[k]
                if accept[k] < sampler.acceptance(j, t):
                    break
            else:
                j = sampler._exact(int(chunk_users[k]), t, start + k)
            sampler.click(j, t)
            items.append(j)
    return np.array(items, dtype=np.int64)


def both_draws(truth, tau, users, times, first, preload=(), seed=0):
    """(items, sampler, next draws) from ``draw`` and from the loop, each on a fresh sampler and generator.

    A draw that fails gives its error message instead.
    """
    out = []
    for method in (ThinningSampler.draw, loop_draw):
        rng = np.random.default_rng(seed)
        sampler = ThinningSampler(truth, tau, rng)
        for j, t in preload:
            sampler.click(j, t)
        try:
            items = method(sampler, users, times, first)
        except ValueError as error:
            out.append(str(error))
        else:
            out.append((items, sampler, rng.random(4)))
    return out


def assert_same_draws(fast, loop):
    if isinstance(fast, str) or isinstance(loop, str):
        # no weight anywhere: both must fail, at the same event
        assert fast == loop and "degenerate" in fast
        return
    (items, sampler, after), (loop_items, loop_sampler, loop_after) = fast, loop
    assert items.tolist() == loop_items.tolist()
    assert sampler.fallbacks == loop_sampler.fallbacks
    # the per-item state, bit for bit, and the same position in the random stream
    assert sampler.last == loop_sampler.last and sampler.at == loop_sampler.at
    assert np.array_equal(np.array(sampler.before).view(np.int64), np.array(loop_sampler.before).view(np.int64))
    assert np.array_equal(after, loop_after)


@settings(max_examples=120, deadline=None)
@given(
    n_items=st.integers(1, 12),
    n_users=st.integers(1, 5),
    n_events=st.integers(1, 400),
    horizon=st.sampled_from([1, 3, 50, 5000, 10**6]),
    tau=st.sampled_from([0.5, 20.0, 2000.0, 1e7]),
    quality=st.sampled_from([0.0, 1e-3, 0.3, 2.0]),
    beta=st.sampled_from([0.0, 0.1, 1.5, 4.0]),
    cap=st.sampled_from([0, 1, 3, 32]),
    chunk=st.sampled_from([64, 4096]),
    margin=st.sampled_from([1e-9, 0.05]),
    max_passes=st.sampled_from([0, 12]),
    n_preload=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_equals_the_per_event_loop(
    n_items, n_users, n_events, horizon, tau, quality, beta, cap, chunk, margin, max_passes, n_preload, seed
):
    # a wide margin sends many events to the loop's own test inside the fixed
    # point, and no passes make every chunk that needs one give up
    rng = np.random.default_rng(seed)
    truth = SynthTruth(
        true_quality=rng.uniform(0.0, quality, n_items),
        true_beta=rng.uniform(0.0, beta, n_items),
        true_user_emb=rng.normal(0.0, 0.8, (n_users, 3)),
        true_item_emb=rng.normal(0.0, 0.8, (n_items, 3)),
    )
    preload_times = np.sort(rng.integers(0, 100, n_preload))
    preload = list(zip(rng.integers(0, n_items, n_preload).tolist(), preload_times.tolist()))
    times = 100 + np.sort(rng.integers(0, horizon, n_events))
    users = rng.integers(0, n_users, n_events)
    first = rng.random(n_events)
    with (
        mock.patch.object(synthgen, "CHUNK", chunk),
        mock.patch.object(synthgen, "MAX_REJECTIONS", cap),
        mock.patch.object(synthgen, "_MARGIN", margin),
        mock.patch.object(synthgen, "_MAX_PASSES", max_passes),
    ):
        fast, loop = both_draws(truth, tau, users, times, first, preload, seed)
    assert_same_draws(fast, loop)


@pytest.mark.parametrize(
    "config",
    [
        SMALL,
        SynthConfig(n_users=300, n_items=40, embed_dim=4, quality_scale=0.5, beta_scale=1.5, tau=1e4,
                    horizon=5_000_000, n_events=9000, emb_std=0.1, seed=3),
        SynthConfig(n_users=200, n_items=3, n_events=9000, seed=5),
        SynthConfig(n_users=200, n_items=300, n_events=9000, horizon=100, seed=6),
        SynthConfig(n_users=200, n_items=2000, n_events=5000, quality_scale=0.2, seed=7),
    ],
    ids=["small", "strong-conformity", "3-items", "tied-times", "fallback-heavy"],
)
def test_draw_equals_the_loop_across_chunks(config):
    rng = np.random.default_rng(config.seed)
    truth = sample_truth(config, rng)
    times = np.sort(rng.integers(0, config.horizon, config.n_events))
    users = rng.integers(0, config.n_users, config.n_events)
    fast, loop = both_draws(truth, config.tau, users, times, rng.random(config.n_events), seed=config.seed)
    assert_same_draws(fast, loop)


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(n_users=300, n_items=40, embed_dim=4, quality_scale=0.5, beta_scale=1.5, tau=1e4,
                    horizon=5_000_000, n_events=9000, emb_std=0.1, seed=3),
        SynthConfig(n_users=200, n_items=2000, n_events=5000, quality_scale=0.2, seed=7),
    ],
    ids=["strong-conformity", "fallback-heavy"],
)
def test_the_loop_looks_up_proposals_only_for_events_still_open(monkeypatch, config):
    # every chunk runs in the loop; an event's proposal of round r is looked
    # up only if none of its earlier proposals is kept at the chunk-start
    # state by over _MARGIN, which clicks within the chunk only raise
    monkeypatch.setattr(ThinningSampler, "_settle", lambda self, rounds, times, items, offset: 0)
    looked = {}
    propose = synthgen._Rounds.propose

    def recording(self, cells):
        looked.setdefault(self, []).append(cells.copy())
        return propose(self, cells)

    monkeypatch.setattr(synthgen._Rounds, "propose", recording)
    rng = np.random.default_rng(config.seed)
    truth = sample_truth(config, rng)
    times = np.sort(rng.integers(0, config.horizon, config.n_events))
    users = rng.integers(0, config.n_users, config.n_events)
    fast, loop = both_draws(truth, config.tau, users, times, rng.random(config.n_events), seed=config.seed)
    assert_same_draws(fast, loop)

    n_looked = from_first_need = 0
    for chunk, (rounds, calls) in enumerate(looked.items()):
        chunk_times = times[chunk * synthgen.CHUNK:][:rounds.size]
        cells = np.concatenate(calls)
        r, ev = np.divmod(cells, rounds.size)
        for earlier in range(r.max()):
            later = r > earlier
            cell = earlier * rounds.size + ev[later]
            floor = rounds.acceptance0(rounds.proposals[cell], chunk_times[ev[later]])
            assert (rounds.accepts[cell] >= floor - synthgen._MARGIN).all()
        n_looked += cells.size
        # the cells of looking up every event from a round's first need to the chunk's end
        from_first_need += sum(rounds.size - ev[r == k].min() for k in np.unique(r))
    assert n_looked < 0.5 * from_first_need, (n_looked, from_first_need)


def test_a_give_up_sends_the_next_chunks_to_the_loop_with_backoff(monkeypatch):
    # with no passes allowed, a chunk that needs one gives up; the next chunk
    # it tries comes after one, two, four... skipped chunks, until one settles
    monkeypatch.setattr(synthgen, "CHUNK", 64)
    monkeypatch.setattr(synthgen, "_MAX_PASSES", 0)
    config = SynthConfig(n_users=50, n_items=5, embed_dim=4, quality_scale=0.5, beta_scale=3.0, tau=1e4,
                         horizon=200_000, n_events=12 * 64, seed=8)
    rng = np.random.default_rng(config.seed)
    truth = sample_truth(config, rng)
    times = np.sort(rng.integers(0, config.horizon, config.n_events))
    users = rng.integers(0, config.n_users, config.n_events)
    first = rng.random(config.n_events)
    tried, gave_up = [], []
    settle = ThinningSampler._settle

    def recording(self, rounds, chunk_times, items, offset):
        tried.append(offset // 64)
        done = settle(self, rounds, chunk_times, items, offset)
        gave_up.append(self._skip > 0)
        return done

    monkeypatch.setattr(ThinningSampler, "_settle", recording)
    fast, loop = both_draws(truth, config.tau, users, times, first, seed=config.seed)
    assert_same_draws(fast, loop)

    expected, outcomes, skip, backoff = [], iter(gave_up), 0, 1
    for chunk in range(12):
        if skip:
            skip -= 1
            continue
        expected.append(chunk)
        if next(outcomes):
            skip, backoff = backoff, 2 * backoff
        else:
            backoff = 1
    assert tried == expected
    assert tried[:3] == [0, 2, 5]  # the first two tries gave up


def test_events_at_one_time_see_only_strictly_earlier_clicks(monkeypatch):
    # item A = 0 is the only item with conformity, and quality is ~0, so every
    # event clicks A; each must be accepted with tanh(beta_A * S_A(t)) where
    # S_A(t) counts the one click before t, not the events at t itself
    n_items, a, t0, t = 6, 0, 0, 10
    rng = np.random.default_rng(4)
    truth = SynthTruth(
        true_quality=np.full(n_items, 1e-12),
        true_beta=np.where(np.arange(n_items) == a, 3.0, 0.0),
        true_user_emb=rng.normal(0.0, 0.5, (3, 2)),
        true_item_emb=rng.normal(0.0, 0.5, (n_items, 2)),
    )
    seen = []
    acceptance = ThinningSampler.acceptance

    def recording(self, j, when):
        p = acceptance(self, j, when)
        seen.append((j, when, p))
        return p

    def tied_draws(method):
        rng = np.random.default_rng(0)
        sampler = ThinningSampler(truth, 10.0, rng)
        sampler.click(a, t0)
        items = method(sampler, np.arange(n_tied) % 3, np.full(n_tied, t), rng.random(n_tied))
        return items, sampler, rng.random(4)

    # the loop tests every proposal through acceptance; record it there
    monkeypatch.setattr(ThinningSampler, "acceptance", recording)
    n_tied = 8
    loop = tied_draws(loop_draw)
    items, sampler, _ = loop
    assert items.tolist() == [a] * n_tied

    s_a = ConformityIndex(np.array([a]), np.array([t0]), n_items, 10.0).query([a], [t])[0]
    tested = [p for j, when, p in seen if j == a and when == t]
    assert len(tested) >= n_tied
    assert np.allclose(tested, np.tanh(1e-12 + 3.0 * s_a), rtol=1e-12, atol=0.0)

    # a later event sees the earlier click and all eight tied ones
    later = 25
    clicks = ConformityIndex(np.array([a] * (1 + n_tied)), np.array([t0] + [t] * n_tied), n_items, 10.0)
    assert sampler.level(a, later) == pytest.approx(clicks.query([a], [later])[0], rel=1e-12)
    # and draw, which decides the tied events at once, agrees with the loop
    assert_same_draws(tied_draws(ThinningSampler.draw), loop)


def ulps_around(x, k=40):
    """x and the k doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def test_an_acceptance_at_its_uniform_is_decided_by_the_loops_arithmetic():
    # numpy's tanh and math.tanh differ in the last bit for some inputs. With
    # one item and no conformity, pick a quality whose math.tanh is exactly
    # event 0's first accept uniform while numpy's lies above it, and every
    # other event's uniform below it: the loop rejects event 0's first
    # proposal and draws a second round, where numpy's acceptance alone
    # would keep it and leave the generator one round earlier
    n = 64
    for seed in range(5000):
        uniforms = np.random.default_rng(seed).random(n)
        if uniforms.argmax() != 0:
            continue
        quality = next((q for q in ulps_around(math.atanh(uniforms[0]))
                        if math.tanh(q) == uniforms[0] and np.tanh(np.full(n, q))[0] > uniforms[0]), None)
        if quality is not None:
            break
    else:
        pytest.skip("numpy's tanh agrees with math.tanh near every uniform tried")
    rng = np.random.default_rng(seed + 10_000)
    truth = SynthTruth(np.array([quality]), np.zeros(1), rng.normal(0.0, 0.5, (3, 2)), rng.normal(0.0, 0.5, (1, 2)))
    users, times, first = rng.integers(0, 3, n), np.sort(rng.integers(0, 1000, n)), rng.random(n)
    fast, loop = both_draws(truth, 50.0, users, times, first, seed=seed)
    assert_same_draws(fast, loop)


@pytest.mark.parametrize("n_items", [1, 2, 3, 7, 8, 9, 300])
def test_proposals_are_the_rows_searchsorted(n_items):
    rng = np.random.default_rng(n_items)
    truth = SynthTruth(rng.uniform(0.1, 1.0, n_items), np.zeros(n_items),
                       rng.normal(0.0, 1.0, (6, 3)), rng.normal(0.0, 1.0, (n_items, 3)))
    sampler = ThinningSampler(truth, TAU, rng)
    users = rng.integers(0, 6, 2000)
    # the largest uniforms put the target at the row's total
    uniforms = np.concatenate((rng.random(1994), [0.0, 1e-300, np.nextafter(1.0, 0.0)] * 2))
    expected = [
        min(int(np.searchsorted(sampler.cdf[u], w * sampler.cdf[u, -1], side="right")), n_items - 1)
        for u, w in zip(users.tolist(), uniforms.tolist())
    ]
    assert sampler._propose(users, uniforms).tolist() == expected


def test_sampler_rejects_events_out_of_time_order():
    rng = np.random.default_rng(0)
    sampler = ThinningSampler(fixed_truth(), TAU, rng)
    with pytest.raises(ValueError, match="nondecreasing"):
        sampler.draw(np.array([0, 1]), np.array([5, 3]), rng.random(2))
