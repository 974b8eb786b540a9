"""Analytic gradients, sparse Adam, negative sampling, and the fit loop."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tide import trainer
from tide.baselines import PopularityTable, ips_weights_raw, pda_coefficient
from tide.dataset import ChronoSplit, InteractionLog, chrono_split
from tide.model import FULL, ConformityIndex, TideModel
from tide.numerics import bounded_tanh, bpr_loss, sigmoid, softplus
from tide.trainer import (
    LINKS,
    PARAMS,
    AdamState,
    FitResult,
    TrainBatch,
    TrainConfig,
    batch_loss_and_grads,
    batch_loss_and_row_grads,
    fit,
    grad_step,
    init_model,
    make_scorer,
    sample_negatives,
    selection_mode,
    write_history,
)

ALL_CONFIGS = [
    TrainConfig(method="tide", variant="full"),
    TrainConfig(method="tide", variant="noq"),
    TrainConfig(method="tide", variant="noc"),
    TrainConfig(method="tide", variant="fixq", fixed_q=0.8),
    TrainConfig(method="mf"),
    TrainConfig(method="mf-ips"),
    TrainConfig(method="pd", gamma=0.15),
    TrainConfig(method="pda", gamma=0.15),
]


def tiny_setup(cfg: TrainConfig, seed: int):
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(2, 6))
    n_items = int(rng.integers(3, 7))
    dim = int(rng.integers(2, 5))
    b = int(rng.integers(3, 9))
    model = TideModel.init(n_users, n_items, dim, seed=seed, init_std=0.4, init_qb=0.3, tau=50.0)
    if cfg.method == "tide" and cfg.variant == "noq":
        model.q_raw[:] = -np.inf
    if cfg.method == "tide" and cfg.variant == "noc":
        model.beta_raw[:] = -np.inf
    batch = TrainBatch(
        users=rng.integers(0, n_users, b),
        pos=rng.integers(0, n_items, b),
        neg=rng.integers(0, n_items, b),
        times=rng.integers(0, 100, b),
        s_pos=rng.uniform(0.0, 3.0, b),
        s_neg=rng.uniform(0.0, 3.0, b),
        pop_pos=rng.uniform(0.05, 1.0, b),
        pop_neg=rng.uniform(0.05, 1.0, b),
        weights=rng.uniform(0.5, 2.0, b) if cfg.method == "mf-ips" else None,
    )
    return model, batch


def central_difference(model, batch, cfg, name, index, h=1e-6):
    param = getattr(model, name)
    orig = param[index]
    param[index] = orig + h
    up, _ = batch_loss_and_grads(model, batch, cfg)
    param[index] = orig - h
    down, _ = batch_loss_and_grads(model, batch, cfg)
    param[index] = orig
    return (up - down) / (2.0 * h)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.method}-{c.variant}")
def test_analytic_gradients_match_finite_differences(cfg):
    for seed in range(3):
        model, batch = tiny_setup(cfg, seed)
        _, grads = batch_loss_and_grads(model, batch, cfg)
        for name in ("user_emb", "item_emb", "q_raw", "beta_raw"):
            param = getattr(model, name)
            it = np.ndindex(param.shape)
            for index in it:
                if not np.isfinite(param[index]):
                    continue
                fd = central_difference(model, batch, cfg, name, index)
                got = grads[name][index]
                denom = max(abs(fd), abs(got), 1e-8)
                assert abs(fd - got) / denom < 1e-4, (
                    f"{cfg.method}/{cfg.variant} {name}{index}: analytic {got} vs fd {fd}"
                )


def test_forward_loss_matches_scalar_recomputation():
    cfg = TrainConfig(method="tide", variant="full")
    model, batch = tiny_setup(cfg, 11)
    loss, _ = batch_loss_and_grads(model, batch, cfg)
    acc = 0.0
    for j in range(batch.users.size):
        u, p, n = batch.users[j], batch.pos[j], batch.neg[j]
        m_p = float(model.user_emb[u] @ model.item_emb[p])
        m_n = float(model.user_emb[u] @ model.item_emb[n])
        a_p = math.log(1 + math.exp(model.q_raw[p])) + math.log(1 + math.exp(model.beta_raw[p])) * batch.s_pos[j]
        a_n = math.log(1 + math.exp(model.q_raw[n])) + math.log(1 + math.exp(model.beta_raw[n])) * batch.s_neg[j]
        y_p = math.tanh(a_p) * math.log(1 + math.exp(m_p))
        y_n = math.tanh(a_n) * math.log(1 + math.exp(m_n))
        acc += math.log(1 + math.exp(y_n - y_p))
    assert math.isclose(loss, acc / batch.users.size, rel_tol=1e-10)


@pytest.mark.parametrize("variant", ["full", "noq", "noc", "fixq"])
def test_training_loss_is_built_from_the_serving_score(variant):
    # training and model.score must run the same forward, bit for bit
    cfg = TrainConfig(method="tide", variant=variant, fixed_q=0.8)
    rng = np.random.default_rng(41)
    n_users, n_items, b = 6, 9, 40
    model = init_model(cfg, n_users, n_items)
    for name in ("q_raw", "beta_raw"):
        param = getattr(model, name)
        finite = np.isfinite(param)
        param[finite] = rng.normal(0.0, 1.0, finite.sum())
    index = ConformityIndex(rng.integers(0, n_items, 300), rng.integers(0, 1000, 300), n_items, tau=300.0)
    users = rng.integers(0, n_users, b)
    pos = rng.integers(0, n_items, b)
    neg = rng.integers(0, n_items, b)
    times = rng.integers(0, 1200, b)
    batch = TrainBatch(
        users=users, pos=pos, neg=neg, times=times,
        s_pos=index.query(pos, times), s_neg=index.query(neg, times),
    )
    loss, _ = batch_loss_and_grads(model, batch, cfg)
    mode = cfg.train_mode()
    y_p = model.score(users, pos, times=batch.times, index=index, mode=mode)
    y_n = model.score(users, neg, times=batch.times, index=index, mode=mode)
    assert loss == float(np.mean(np.ones(b) * softplus(y_n - y_p)))


def dense_scatter_oracle(model, batch, cfg):
    """The dense backward: per-pair terms scattered into zeros with np.add.at, in batch order."""
    u, p, n = batch.users, batch.pos, batch.neg
    b = u.size
    w = batch.weights if batch.weights is not None else np.ones(b)
    link, link_grad = LINKS[cfg.method]
    mode = cfg.train_mode()

    def coefficient(items, s, pop):
        if mode is not None:
            a = mode.popularity_input(softplus(model.q_raw[items]), softplus(model.beta_raw[items]), s)
            return bounded_tanh(a), a
        if cfg.method in ("pd", "pda"):
            return pda_coefficient(pop, cfg.gamma), None
        return 1.0, None

    m_p = model.matching(u, p)
    m_n = model.matching(u, n)
    c_p, a_p = coefficient(p, batch.s_pos, batch.pop_pos)
    c_n, a_n = coefficient(n, batch.s_neg, batch.pop_neg)
    l_p, l_n = link(m_p), link(m_n)
    y_p, y_n = c_p * l_p, c_n * l_n
    grads = {name: np.zeros_like(getattr(model, name)) for name in PARAMS}
    d = sigmoid(y_n - y_p)
    gy_p = -(w * d / b)
    gy_n = +(w * d / b)
    gm_p = gy_p * c_p * link_grad(m_p)
    gm_n = gy_n * c_n * link_grad(m_n)
    if mode is not None:
        ga_p = gy_p * (1.0 - np.tanh(a_p) ** 2) * l_p
        ga_n = gy_n * (1.0 - np.tanh(a_n) ** 2) * l_n
        if mode.quality:
            np.add.at(grads["q_raw"], p, ga_p * sigmoid(model.q_raw[p]))
            np.add.at(grads["q_raw"], n, ga_n * sigmoid(model.q_raw[n]))
        if mode.conformity:
            np.add.at(grads["beta_raw"], p, ga_p * batch.s_pos * sigmoid(model.beta_raw[p]))
            np.add.at(grads["beta_raw"], n, ga_n * batch.s_neg * sigmoid(model.beta_raw[n]))
    np.add.at(grads["user_emb"], u, gm_p[:, None] * model.item_emb[p] + gm_n[:, None] * model.item_emb[n])
    np.add.at(grads["item_emb"], p, gm_p[:, None] * model.user_emb[u])
    np.add.at(grads["item_emb"], n, gm_n[:, None] * model.user_emb[u])
    return float(np.mean(w * bpr_loss(y_p, y_n))), grads


@st.composite
def batch_indices(draw):
    """(n_users, n_items, users, pos, neg) on tiny id ranges, so rows repeat."""
    n_users = draw(st.integers(1, 4))
    n_items = draw(st.integers(1, 5))
    b = draw(st.integers(1, 12))
    ids = lambda hi: st.lists(st.integers(0, hi - 1), min_size=b, max_size=b)
    return n_users, n_items, draw(ids(n_users)), draw(ids(n_items)), draw(ids(n_items))


@settings(deadline=None, max_examples=80)
@given(cfg=st.sampled_from(ALL_CONFIGS), indices=batch_indices(), seed=st.integers(0, 2**16))
@example(cfg=ALL_CONFIGS[0], indices=(1, 2, [0], [1], [0]), seed=0)  # b = 1
@example(cfg=ALL_CONFIGS[0], indices=(2, 3, [0, 1, 0], [2, 0, 1], [0, 2, 2]), seed=1)  # item 2 on both sides
@example(cfg=ALL_CONFIGS[6], indices=(2, 3, [1, 1, 0], [0, 1, 0], [1, 0, 1]), seed=2)
def test_row_gradients_equal_the_dense_scatter_bit_for_bit(cfg, indices, seed):
    n_users, n_items, users, pos, neg = indices
    rng = np.random.default_rng(seed)
    b = len(users)
    model = init_model(cfg, n_users, n_items)
    for name in PARAMS:
        param = getattr(model, name)
        finite = np.isfinite(param)
        param[finite] = rng.normal(0.0, 0.7, finite.sum())
    batch = TrainBatch(
        users=np.array(users), pos=np.array(pos), neg=np.array(neg), times=np.zeros(b, dtype=np.int64),
        s_pos=rng.uniform(0.1, 3.0, b), s_neg=rng.uniform(0.1, 3.0, b),
        pop_pos=rng.uniform(0.05, 1.0, b), pop_neg=rng.uniform(0.05, 1.0, b),
        weights=rng.uniform(0.5, 2.0, b) if cfg.method == "mf-ips" else None,
    )
    want_loss, want = dense_scatter_oracle(model, batch, cfg)

    loss, row_grads = batch_loss_and_row_grads(model, batch, cfg)
    assert loss == want_loss
    assert tuple(row_grads) == cfg.trained_params()
    user_rows = np.unique(batch.users)
    item_rows = np.unique(np.concatenate([batch.pos, batch.neg]))
    got = {name: np.zeros_like(getattr(model, name)) for name in PARAMS}
    for name, (rows, g) in row_grads.items():
        assert np.array_equal(rows, user_rows if name == "user_emb" else item_rows)
        got[name][rows] = g
    for name in PARAMS:
        assert got[name].tobytes() == want[name].tobytes(), name
    dense_loss, dense = batch_loss_and_grads(model, batch, cfg)
    assert dense_loss == loss and all(dense[name].tobytes() == got[name].tobytes() for name in PARAMS)

    # one Adam step moves exactly the batch's rows: every embedding row it
    # touched (weight decay alone moves those), every scale row with a
    # nonzero gradient, and nothing else
    before = model.copy()
    grad_step(model, batch, cfg, AdamState(model))
    for name in PARAMS:
        moved = getattr(model, name) != getattr(before, name)
        changed = np.flatnonzero(moved.reshape(moved.shape[0], -1).any(axis=1))
        if name not in cfg.trained_params():
            assert changed.size == 0, name
        elif name == "user_emb":
            assert np.array_equal(changed, user_rows)
        elif name == "item_emb":
            assert np.array_equal(changed, item_rows)
        else:
            assert np.isin(changed, item_rows).all()
            assert np.isin(np.flatnonzero(want[name]), changed).all(), name


def test_adam_first_step_matches_hand_computation():
    cfg = TrainConfig(method="mf", lr_emb=0.05, weight_decay_emb=0.01)
    model, batch = tiny_setup(cfg, 21)
    before = model.user_emb.copy()
    _, grads = batch_loss_and_grads(model, batch, cfg)
    adam = AdamState(model)
    grad_step(model, batch, cfg, adam)
    rows = np.unique(batch.users)
    g = grads["user_emb"][rows]
    m1 = 0.1 * g
    m2 = 0.001 * g * g
    update = (m1 / 0.1) / (np.sqrt(m2 / 0.001) + 1e-8)
    want = before[rows] - cfg.lr_emb * update
    want -= cfg.lr_emb * cfg.weight_decay_emb * want
    assert np.allclose(model.user_emb[rows], want, rtol=1e-12)
    untouched = np.setdiff1d(np.arange(model.n_users), rows)
    assert np.array_equal(model.user_emb[untouched], before[untouched])


def test_quality_and_scale_are_never_decayed():
    cfg = TrainConfig(method="tide", variant="full", lr_emb=0.05, lr_qb=0.0425, weight_decay_emb=0.5)
    model, batch = tiny_setup(cfg, 22)
    before = model.q_raw.copy()
    _, grads = batch_loss_and_grads(model, batch, cfg)
    adam = AdamState(model)
    grad_step(model, batch, cfg, adam)
    rows = np.unique(np.concatenate([batch.pos, batch.neg]))
    g = grads["q_raw"][rows]
    pure_adam = before[rows] - cfg.lr_qb * (0.1 * g / 0.1) / (np.sqrt(0.001 * g * g / 0.001) + 1e-8)
    # the heavy decay setting must not leak into the quality update
    assert np.allclose(model.q_raw[rows], pure_adam, rtol=1e-12)
    untouched = np.setdiff1d(np.arange(model.n_items), rows)
    assert np.array_equal(model.q_raw[untouched], before[untouched])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_step_raises_on_nonfinite():
    cfg = TrainConfig(method="mf")
    model, batch = tiny_setup(cfg, 23)
    model.user_emb[batch.users[0], 0] = np.nan
    adam = AdamState(model)
    with pytest.raises(FloatingPointError):
        grad_step(model, batch, cfg, adam)

    model, batch = tiny_setup(cfg, 24)
    model.item_emb[batch.neg[-1], 1] = np.nan
    with pytest.raises(FloatingPointError):
        grad_step(model, batch, cfg, AdamState(model))

    cfg = TrainConfig(method="tide", variant="full")
    model, batch = tiny_setup(cfg, 25)
    model.q_raw[batch.pos[0]] = np.nan
    with pytest.raises(FloatingPointError):
        grad_step(model, batch, cfg, AdamState(model))


def test_init_model_pins_frozen_components():
    noq = init_model(TrainConfig(method="tide", variant="noq"), 3, 4)
    assert (noq.quality == 0.0).all()
    noc = init_model(TrainConfig(method="tide", variant="noc"), 3, 4)
    assert (noc.conformity_scale == 0.0).all()
    fixq = init_model(TrainConfig(method="tide", variant="fixq", fixed_q=1.3), 3, 4)
    assert np.allclose(fixq.quality, 1.3, rtol=1e-9)


def test_trained_params_per_method():
    assert TrainConfig(method="mf").trained_params() == ("user_emb", "item_emb")
    assert TrainConfig(method="tide", variant="full").trained_params() == (
        "user_emb", "item_emb", "q_raw", "beta_raw"
    )
    assert TrainConfig(method="tide", variant="noq").trained_params() == (
        "user_emb", "item_emb", "beta_raw"
    )
    assert TrainConfig(method="tide", variant="noc").trained_params() == (
        "user_emb", "item_emb", "q_raw"
    )
    assert TrainConfig(method="tide", variant="fixq").trained_params() == (
        "user_emb", "item_emb", "beta_raw"
    )


def test_config_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        TrainConfig(method="gcn").validate()
    with pytest.raises(ValueError):
        TrainConfig(method="tide", variant="bogus").validate()
    with pytest.raises(ValueError):
        TrainConfig(lr_emb=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(method="tide", variant="fixq", fixed_q=0.0).validate()
    for bad, field in [
        ({"method": "pd", "gamma": 1.5}, "gamma"),
        ({"method": "pd", "gamma": -0.5}, "gamma"),
        ({"method": "pda", "gamma": 1.5}, "gamma"),
        ({"embed_dim": 0}, "embed_dim"),
        ({"k_select": 0}, "k_select"),
    ]:
        with pytest.raises(ValueError, match=field):
            TrainConfig(**bad).validate()


def test_sample_negatives_never_hits_training_pairs():
    rng = np.random.default_rng(1)
    n_users, n_items = 40, 25
    users_train = rng.integers(0, n_users, 600)
    items_train = rng.integers(0, n_items, 600)
    pos_keys = np.unique(users_train * n_items + items_train)
    train = InteractionLog.build(users_train, items_train, np.zeros(600, dtype=int), None, n_users, n_items)
    users = rng.integers(0, n_users, 5000)
    neg = sample_negatives(users, train.pairs, rng)
    keys = users * n_items + neg
    assert not np.isin(keys, pos_keys).any()
    # all items outside the positives are reachable
    assert np.unique(neg).size > n_items // 2


def test_selection_mode_matches_training_objective():
    assert selection_mode(TrainConfig(method="mf")).kind == "matching-only"
    assert selection_mode(TrainConfig(method="tide", variant="full")).kind == "full"
    assert selection_mode(TrainConfig(method="tide", variant="noq")).kind == "no-quality"
    assert selection_mode(TrainConfig(method="tide", variant="noc")).kind == "intervened"


def synthetic_split(seed=0, n=4000, n_users=60, n_items=30, horizon=1_000_000):
    rng = np.random.default_rng(seed)
    pref = rng.normal(size=(n_users, 4)) @ rng.normal(size=(4, n_items))
    users = rng.integers(0, n_users, n)
    logits = pref[users] + rng.gumbel(0, 1.0, (n, n_items))
    items = logits.argmax(axis=1)
    times = np.sort(rng.integers(0, horizon, n))
    log = InteractionLog.build(users, items, times, None, n_users, n_items)
    return chrono_split(log, parts=10, split_seed=seed)


@pytest.mark.parametrize("method,variant", [("tide", "full"), ("mf", "full"), ("pda", "full")])
def test_fit_runs_and_tracks_history(method, variant):
    split = synthetic_split()
    cfg = TrainConfig(
        method=method, variant=variant, embed_dim=8, epochs=4,
        early_stop_patience=10, batch_size=1024, tau=2e5, seed=0,
    )
    out = fit(split, cfg)
    assert isinstance(out, FitResult)
    assert len(out.history) == 4
    assert out.best_epoch is not None and out.best_metric is not None
    for row in out.history:
        assert set(row) == {"epoch", "loss", "val_cp_rec", "wall_time"}
        assert math.isfinite(row["loss"])
    metrics = [row["val_cp_rec"] for row in out.history]
    assert math.isclose(out.best_metric, max(metrics), rel_tol=1e-12)


@pytest.mark.parametrize("method", ["tide", "pda", "mf-ips"])
def test_fit_batches_keep_every_column_in_step(method, monkeypatch):
    split = synthetic_split(seed=5)
    train = split.train
    cfg = TrainConfig(method=method, embed_dim=4, epochs=2, batch_size=700, tau=2e5, seed=5)
    batches = []

    def recording_step(model, batch, cfg, adam):
        batches.append(batch)
        return grad_step(model, batch, cfg, adam)

    monkeypatch.setattr(trainer, "grad_step", recording_step)
    fit(split, cfg)
    assert len(batches) == 2 * math.ceil(len(train) / cfg.batch_size)

    index = ConformityIndex.from_log(train, cfg.tau)
    table = PopularityTable.from_split(split)
    ips = ips_weights_raw(np.bincount(train.items, minlength=train.n_items), cfg.ips_cap)
    ips /= ips[train.items].mean()
    rows = sorted(zip(train.users.tolist(), train.items.tolist(), train.times.tolist()))
    seen = []
    for batch in batches:
        seen += zip(batch.users.tolist(), batch.pos.tolist(), batch.times.tolist())
        sides = {"pos": batch.pos, "neg": batch.neg}
        for side, items in sides.items():
            s, pop = getattr(batch, f"s_{side}"), getattr(batch, f"pop_{side}")
            if method == "tide":
                assert np.array_equal(s, index.query(items, batch.times))
            else:
                assert s is None
            if method == "pda":
                assert np.array_equal(pop, table.query(items, batch.times))
            else:
                assert pop is None
        if method == "mf-ips":
            assert np.array_equal(batch.weights, ips[batch.pos])
        else:
            assert batch.weights is None
    # each epoch visits every training row once, with its user, item and time together
    half = len(seen) // 2
    assert sorted(seen[:half]) == rows and sorted(seen[half:]) == rows


def test_year_long_log_trains_and_scores_at_tau_3e4():
    # a span of ~1050 tau: far past where exp((t - t_0) / tau) overflows
    split = synthetic_split(seed=4, horizon=365 * 86_400)
    tau = 3e4
    index = ConformityIndex.from_log(split.train, tau)
    sums = index.query_at(split.train.t_max)
    assert np.isfinite(sums).all() and sums.max() > 0.0
    cfg = TrainConfig(method="tide", variant="full", embed_dim=8, epochs=1,
                      batch_size=1024, tau=tau, seed=4)
    out = fit(split, cfg)
    assert math.isfinite(out.history[0]["loss"]) and out.best_metric is not None
    scores = make_scorer(out.model, "tide", FULL, t_eval=split.train.t_max, index=index)(np.arange(5))
    assert scores.shape == (5, split.train.n_items)
    assert np.isfinite(scores).all() and (scores > 0).all()


def _train_only_split(users, items) -> ChronoSplit:
    train = InteractionLog.build(users, items, list(range(len(users))), None, 3, 2)
    empty = InteractionLog.build([], [], [], None, 3, 2)
    return ChronoSplit(train=train, validation=empty, test=empty,
                       boundaries=[0.0, float(len(users))], parts=2, split_seed=0)


def test_fit_skips_a_user_who_clicked_every_item():
    # user 1 clicked both items (item 0 twice) and user 2 both once: 5 rows
    # without a negative; user 0 leaves a negative and is trained
    split = _train_only_split([0, 1, 1, 1, 2, 2], [0, 0, 1, 0, 1, 0])
    cfg = TrainConfig(method="mf", embed_dim=2, epochs=3)
    with pytest.warns(UserWarning, match=r"2 user\(s\) interacted with every item.*skipping their 5 training rows"):
        out = fit(split, cfg)
    start = init_model(cfg, 3, 2)
    assert np.array_equal(out.model.user_emb[1:], start.user_emb[1:])
    assert not np.array_equal(out.model.user_emb[0], start.user_emb[0])
    assert len(out.history) == 3 and all(math.isfinite(row["loss"]) for row in out.history)


def test_fit_rejects_a_split_where_every_user_clicked_every_item():
    split = _train_only_split([0, 0, 1, 1, 2, 2], [0, 1, 1, 0, 0, 1])
    with pytest.raises(ValueError, match="every training user interacted with every item"):
        fit(split, TrainConfig(method="mf", embed_dim=2, epochs=1))


def test_fit_restores_best_checkpoint():
    split = synthetic_split(seed=1)
    cfg = TrainConfig(
        method="mf", embed_dim=8, epochs=6, early_stop_patience=10,
        batch_size=1024, seed=1,
    )
    out = fit(split, cfg)
    from tide.evaluation import click_prediction_eval

    scorer = make_scorer(out.model, cfg.method, selection_mode(cfg))
    rec = click_prediction_eval(scorer, split.train, split.validation, k=cfg.k_select)["recall"]
    assert math.isclose(rec, out.best_metric, rel_tol=1e-12)


def test_fit_builds_the_validation_task_once(monkeypatch):
    built, task = [], trainer.ClickTask

    def counting(*args, **kwargs):
        built.append(args)
        return task(*args, **kwargs)

    monkeypatch.setattr(trainer, "ClickTask", counting)
    cfg = TrainConfig(method="mf", embed_dim=8, epochs=3, early_stop_patience=10, batch_size=1024, seed=1)
    out = fit(synthetic_split(seed=1), cfg)
    assert len(out.history) == 3 and all(row["val_cp_rec"] is not None for row in out.history)
    assert len(built) == 1


def test_fit_early_stops_when_patience_runs_out():
    split = synthetic_split(seed=2)
    cfg = TrainConfig(
        method="mf", embed_dim=8, epochs=50, early_stop_patience=1,
        batch_size=1024, seed=2,
    )
    out = fit(split, cfg)
    assert len(out.history) < 50
    assert out.best_epoch <= len(out.history)


def test_fit_is_deterministic():
    split = synthetic_split(seed=3)
    cfg = TrainConfig(method="tide", variant="full", embed_dim=8, epochs=3,
                      batch_size=1024, tau=2e5, seed=3)
    a = fit(split, cfg)
    b = fit(split, cfg)
    assert np.array_equal(a.model.user_emb, b.model.user_emb)
    assert np.array_equal(a.model.q_raw, b.model.q_raw)
    assert a.history == b.history or all(
        ra["loss"] == rb["loss"] and ra["val_cp_rec"] == rb["val_cp_rec"]
        for ra, rb in zip(a.history, b.history)
    )


def test_write_history_csv(tmp_path):
    rows = [
        {"epoch": 1, "loss": 0.5, "val_cp_rec": 0.1, "wall_time": 0.01},
        {"epoch": 2, "loss": 0.25, "val_cp_rec": 0.2, "wall_time": 0.02},
    ]
    path = tmp_path / "history.csv"
    write_history(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,val_cp_rec,wall_time"
    assert len(lines) == 3
    assert lines[1].startswith("1,0.5,")
