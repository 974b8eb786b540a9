"""Pairwise-ranking trainer shared by the disentangled model and all baselines.

One positive instance is paired with one uniformly sampled non-interacted
item; the loss is -log sigmoid(score_pos - score_neg). Gradients are written
out analytically (chain rule through tanh, softplus, the dot-product
backbone, and the softplus reparameterizations) and are row-sparse: each
batch reduces its per-pair terms onto its unique users and items, and a
sparse Adam update touches only those rows. Weight decay is decoupled and
hits touched embedding rows only; the per-item quality and conformity scales
are never decayed.

The negative instance is scored at the positive's timestamp, so both sides
of a pair see the same conformity landscape.

Ranking serves every method's coefficient * link of the match (``make_scorer``);
a scorer holds the coefficients at its build, so ``fit`` builds one per pass.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .baselines import PopularityTable, check_gamma, ips_instance_weights, pda_coefficient
from .dataset import ChronoSplit, DensePairSet, PairSet, check_settings, setting, settings
from .evaluation import ClickTask, rank_tasks
from .model import (
    FULL,
    INTERVENED,
    MATCHING_ONLY,
    NO_CONFORMITY,
    NO_QUALITY,
    ConformityIndex,
    InferenceMode,
    TideModel,
)
from .numerics import bounded_tanh, bpr_loss, elu_plus_one, elu_plus_one_grad, inv_softplus, sigmoid, softplus

if TYPE_CHECKING:
    from scipy import sparse

# Every method scores coefficient * L(m): Tanh(a) for tide, pop^gamma for
# pd/pda, 1 for mf. Per method: the link L of the match m and its derivative.
LINKS = {
    "tide": (softplus, sigmoid),
    "mf": (lambda m: m, lambda m: 1.0),
    "mf-ips": (lambda m: m, lambda m: 1.0),
    "pd": (elu_plus_one, elu_plus_one_grad),
    "pda": (elu_plus_one, elu_plus_one_grad),
}

# Per tide variant: the terms inside Tanh during training, the mode that
# selects the model on validation, and the modes `tide evaluate` defaults to.
# fixq's training mode takes its constant from TrainConfig.fixed_q.
VARIANTS = {
    "full": (FULL, FULL, ("full", "int", "e")),
    "noq": (NO_QUALITY, NO_QUALITY, ("noq",)),
    "noc": (NO_CONFORMITY, INTERVENED, ("noc",)),
    "fixq": (InferenceMode("fixq", conformity=True, fixed_quality=1.0), FULL, ("full", "int")),
}

METHODS = tuple(LINKS)
TIDE_VARIANTS = tuple(VARIANTS)
PARAMS = ("user_emb", "item_emb", "q_raw", "beta_raw")

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    method: str = setting("tide", "--method", choices=METHODS)
    variant: str = setting("full", "--ablation", choices=("noq", "noc", "fixq"))  # tide only: full | noq | noc | fixq
    fixed_q: float = setting(1.0, "--fixed-q")  # quality value for the fixq variant
    embed_dim: int = setting(32, "--embed-dim", ge=1)
    lr_emb: float = setting(1e-2, "--lr-emb", gt=0)
    lr_qb: float = setting(1e-2, "--lr-qb", gt=0)
    weight_decay_emb: float = setting(1e-4, "--weight-decay", ge=0)
    init_qb: float = setting(0.0, "--init-qb")
    init_std: float = setting(0.1, "--init-std", ge=0)
    batch_size: int = setting(8192, "--batch-size", ge=1)
    epochs: int = setting(100, "--epochs", ge=0)
    seed: int = setting(0, ge=0)
    early_stop_patience: int = setting(10, "--patience", ge=0)
    tau: float = setting(1e7, "--tau", gt=0)
    gamma: float = setting(0.1, "--gamma")  # pd/pda popularity exponent
    ips_cap: float = setting(30.0, "--ips-cap", gt=0)  # mf-ips weight cap
    k_select: int = setting(20, ge=1)  # validation CP-Rec@K for model selection

    def validate(self) -> None:
        """Reject every value ``fit`` would fail on or silently misuse, naming the key and the value."""
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.variant not in TIDE_VARIANTS:
            raise ValueError(f"unknown tide variant {self.variant!r}")
        check_settings(TRAIN_SETTINGS, vars(self))
        if self.method == "tide" and self.variant == "fixq" and self.fixed_q <= 0:
            raise ValueError(f"fixed_q must be positive for the fixq variant, got {self.fixed_q}")
        if self.method in ("pd", "pda"):
            check_gamma(self.gamma)

    def train_mode(self) -> InferenceMode | None:
        """The terms inside Tanh during training; None for the non-tide methods."""
        if self.method != "tide":
            return None
        mode = VARIANTS[self.variant][0]
        if mode.fixed_quality is not None:
            mode = replace(mode, fixed_quality=self.fixed_q)
        return mode

    def trained_params(self) -> tuple[str, ...]:
        mode = self.train_mode()
        if mode is None:
            return ("user_emb", "item_emb")
        return ("user_emb", "item_emb") + ("q_raw",) * mode.quality + ("beta_raw",) * mode.conformity

    def uses_conformity(self) -> bool:
        mode = self.train_mode()
        return mode is not None and mode.conformity


TRAIN_SETTINGS = settings(TrainConfig)


@dataclass
class TrainBatch:
    """One mini-batch plus the precomputed constants its forward pass needs.

    ``s_pos``/``s_neg`` are raw decayed history sums (parameter-free),
    ``pop_pos``/``pop_neg`` are period-normalized popularities, and
    ``weights`` are per-instance loss weights; unused fields stay None.
    """

    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    times: np.ndarray
    s_pos: np.ndarray | None = None
    s_neg: np.ndarray | None = None
    pop_pos: np.ndarray | None = None
    pop_neg: np.ndarray | None = None
    weights: np.ndarray | None = None


class AdamState:
    """Sparse Adam: moments advance only on rows the batch touched."""

    def __init__(self, model: TideModel):
        self.step = 0
        self.m1 = {name: np.zeros_like(getattr(model, name)) for name in PARAMS}
        self.m2 = {name: np.zeros_like(v) for name, v in self.m1.items()}

    def apply(self, model: TideModel, grads: dict, lrs: dict, decay: dict) -> None:
        """Update each parameter's rows from ``grads``: name -> (rows, row gradients)."""
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step
        bc2 = 1.0 - ADAM_BETA2 ** self.step
        for name, (rows, g) in grads.items():
            m1 = ADAM_BETA1 * self.m1[name][rows] + (1.0 - ADAM_BETA1) * g
            m2 = ADAM_BETA2 * self.m2[name][rows] + (1.0 - ADAM_BETA2) * g * g
            self.m1[name][rows] = m1
            self.m2[name][rows] = m2
            update = (m1 / bc1) / (np.sqrt(m2 / bc2) + ADAM_EPS)
            param = getattr(model, name)
            values = param[rows] - lrs[name] * update
            if decay.get(name, 0.0):
                values -= lrs[name] * decay[name] * values
            param[rows] = values


def init_model(cfg: TrainConfig, n_users: int, n_items: int) -> TideModel:
    """Fresh parameters; ablated variants pin the frozen component exactly.

    noq pins quality at softplus(-inf) = 0 and noc pins the conformity scale
    at 0, so every inference mode of the saved checkpoint stays consistent
    with how the model was trained.
    """
    model = TideModel.init(
        n_users, n_items, cfg.embed_dim,
        seed=cfg.seed, init_std=cfg.init_std, init_qb=cfg.init_qb, tau=cfg.tau,
    )
    mode = cfg.train_mode()
    if mode is not None:
        if mode.fixed_quality is not None:
            model.q_raw[:] = inv_softplus(mode.fixed_quality)
        elif not mode.quality:
            model.q_raw[:] = -np.inf
        if not mode.conformity:
            model.beta_raw[:] = -np.inf
    return model


def _unique_rows(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for ids in [0, n), with no sort.

    The ids are marked in an n-long array, whose marked positions are the
    ascending rows; a lookup from id to row position gives the inverse.
    """
    mark = np.zeros(n, dtype=bool)
    mark[ids] = True
    rows = np.flatnonzero(mark)
    lookup = np.empty(n, dtype=np.intp)
    lookup[rows] = np.arange(rows.size)
    return rows.astype(ids.dtype, copy=False), lookup[ids]


def _segment_sum(inverse: np.ndarray, n_rows: int) -> sparse.csc_matrix:
    """Unit-weight operator S with (S @ v)[r] = the sum of v[j] over inverse[j] == r.

    S has one column per term. The sparse kernel walks the columns in j order
    and adds each term into its row, which starts at 0.0: the order of
    ``np.add.at`` into zeros, so the sums are bit-identical to that scatter.
    The unit weights matter: folding a factor into S's data lets the kernel
    fuse multiply and add, which rounds differently.
    """
    from scipy import sparse  # imported on first use, so only training pays for it

    return sparse.csc_matrix(
        (np.ones(inverse.size), inverse, np.arange(inverse.size + 1)), shape=(n_rows, inverse.size)
    )


def batch_loss_and_row_grads(model: TideModel, batch: TrainBatch, cfg: TrainConfig) -> tuple[float, dict]:
    """Mean pairwise loss and analytic gradients on the rows the batch touched.

    Every method scores y = C * L(m), so one forward and one backward serve
    them all: dy/dm = C * L'(m), and for tide dy/da = (1 - tanh(a)^2) * L(m).
    Returns name -> (rows, gradient rows) for every trained parameter: the
    batch's sorted unique users for ``user_emb``, its unique positive and
    negative items for the rest. Item rows sum positive contributions before
    negative ones.
    """
    u, p, n = batch.users, batch.pos, batch.neg
    b = u.size
    w = batch.weights if batch.weights is not None else np.ones(b)
    link, link_grad = LINKS[cfg.method]
    mode = cfg.train_mode()
    user_rows, user_inv = _unique_rows(u, model.n_users)
    item_rows, item_inv = _unique_rows(np.concatenate([p, n]), model.n_items)
    per_user = _segment_sum(user_inv, user_rows.size)
    per_item = _segment_sum(item_inv, item_rows.size)

    e_u, e_p, e_n = model.user_emb[u], model.item_emb[p], model.item_emb[n]
    m_p = np.einsum("ij,ij->i", e_u, e_p)  # the backbone match m_ui on the gathered rows
    m_n = np.einsum("ij,ij->i", e_u, e_n)
    # the popularity coefficient C of each side, and for tide its Tanh input a.
    # Per-item terms are elementwise, so they are computed once per unique item
    # and gathered onto the 2b item terms through item_inv.
    if mode is not None:
        quality = softplus(model.q_raw[item_rows])[item_inv]
        scale = softplus(model.beta_raw[item_rows])[item_inv]
        a_p = mode.popularity_input(quality[:b], scale[:b], batch.s_pos)
        a_n = mode.popularity_input(quality[b:], scale[b:], batch.s_neg)
        c_p, c_n = bounded_tanh(a_p), bounded_tanh(a_n)
    elif cfg.method in ("pd", "pda"):
        c_p, c_n = pda_coefficient(batch.pop_pos, cfg.gamma), pda_coefficient(batch.pop_neg, cfg.gamma)
    else:
        c_p = c_n = 1.0
    l_p = link(m_p)
    l_n = link(m_n)
    y_p = c_p * l_p
    y_n = c_n * l_n

    d = sigmoid(y_n - y_p)
    gy_p = -(w * d / b)
    gy_n = +(w * d / b)
    gm_p = gy_p * c_p * link_grad(m_p)
    gm_n = gy_n * c_n * link_grad(m_n)
    # Per-pair contributions are built in the gathered rows, and the item
    # terms in one (2b, d) array, so a step holds at most three (b, d) arrays.
    e_p *= gm_p[:, None]
    e_n *= gm_n[:, None]
    e_p += e_n
    grads = {"user_emb": (user_rows, per_user @ e_p)}
    del e_p, e_n
    item_terms = np.empty((2 * b, e_u.shape[1]))
    np.multiply(gm_p[:, None], e_u, out=item_terms[:b])
    np.multiply(gm_n[:, None], e_u, out=item_terms[b:])
    del e_u
    grads["item_emb"] = (item_rows, per_item @ item_terms)
    if mode is not None:
        ga_p = gy_p * (1.0 - np.tanh(a_p) ** 2) * l_p
        ga_n = gy_n * (1.0 - np.tanh(a_n) ** 2) * l_n
        if mode.quality:
            terms = np.concatenate([ga_p, ga_n]) * sigmoid(model.q_raw[item_rows])[item_inv]
            grads["q_raw"] = (item_rows, per_item @ terms)
        if mode.conformity:
            terms = np.concatenate([ga_p * batch.s_pos, ga_n * batch.s_neg])
            terms *= sigmoid(model.beta_raw[item_rows])[item_inv]
            grads["beta_raw"] = (item_rows, per_item @ terms)

    loss = float(np.mean(w * bpr_loss(y_p, y_n)))
    return loss, grads


def batch_loss_and_grads(model: TideModel, batch: TrainBatch, cfg: TrainConfig) -> tuple[float, dict]:
    """Mean pairwise loss and dense gradients: the row gradients written into zeros."""
    loss, row_grads = batch_loss_and_row_grads(model, batch, cfg)
    grads = {name: np.zeros_like(getattr(model, name)) for name in PARAMS}
    for name, (rows, g) in row_grads.items():
        grads[name][rows] = g
    return loss, grads


def grad_step(model: TideModel, batch: TrainBatch, cfg: TrainConfig, adam: AdamState) -> float:
    """One analytic-gradient Adam step; returns the batch's mean loss."""
    loss, grads = batch_loss_and_row_grads(model, batch, cfg)
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite loss at adam step {adam.step + 1}")
    for name, (_, g) in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name} at adam step {adam.step + 1}")
    lrs = {"user_emb": cfg.lr_emb, "item_emb": cfg.lr_emb, "q_raw": cfg.lr_qb, "beta_raw": cfg.lr_qb}
    decay = {"user_emb": cfg.weight_decay_emb, "item_emb": cfg.weight_decay_emb}
    adam.apply(model, grads, lrs, decay)
    return loss


def sample_negatives(users: np.ndarray, seen: PairSet | DensePairSet, rng: np.random.Generator) -> np.ndarray:
    """Uniform negatives outside each user's pairs in ``seen``, by vectorized rejection.

    A user with a pair for every item has no negative and is refused before
    any draw. ``seen.dense()`` answers the same and faster, for a caller that
    samples from one set many times.
    """
    full = np.diff(seen.offsets)[users] >= seen.n_items
    if full.any():
        raise ValueError(f"user(s) {np.unique(users[full]).tolist()} interacted with every item "
                         "and have no negative")
    neg = rng.integers(0, seen.n_items, users.size)
    bad = np.flatnonzero(seen.contains(users, neg))
    while bad.size:
        neg[bad] = rng.integers(0, seen.n_items, bad.size)
        bad = bad[seen.contains(users[bad], neg[bad])]
    return neg


def make_scorer(model: TideModel, method: str, *modes: InferenceMode, t_eval: int | None = None,
                index: ConformityIndex | None = None, table: PopularityTable | None = None, gamma: float = 0.0):
    """Build score_blocks(users), which yields a (len(users), n_items) score block per mode, in order.

    Every method serves L(m) * coefficient, with L its link of the match m.
    Each mode's per-item coefficient is computed here, once: Tanh(a) for
    tide, pop^gamma for pda, none for mf, mf-ips and pd. A tide mode with no
    Tanh input serves m itself. So a scorer holds the coefficients of the
    parameters at its build; build one per ranking pass. Each block computes
    m and L(m) once for every mode, and the last mode to read L(m) scales it.
    The scorer keeps its block arrays across calls: m, L(m) and its link's
    fmax(m, 0) term (Softplus for tide, ELU + 1 for pd and pda), and a
    product for each scaled mode but the last. They are sized by the first
    call, grown by a longer block and sliced for a shorter one, so a yielded
    block is valid only until the scorer's next call. pda serves each item's popularity in the training
    part holding ``t_eval``. At ``t_eval = train.t_max`` that is the latest
    populated training part: the persistence predictor of serving-time
    popularity.
    """
    if not modes:
        raise ValueError("a scorer needs at least one mode")
    link = LINKS[method][0]
    if method == "tide":
        history = index is not None and t_eval is not None and any(mode.conformity for mode in modes)
        raw = index.query_at(t_eval) if history else None
        coefs = [model.coefficient(mode, raw) for mode in modes]
    elif method == "pda":
        if table is None or t_eval is None:
            raise ValueError("pda scoring needs a popularity table and t_eval")
        coefs = [pda_coefficient(table.query(np.arange(model.n_items), t_eval), gamma)] * len(modes)
    else:
        coefs = [None] * len(modes)
    scaled = [j for j, coef in enumerate(coefs) if coef is not None]
    bare = method == "tide"  # a mode without a coefficient serves m, not L(m)
    # mf's and mf-ips' L(m) is m itself, and tide reads L(m) only for a mode with a coefficient
    linking = method in ("pd", "pda") or (bare and bool(scaled))
    kept = {}

    def rows_of(name, rows: int) -> np.ndarray:
        """The first ``rows`` rows of the kept (rows, n_items) array ``name``, grown when a block outgrows it."""
        if name not in kept or kept[name].shape[0] < rows:
            kept[name] = np.empty((rows, model.n_items))
        return kept[name][:rows]

    def score_blocks(users):
        rows = len(users)
        m = np.matmul(model.user_emb[users], model.item_emb.T, out=rows_of("m", rows))
        linked = link(m, out=rows_of("link", rows), fmax_out=rows_of("fmax", rows)) if linking else m
        for j, coef in enumerate(coefs):
            if coef is None:
                yield m if bare else linked
            else:
                yield np.multiply(linked, coef, out=linked if j == scaled[-1] else rows_of(j, rows))

    return score_blocks


def selection_mode(cfg: TrainConfig) -> InferenceMode:
    """Native predictive mode used for validation-based selection."""
    return VARIANTS[cfg.variant][1] if cfg.method == "tide" else MATCHING_ONLY


@dataclass
class FitResult:
    model: TideModel
    history: list = field(default_factory=list)
    best_epoch: int | None = None
    best_metric: float | None = None


def fit(split: ChronoSplit, cfg: TrainConfig) -> FitResult:
    """Train on the split's first parts, select on validation CP-Rec@K.

    Keeps the parameters of the first epoch with the best validation metric,
    and stops once more than ``early_stop_patience`` epochs have passed since
    it. An empty validation partition ranks no user: the last epoch's stand.

    A user who clicked every item has no negative: their rows are left out of
    the pairwise loss (with a warning) but still feed the index and tables.
    """
    cfg.validate()
    train = split.train
    if not len(train):
        raise ValueError("training partition is empty")
    full_user = np.diff(train.pairs.offsets) >= train.n_items
    rows = np.flatnonzero(~full_user[train.users])  # the loss's rows; all of them unless a user is full
    if not rows.size:
        raise ValueError("every training user interacted with every item; no negative exists")
    if rows.size < len(train):
        warnings.warn(f"{int(full_user.sum())} user(s) interacted with every item and have no negative; "
                      f"skipping their {len(train) - rows.size} training rows")
    model = init_model(cfg, train.n_users, train.n_items)
    adam = AdamState(model)
    rng = np.random.default_rng(cfg.seed)

    seen = train.pairs.dense() if cfg.epochs else train.pairs  # built once, read by every epoch's sampler
    index = ConformityIndex.from_log(train, cfg.tau) if cfg.uses_conformity() else None
    table = PopularityTable.from_split(split) if cfg.method in ("pd", "pda") else None
    times = train.times[rows]
    # every epoch queries each row's time again for its new negative: rank it on the index clock once
    ranks = index.timeline.ranks(times) if index is not None else None

    def side_inputs(items, order, side: str) -> dict:
        """One side's forward inputs for the loss rows in ``order``: s_<side> conformity, pop_<side> popularity."""
        out = {}
        if index is not None:
            out[f"s_{side}"] = index.query(items, times[order], ranks[order])
        if table is not None:
            out[f"pop_{side}"] = table.query(items, times[order])
        return out

    # the positive side of every pair, one column per TrainBatch field
    positives = {"users": train.users[rows], "pos": train.items[rows], "times": times}
    positives.update(side_inputs(positives["pos"], slice(None), "pos"))
    if cfg.method == "mf-ips":
        positives["weights"] = ips_instance_weights(train, cfg.ips_cap)[rows]
        largest = np.bincount(train.items).max()
        if len(train) / largest >= cfg.ips_cap:
            warnings.warn(f"mf-ips trains as mf: no item holds more than 1/ips_cap of the training clicks "
                          f"(the largest holds {largest / len(train):.2%}), so ips_cap={cfg.ips_cap:g} "
                          "caps every weight and all of them normalize to 1")

    # the validation task does not change while training: build it once. A
    # scorer holds the coefficients of the parameters at its build, and Adam
    # updates them in place, so each epoch's pass builds its own.
    validation = ClickTask(train, split.validation, cfg.k_select)
    new_scorer = functools.partial(make_scorer, model, cfg.method, selection_mode(cfg),
                                   t_eval=train.t_max, index=index, table=table, gamma=cfg.gamma)

    result = FitResult(model=model)
    t0 = time.perf_counter()
    n = rows.size
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        columns = {name: col[order] for name, col in positives.items()}
        columns["neg"] = sample_negatives(columns["users"], seen, rng)
        columns.update(side_inputs(columns["neg"], order, "neg"))
        loss_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            hi = min(lo + cfg.batch_size, n)
            batch = TrainBatch(**{name: col[lo:hi] for name, col in columns.items()})
            loss_sum += grad_step(model, batch, cfg, adam) * (hi - lo)
        epoch_loss = loss_sum / n
        metric = rank_tasks(new_scorer(), [validation])[0][0]["recall"]
        result.history.append({
            "epoch": epoch,
            "loss": epoch_loss,
            "val_cp_rec": metric,
            "wall_time": time.perf_counter() - t0,
        })
        if metric is None:  # no validation user: result.model stays the live model
            continue
        if result.best_metric is None or metric > result.best_metric:
            result.model, result.best_epoch, result.best_metric = model.copy(), epoch, metric
        elif epoch - result.best_epoch > cfg.early_stop_patience:
            break
    return result
