"""Quality/conformity-disentangled scoring model over a matching backbone.

An item's score at time t is Tanh(q_i + c_i^t) * Softplus(m_ui):

* q_i >= 0 is a static per-item quality, parameterized q_i = softplus(q_raw_i);
* c_i^t = beta_i * sum_l exp(-(t - t_l) / tau) is time-decayed conformity over
  the item's strictly earlier interactions, beta_i = softplus(beta_raw_i); the
  sums come from the recursion S_k = 1 + exp(-(t_k - t_{k-1}) / tau) * S_{k-1}
  per click, whose exponents are never positive, so any span/tau works;
* m_ui is the user/item match from a dot-product embedding backbone.

Because q_i + c_i^t > 0, the popularity coefficient Tanh(.) lies in (0, 1) and
multiplies, never flips, the matching signal. Inference modes recombine the
same fitted parameters: zeroing conformity at serving time keeps the benign
quality effect while discarding the herd effect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import InteractionLog, ItemTimeline
from .numerics import bounded_tanh, chain_sums, softplus

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class InferenceMode:
    """Which fitted terms enter the popularity coefficient Tanh(a).

    ``quality`` adds the learned q_i to a, ``conformity`` adds beta_i * s_i(t),
    and ``fixed_quality`` stands in for the learned q_i with one constant. A
    mode with none of them scores by the bare match m_ui.
    """

    kind: str
    quality: bool = False
    conformity: bool = False
    fixed_quality: float | None = None

    def popularity_input(self, quality, scale, raw) -> np.ndarray | None:
        """The Tanh input a, or None when the mode scores by matching alone.

        ``quality`` and ``scale`` are per-item q and beta aligned with the
        scored items; ``raw`` is their decayed history sums, needed only
        when the mode uses conformity.
        """
        a = None
        if self.fixed_quality is not None:
            a = np.full(np.shape(quality), self.fixed_quality)
        elif self.quality:
            a = quality
        if self.conformity:
            if raw is None:
                raise ValueError(f"mode {self.kind!r} requires interaction history (times and index)")
            c = scale * raw
            a = c if a is None else a + c
        return a


FULL = InferenceMode("full", quality=True, conformity=True)
INTERVENED = InferenceMode("intervened", quality=True)
MATCHING_ONLY = InferenceMode("matching-only")
NO_QUALITY = InferenceMode("no-quality", conformity=True)
NO_CONFORMITY = InferenceMode("no-conformity", quality=True)


def fixed_quality(value: float) -> InferenceMode:
    return InferenceMode("fixed-quality", fixed_quality=float(value))


_MODE_ALIASES = {
    "full": FULL,
    "int": INTERVENED,
    "e": MATCHING_ONLY,
    "noq": NO_QUALITY,
    "noc": NO_CONFORMITY,
}


def parse_mode(text: str) -> InferenceMode:
    """Parse a mode flag: full, int, e, noq, noc, or fixq:<value> with a positive, finite value."""
    text = text.strip()
    if text in _MODE_ALIASES:
        return _MODE_ALIASES[text]
    if text.startswith("fixq"):
        _, sep, raw = text.partition(":")
        if not sep or not raw:
            raise ValueError("fixq mode needs a value, e.g. fixq:1.5")
        try:
            value = float(raw)
        except ValueError:
            value = math.nan  # not a number: refused below in the one wording
        # tanh(v) must lie in (0, 1), as every learned quality's does: NaN, 0 or a
        # negative v would serve all-NaN, all-tied or sign-flipped scores
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"mode {text!r}: the fixed quality must be a positive, finite number")
        return fixed_quality(value)
    raise ValueError(f"unknown inference mode {text!r}")


class ConformityIndex:
    """Per-item decayed click sums with O(log n) point queries.

    For item i at time t the raw conformity weight is
    sum over earlier clicks l of exp(-(t - t_l) / tau), t_l < t strictly.
    Each click k keeps S_k = 1 + exp(-(t_k - t_{k-1}) / tau) * S_{k-1} (1 at the
    item's first click); a query binary-searches the item's last click k before
    t and returns exp(-(t - t_k) / tau) * S_k. No exponent is ever positive, so
    the log's span is not limited relative to tau.
    """

    def __init__(self, items, times, n_items: int, tau: float):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)
        self.n_items = int(n_items)
        self.timeline = tl = ItemTimeline(items, times, n_items)
        first = np.diff(tl.items, prepend=-1) != 0
        # exp(-inf) = 0 at each item's first click: no sum leaks across items
        reach = np.exp(-np.where(first, np.inf, np.diff(tl.times, prepend=0)) / self.tau)
        self.sums = chain_sums(reach, np.diff(tl.offsets).max(initial=0))

    @classmethod
    def from_log(cls, log: InteractionLog, tau: float) -> "ConformityIndex":
        return cls(log.items, log.times, log.n_items, tau)

    def query(self, items, times, ranks=None) -> np.ndarray:
        """Raw decayed sums for (item, time) pairs; strictly earlier clicks only.

        ``ranks`` may carry ``self.timeline.ranks(times)``, so times queried
        every epoch are ranked on the index clock once.
        """
        items = np.atleast_1d(np.asarray(items, dtype=np.int64))
        ts = np.atleast_1d(np.asarray(times, dtype=np.int64))
        if items.shape != ts.shape:
            raise ValueError("items and times differ in shape")
        if ranks is not None and np.shape(ranks) != ts.shape:
            raise ValueError("ranks and times differ in shape")
        tl = self.timeline
        pos = tl.before(items, ts, ranks)
        hit = np.flatnonzero(pos > tl.offsets[items])
        last = pos[hit] - 1
        out = np.zeros(items.size, dtype=np.float64)
        out[hit] = np.exp(-(ts[hit] - tl.times[last]) / self.tau) * self.sums[last]
        return out

    def query_at(self, t: int) -> np.ndarray:
        """Raw decayed sums for every item at one shared time t."""
        return self.query(np.arange(self.n_items), np.full(self.n_items, t))


@dataclass
class TideModel:
    """Fitted parameters; all arrays are float64."""

    user_emb: np.ndarray
    item_emb: np.ndarray
    q_raw: np.ndarray
    beta_raw: np.ndarray
    tau: float

    @classmethod
    def init(
        cls,
        n_users: int,
        n_items: int,
        dim: int,
        seed: int = 0,
        init_std: float = 0.1,
        init_qb: float = 0.0,
        tau: float = 1e7,
    ) -> "TideModel":
        rng = np.random.default_rng(seed)
        return cls(
            user_emb=rng.normal(0.0, init_std, size=(n_users, dim)),
            item_emb=rng.normal(0.0, init_std, size=(n_items, dim)),
            q_raw=np.full(n_items, float(init_qb)),
            beta_raw=np.full(n_items, float(init_qb)),
            tau=float(tau),
        )

    @property
    def n_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.user_emb.shape[1]

    @property
    def quality(self) -> np.ndarray:
        return softplus(self.q_raw)

    @property
    def conformity_scale(self) -> np.ndarray:
        return softplus(self.beta_raw)

    def coefficient(self, mode: InferenceMode, raw=None) -> np.ndarray | None:
        """Each item's Tanh(a) under ``mode``, or None without a Tanh input; ``raw`` is ``query_at``'s sums."""
        a = mode.popularity_input(self.quality, self.conformity_scale, raw)
        return None if a is None else bounded_tanh(a)

    def score_all_items(self, users, t: int | None = None, index: ConformityIndex | None = None,
                        mode: InferenceMode = FULL) -> np.ndarray:
        """Tanh(a) * Softplus(m) over every item at one time: a row per user, (len(users), n_items).

        A mode with no Tanh input a serves the bare match m. A scalar user
        gives one 1-D row. This is the one-mode reference: ranking serves
        its blocks from ``trainer.make_scorer``, which gives the same bits.
        """
        raw = index.query_at(t) if mode.conformity and index is not None and t is not None else None
        coef = self.coefficient(mode, raw)
        m = self.user_emb[users] @ self.item_emb.T
        return m if coef is None else softplus(m) * coef

    def copy(self) -> "TideModel":
        return replace(
            self,
            user_emb=self.user_emb.copy(),
            item_emb=self.item_emb.copy(),
            q_raw=self.q_raw.copy(),
            beta_raw=self.beta_raw.copy(),
        )


def save_checkpoint(model: TideModel, path, meta: dict | None = None) -> None:
    """Persist parameters as an uncompressed npz with a JSON sidecar field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        n_users=np.int64(model.n_users),
        n_items=np.int64(model.n_items),
        dim=np.int64(model.dim),
        tau=np.float64(model.tau),
        user_emb=model.user_emb,
        item_emb=model.item_emb,
        q_raw=model.q_raw,
        beta_raw=model.beta_raw,
        meta_json=np.str_(json.dumps(meta or {}, sort_keys=True)),
    )


def load_checkpoint(path) -> tuple[TideModel, dict]:
    """Load a checkpoint; returns (model, meta).

    An array of another shape than the stored n_users, n_items and dim give is refused.
    Older files also carry an ``anchor`` field, which nothing reads any more.
    """
    with np.load(Path(path), allow_pickle=False) as npz:
        version = int(npz["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n_users, n_items, dim = (int(npz[key]) for key in ("n_users", "n_items", "dim"))
        shapes = {"user_emb": (n_users, dim), "item_emb": (n_items, dim), "q_raw": (n_items,), "beta_raw": (n_items,)}
        arrays = {name: npz[name].astype(np.float64) for name in shapes}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(f"{path}: {name} has shape {arrays[name].shape}, but n_users={n_users}, "
                                 f"n_items={n_items} and dim={dim} give it {shape}")
        model = TideModel(**arrays, tau=float(npz["tau"]))
        meta = json.loads(str(npz["meta_json"]))
    return model, meta
