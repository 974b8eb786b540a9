"""Synthetic click logs with planted quality and conformity parameters.

Each event picks a random user who clicks one item with probability
proportional to tanh(q*_i + beta*_i * S_i(t)) * softplus(e_u . e_i), where
S_i(t) is the exponentially decayed count of the item's strictly earlier
clicks. Ratings depend on planted quality plus noise only, never on the
conformity state, so the log carries a ground-truth separation that real
datasets lack: popularity mixes both causes, ratings reflect quality alone.

Event times are uniform over the horizon; any burstiness in the output is
produced by the conformity feedback itself, not by the arrival process.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import InteractionLog, save_interactions
from .numerics import bounded_tanh, softplus


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 1000
    n_items: int = 300
    embed_dim: int = 16
    quality_scale: float = 2.0
    beta_scale: float = 0.1
    tau: float = 5e5
    horizon: int = 20_000_000
    n_events: int = 100_000
    rating_noise: float = 0.8
    emb_std: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if min(self.n_users, self.n_items, self.embed_dim, self.n_events) < 1:
            raise ValueError("counts must be >= 1")
        if self.tau <= 0 or self.horizon <= 0:
            raise ValueError("tau and horizon must be positive")
        if min(self.quality_scale, self.beta_scale, self.rating_noise, self.emb_std) < 0:
            raise ValueError("scales must be nonnegative")


@dataclass(frozen=True)
class SynthTruth:
    """Planted per-item quality/conformity and the planted embeddings."""

    true_quality: np.ndarray
    true_beta: np.ndarray
    true_user_emb: np.ndarray
    true_item_emb: np.ndarray

    def validate(self, config: SynthConfig) -> None:
        if self.true_quality.shape != (config.n_items,) or self.true_beta.shape != (config.n_items,):
            raise ValueError("per-item truth length mismatch")
        if self.true_user_emb.shape != (config.n_users, config.embed_dim):
            raise ValueError("user embedding shape mismatch")
        if self.true_item_emb.shape != (config.n_items, config.embed_dim):
            raise ValueError("item embedding shape mismatch")
        if (self.true_quality < 0).any() or (self.true_beta < 0).any():
            raise ValueError("planted quality and beta must be nonnegative")


def sample_truth(config: SynthConfig, rng: np.random.Generator) -> SynthTruth:
    """q* ~ U(0, quality_scale), beta* ~ U(0, beta_scale), embeddings gaussian."""
    return SynthTruth(
        true_quality=rng.uniform(0.0, config.quality_scale, config.n_items),
        true_beta=rng.uniform(0.0, config.beta_scale, config.n_items),
        true_user_emb=rng.normal(0.0, config.emb_std, (config.n_users, config.embed_dim)),
        true_item_emb=rng.normal(0.0, config.emb_std, (config.n_items, config.embed_dim)),
    )


def generate(config: SynthConfig, truth: SynthTruth | None = None) -> tuple[InteractionLog, SynthTruth]:
    """Simulate the log sequentially; pass ``truth`` to plant exact parameters.

    The history is self-referential (each click raises its item's future
    conformity), so generation is inherently single-threaded. Same config and
    seed always produce the identical log.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    if truth is None:
        truth = sample_truth(config, rng)
    truth.validate(config)

    times = np.sort(rng.integers(0, config.horizon, config.n_events))
    users = rng.integers(0, config.n_users, config.n_events)
    item_u = rng.random(config.n_events)
    eps = rng.normal(0.0, 1.0, config.n_events)

    match = softplus(truth.true_user_emb @ truth.true_item_emb.T)
    q, beta = truth.true_quality, truth.true_beta
    q_mean = q.mean()

    items = np.empty(config.n_events, dtype=np.int64)
    ratings = np.empty(config.n_events, dtype=np.float64)
    decayed = np.zeros(config.n_items)   # clicks strictly before t_cur, decayed to t_cur
    pending = np.zeros(config.n_items)   # clicks at exactly t_cur
    t_cur = int(times[0])
    coeff = bounded_tanh(q + beta * decayed)
    for e in range(config.n_events):
        t = int(times[e])
        if t > t_cur:
            decayed = (decayed + pending) * np.exp(-(t - t_cur) / config.tau)
            pending[:] = 0.0
            t_cur = t
            coeff = bounded_tanh(q + beta * decayed)
        weights = coeff * match[users[e]]
        total = weights.sum()
        if total <= 0.0:
            raise ValueError(
                f"degenerate config: every click score is zero at event {e} "
                "(needs quality_scale > 0 or an already-clicked history)"
            )
        cdf = np.cumsum(weights)
        item = int(np.searchsorted(cdf, item_u[e] * total, side="right"))
        item = min(item, config.n_items - 1)
        pending[item] += 1.0
        items[e] = item
        raw = 3.0 + config.quality_scale * (q[item] - q_mean) + config.rating_noise * eps[e]
        ratings[e] = float(np.clip(np.round(raw), 1.0, 5.0))

    log = InteractionLog.build(users, items, times, ratings, config.n_users, config.n_items)
    return log, truth


def save_synth(log: InteractionLog, truth: SynthTruth, config: SynthConfig, outdir) -> Path:
    """Write interactions.tsv (loader-compatible) plus a JSON truth file."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_interactions(log, outdir / "interactions.tsv")
    payload = {
        "true_quality": truth.true_quality.tolist(),
        "true_beta": truth.true_beta.tolist(),
        "seed": config.seed,
        "config": asdict(config),
    }
    truth_path = outdir / "truth.json"
    truth_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return truth_path


def load_truth(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read back (true_quality, true_beta, config) from a truth file."""
    payload = json.loads(Path(path).read_text())
    return (
        np.asarray(payload["true_quality"], dtype=np.float64),
        np.asarray(payload["true_beta"], dtype=np.float64),
        payload["config"],
    )
