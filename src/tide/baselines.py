"""Comparison methods: plain MF, inverse-propensity-weighted MF, and PD/PDA.

All of them share the pairwise-ranking trainer; what differs is the forward
score and, for PD/PDA, how training-period popularity re-enters at serving
time. Popularity here is always a raw interaction count over training data,
bucketed by the same uniform time parts the chronological split uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ChronoSplit, InteractionLog, part_assignments
from .numerics import elu_plus_one


@dataclass(frozen=True)
class PopularityTable:
    """Per-item training click counts, globally and per uniform time part."""

    global_counts: np.ndarray
    per_period: np.ndarray
    parts: int

    def __post_init__(self):
        if self.per_period.shape != (self.parts, self.global_counts.size):
            raise ValueError("per_period shape must be (parts, n_items)")
        if not np.array_equal(self.per_period.sum(axis=0), self.global_counts):
            raise ValueError("per-period counts must sum to the global counts")

    @property
    def n_items(self) -> int:
        return int(self.global_counts.size)

    @classmethod
    def from_train(cls, train: InteractionLog, t_min: int, t_max: int, parts: int) -> "PopularityTable":
        periods = part_assignments(train.times, t_min, t_max, parts)
        per_period = np.zeros((parts, train.n_items), dtype=np.int64)
        np.add.at(per_period, (periods, train.items), 1)
        return cls(
            global_counts=per_period.sum(axis=0),
            per_period=per_period,
            parts=parts,
        )

    @classmethod
    def from_split(cls, split: ChronoSplit) -> "PopularityTable":
        t_min = int(split.boundaries[0])
        t_max = int(split.boundaries[-1])
        return cls.from_train(split.train, t_min, t_max, split.parts)

    def normalized(self, period: int) -> np.ndarray:
        """Period-local popularity scaled into [0, 1] by the period max."""
        counts = self.per_period[period].astype(np.float64)
        return counts / max(counts.max(), 1.0)

    def last_train_normalized(self) -> np.ndarray:
        """Persistence predictor of serving-time popularity.

        The final part is held out, so the newest observed popularity is the
        part just before it; fall back to earlier parts if that one is empty.
        """
        for period in range(self.parts - 2, -1, -1):
            if self.per_period[period].sum() > 0:
                return self.normalized(period)
        raise ValueError("popularity table has no populated training period")


def ips_weights_raw(table: PopularityTable, cap: float) -> np.ndarray:
    """Per-item inverse-popularity weight min(N / max(P_i, 1), cap)."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    total = float(table.global_counts.sum())
    return np.minimum(total / np.maximum(table.global_counts, 1), cap)


def ips_instance_weights(train: InteractionLog, table: PopularityTable, cap: float) -> np.ndarray:
    """Per-interaction loss weights, normalized to mean exactly 1."""
    raw = ips_weights_raw(table, cap)[train.items]
    return raw / raw.mean()


def check_gamma(gamma: float) -> None:
    """PD/PDA's popularity exponent must lie in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")


def pda_coefficient(pop, gamma: float) -> np.ndarray:
    """(period-normalized popularity)^gamma, the PD/PDA popularity factor."""
    check_gamma(gamma)
    return np.asarray(pop, dtype=np.float64) ** gamma


def pda_infer(m: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Serving score re-injecting predicted (persisted) popularity.

    ``coef`` is ``pda_coefficient(pop_tilde, gamma)``, computed once per
    scorer and broadcast over a block of users' matching scores.
    """
    return coef * elu_plus_one(m)
