"""Comparison methods: plain MF, inverse-propensity-weighted MF, and PD/PDA.

All of them share the pairwise-ranking trainer; what differs is the forward
score and, for PD/PDA, how training-period popularity re-enters at serving
time. Popularity here is always a raw interaction count over training data,
bucketed by the same uniform time parts the chronological split uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import ChronoSplit, InteractionLog, part_assignments


@dataclass(frozen=True)
class PopularityTable:
    """Per-item training click counts, one row per uniform time part.

    ``t_min``/``t_max`` are the split's time range, so ``query`` assigns a
    time to its part exactly as the split assigned the training records.
    """

    per_period: np.ndarray
    t_min: int
    t_max: int

    @property
    def parts(self) -> int:
        return self.per_period.shape[0]

    @classmethod
    def from_train(cls, train: InteractionLog, t_min: int, t_max: int, parts: int) -> "PopularityTable":
        periods = part_assignments(train.times, t_min, t_max, parts)
        per_period = np.zeros((parts, train.n_items), dtype=np.int64)
        np.add.at(per_period, (periods, train.items), 1)
        return cls(per_period=per_period, t_min=t_min, t_max=t_max)

    @classmethod
    def from_split(cls, split: ChronoSplit) -> "PopularityTable":
        return cls.from_train(split.train, int(split.boundaries[0]), int(split.boundaries[-1]), split.parts)

    @cached_property
    def _normalized(self) -> np.ndarray:
        """Each part's counts scaled into [0, 1] by that part's max; an empty part stays 0."""
        counts = self.per_period.astype(np.float64)
        return counts / np.maximum(counts.max(axis=1, keepdims=True), 1.0)

    def query(self, items, times) -> np.ndarray:
        """Normalized popularity of each item in the part that holds its time (broadcast).

        A time past ``t_max`` reads the last part, as the split assigns it;
        a time before ``t_min`` has no part and is rejected.
        """
        times = np.asarray(times, dtype=np.int64)
        if times.size and times.min() < self.t_min:
            raise ValueError(f"time {int(times.min())} precedes the popularity table's start {self.t_min}")
        return self._normalized[part_assignments(times, self.t_min, self.t_max, self.parts), items]


def ips_weights_raw(counts: np.ndarray, cap: float) -> np.ndarray:
    """Per-item inverse-popularity weight min(N / max(P_i, 1), cap) from click counts P."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    return np.minimum(float(counts.sum()) / np.maximum(counts, 1), cap)


def ips_instance_weights(train: InteractionLog, cap: float) -> np.ndarray:
    """Per-interaction loss weights, normalized to mean exactly 1."""
    raw = ips_weights_raw(np.bincount(train.items, minlength=train.n_items), cap)[train.items]
    return raw / raw.mean()


def check_gamma(gamma: float) -> None:
    """PD/PDA's popularity exponent must lie in [0, 1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")


def pda_coefficient(pop, gamma: float) -> np.ndarray:
    """(period-normalized popularity)^gamma, the PD/PDA popularity factor."""
    check_gamma(gamma)
    return np.asarray(pop, dtype=np.float64) ** gamma
