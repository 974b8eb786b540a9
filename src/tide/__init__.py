"""Disentangling benign (quality) and harmful (conformity) popularity bias.

A user-item score factors as Tanh(quality + conformity(t)) * Softplus(match),
trained pairwise on implicit feedback; at serving time the conformity term
can be zeroed to keep the part of popularity that reflects intrinsic item
quality while discarding herd effects. The package also ships the synthetic
generator with planted ground truth, the MF / MF-IPS / PD / PDA baselines,
both ranking tasks, and the log-level bias diagnostics.
"""

from .dataset import (
    ChronoSplit,
    DataFormatError,
    InteractionLog,
    chrono_split,
    load_interactions,
    load_split,
    n_core_filter,
    save_split,
)
from .model import (
    FULL,
    INTERVENED,
    MATCHING_ONLY,
    NO_CONFORMITY,
    NO_QUALITY,
    ConformityIndex,
    InferenceMode,
    TideModel,
    fixed_quality,
    load_checkpoint,
    parse_mode,
    save_checkpoint,
)
from .synthgen import SynthConfig, SynthTruth, generate
from .trainer import TrainConfig, fit

__version__ = "0.1.0"

__all__ = [
    "ChronoSplit",
    "ConformityIndex",
    "DataFormatError",
    "FULL",
    "INTERVENED",
    "InteractionLog",
    "InferenceMode",
    "MATCHING_ONLY",
    "NO_CONFORMITY",
    "NO_QUALITY",
    "SynthConfig",
    "SynthTruth",
    "TideModel",
    "TrainConfig",
    "chrono_split",
    "fit",
    "fixed_quality",
    "generate",
    "load_checkpoint",
    "load_interactions",
    "load_split",
    "n_core_filter",
    "parse_mode",
    "save_checkpoint",
    "save_split",
    "__version__",
]
