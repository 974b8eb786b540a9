"""Stable scalar nonlinearities shared across the model, trainer, and generator."""

from __future__ import annotations

import numpy as np

# tanh saturates to exactly +/-1.0 in float64 near |x| ~ 19, which would leak
# zero-gradient, boundary-valued scores; clamp to the largest open-interval
# representables instead.
TANH_HI = np.nextafter(1.0, 0.0)
TANH_LO = np.nextafter(-1.0, 0.0)


def softplus(x):
    """log(1 + exp(x)), stable in both tails: max(x, 0) + log1p(exp(-|x|)).

    Every step writes into one output array, so a score block costs the
    output plus one float64 temporary, fmax(x, 0), rather than one array per
    step. fmax, not maximum, drops a NaN input's second NaN: the sum then
    carries the log1p term's NaN bits whatever operand order the add's loop
    takes. Scalars and 0-d arrays come back as numpy scalars, like a ufunc's
    result.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    # where x <= 0 or is NaN, fmax gives +-0, and adding it leaves the log1p term (>= +0 or NaN) as it is
    out += np.fmax(x, 0.0)
    return out[()]


def inv_softplus(y):
    """Inverse of softplus for y > 0: log(expm1(y))."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("inv_softplus requires positive input")
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def sigmoid(x):
    # scipy is imported here, not at module level: only training calls this
    from scipy.special import expit

    return expit(x)


def bounded_tanh(x):
    """tanh clamped to the open interval (-1, 1)."""
    return np.clip(np.tanh(x), TANH_LO, TANH_HI)


def bpr_loss(pos_scores, neg_scores):
    """-log sigmoid(pos - neg), elementwise, as softplus(neg - pos)."""
    return softplus(np.asarray(neg_scores) - np.asarray(pos_scores))


def elu_plus_one(x):
    """exp(x) for x < 0, x + 1 otherwise: positive, smooth, identity-sloped."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0, np.exp(np.minimum(x, 0.0)), x + 1.0)


def elu_plus_one_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0, np.exp(np.minimum(x, 0.0)), 1.0)
