"""Stable scalar nonlinearities shared across the model, trainer, and generator."""

from __future__ import annotations

import numpy as np

# tanh saturates to exactly +/-1.0 in float64 near |x| ~ 19, which would leak
# zero-gradient, boundary-valued scores; clamp to the largest open-interval
# representables instead.
TANH_HI = np.nextafter(1.0, 0.0)
TANH_LO = np.nextafter(-1.0, 0.0)


def softplus(x, out=None, fmax_out=None):
    """log(1 + exp(x)), stable in both tails: max(x, 0) + log1p(exp(-|x|)).

    Every step writes into one output array, so a score block costs the
    output plus one float64 temporary, fmax(x, 0), rather than one array per
    step. A caller that keeps arrays of x's shape passes them as ``out`` and
    ``fmax_out`` (neither overlapping x), and the call allocates nothing.
    fmax, not maximum, drops a NaN input's second NaN: the sum then
    carries the log1p term's NaN bits whatever operand order the add's loop
    takes. Scalars and 0-d arrays come back as numpy scalars, like a ufunc's
    result.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    # where x <= 0 or is NaN, fmax gives +-0, and adding it leaves the log1p term (>= +0 or NaN) as it is
    out += np.fmax(x, 0.0, out=fmax_out)
    return out[()]


def chain_sums(reach, longest):
    """Each entry's S_k = 1 + reach_k * S_{k-1}, for chains cut by reach = 0.

    A doubling scan: after the step with stride d each entry holds the
    recursion over its last 2d entries as the map S -> sums + reach * S; the
    zeros cut the chains, so ``longest``, the longest chain, bounds the
    steps. ``reach`` is used up as scratch.
    """
    sums = np.ones_like(reach)
    d = 1
    while d < longest:
        sums[d:] += reach[d:] * sums[:-d]
        reach[d:] = reach[d:] * reach[:-d]
        d *= 2
    return sums


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


def elu_plus_one(x, out=None, fmax_out=None):
    """exp(x) for x < 0, x + 1 otherwise: positive, smooth, identity-sloped.

    Computed as exp(min(x, 0)) + fmax(x, 0), which is exp(x) + 0 below 0
    and 1 + x from 0 on, and carries a NaN input's bits. ``out`` and
    ``fmax_out`` work as in ``softplus``: a caller that keeps arrays of x's
    shape passes them, and the call allocates nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    out += np.fmax(x, 0.0, out=fmax_out)
    return out


def elu_plus_one_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0, np.exp(np.minimum(x, 0.0)), 1.0)
