"""Scalar activation helpers against closed-form values."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tide.numerics import (
    bounded_tanh,
    bpr_loss,
    elu_plus_one,
    elu_plus_one_grad,
    inv_softplus,
    sigmoid,
    softplus,
)


def test_softplus_closed_forms():
    assert math.isclose(float(softplus(0.0)), math.log(2.0), rel_tol=1e-15)
    assert math.isclose(float(softplus(-1.0)), math.log(1.0 + math.exp(-1.0)), rel_tol=1e-15)
    assert float(softplus(1000.0)) == 1000.0
    assert float(softplus(-1000.0)) == 0.0


def test_softplus_matches_naive_in_safe_range():
    rng = np.random.default_rng(0)
    x = rng.uniform(-30.0, 30.0, 1000)
    naive = np.log1p(np.exp(x))
    assert np.allclose(softplus(x), naive, rtol=1e-12, atol=0.0)


def assert_within_ulps(got, want, ulps):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite & ~np.isnan(want)], want[~finite & ~np.isnan(want)])
    with np.errstate(over="ignore"):  # the spacing of the largest float overflows
        ulp = np.spacing(np.abs(want[finite]))
    assert (np.abs(got[finite] - want[finite]) <= ulps * ulp).all()


SPECIAL = (np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 745.0, -745.0, 1e308, -1e308)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
    elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL)),
))
def test_softplus_within_4_ulp_of_logaddexp(x):
    got = softplus(x)
    with np.errstate(invalid="ignore"):
        want = np.logaddexp(0.0, x)
    assert np.ndim(got) == x.ndim
    assert_within_ulps(got, want, 4)


@given(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL)))
def test_softplus_scalars_and_0d_arrays_return_scalars(x):
    for arg in (x, np.float64(x), np.array(x)):
        got = softplus(arg)
        assert isinstance(got, np.float64)
        with np.errstate(invalid="ignore"):
            assert_within_ulps(got, np.logaddexp(0.0, x), 4)


def masked_add_softplus(x):
    """The former softplus, whose last step adds x only where x > 0: the bit-for-bit oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.add(out, x, out=out, where=x > 0.0)
    return out[()]


BITWISE_SPECIAL = SPECIAL + (-np.nan, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=24),
    elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(BITWISE_SPECIAL)),
))
def test_softplus_equals_the_masked_add_bit_for_bit(x):
    # NaNs of either sign and any payload included; long rows reach the SIMD loops, short ones their tails
    got, want = softplus(x), masked_add_softplus(x)
    assert type(got) is type(want)
    assert np.asarray(got).view(np.int64).tolist() == np.asarray(want).view(np.int64).tolist()
    if x.ndim == 0:
        for arg in (float(x), np.float64(x)):
            scalar = softplus(arg)
            assert isinstance(scalar, np.float64)
            assert np.asarray(scalar).view(np.int64) == np.asarray(want).view(np.int64)


def where_elu_plus_one(x):
    """The former elu_plus_one, a where over x < 0: the bit-for-bit oracle."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0, np.exp(np.minimum(x, 0.0)), x + 1.0)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=24),
    elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(BITWISE_SPECIAL)),
))
def test_elu_plus_one_equals_the_where_expression_bit_for_bit(x):
    # NaNs of either sign and any payload, subnormals and large x; into fresh arrays and into kept ones
    with np.errstate(invalid="ignore"):
        want = where_elu_plus_one(x)
        out, fmax_out = np.full_like(x, np.nan), np.full_like(x, np.nan)
        for got in (elu_plus_one(x), elu_plus_one(x, out=out, fmax_out=fmax_out)):
            assert type(got) is type(want) and got.shape == want.shape
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got is out


def test_softplus_leaves_its_input_alone():
    x = np.array([-3.0, 0.0, 2.5])
    before = x.copy()
    softplus(x)
    assert np.array_equal(x, before)


def test_softplus_is_positive_and_monotone():
    x = np.linspace(-50.0, 50.0, 10_001)
    y = softplus(x)
    assert (y > 0.0).all()
    assert (np.diff(y) >= 0.0).all()


def test_inv_softplus_roundtrip():
    rng = np.random.default_rng(1)
    y = rng.uniform(1e-6, 50.0, 1000)
    assert np.allclose(softplus(inv_softplus(y)), y, rtol=1e-9, atol=1e-12)
    big = np.array([31.0, 100.0, 500.0])
    assert np.array_equal(inv_softplus(big), big)


def test_sigmoid_closed_forms():
    assert float(sigmoid(0.0)) == 0.5
    assert math.isclose(float(sigmoid(1.0)), 1.0 / (1.0 + math.exp(-1.0)), rel_tol=1e-15)
    assert float(sigmoid(-800.0)) == 0.0
    assert float(sigmoid(800.0)) == 1.0


def test_bounded_tanh_stays_inside_open_interval():
    x = np.array([-1e9, -40.0, 0.0, 40.0, 1e9, np.inf, -np.inf])
    y = bounded_tanh(x)
    assert (y > -1.0).all()
    assert (y < 1.0).all()


def test_bounded_tanh_matches_tanh_away_from_saturation():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5.0, 5.0, 1000)
    assert np.allclose(bounded_tanh(x), np.tanh(x), rtol=0.0, atol=1e-15)


def test_bpr_loss_closed_forms():
    # -log sigmoid(pos - neg) = softplus(neg - pos)
    assert math.isclose(float(bpr_loss(0.0, 0.0)), math.log(2.0), rel_tol=1e-15)
    assert math.isclose(float(bpr_loss(2.0, 1.0)), math.log(1.0 + math.exp(-1.0)), rel_tol=1e-14)
    assert float(bpr_loss(1000.0, 0.0)) == 0.0


def test_bpr_loss_decreases_as_margin_grows():
    margins = np.linspace(-5.0, 5.0, 101)
    losses = bpr_loss(margins, np.zeros_like(margins))
    assert (np.diff(losses) < 0.0).all()


def test_elu_plus_one_value_and_grad():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    want = np.where(x < 0.0, np.exp(x), x + 1.0)
    assert np.allclose(elu_plus_one(x), want, rtol=1e-15)
    assert (elu_plus_one(np.array([-700.0, -10.0, 0.0, 10.0])) > 0.0).all()
    h = 1e-6
    fd = (elu_plus_one(x + h) - elu_plus_one(x - h)) / (2.0 * h)
    assert np.allclose(elu_plus_one_grad(x), fd, rtol=1e-6, atol=1e-9)
