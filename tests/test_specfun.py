"""Special-function kernel against frozen multiprecision pins.

Pin values were produced offline with a 50-digit arbitrary-precision
evaluation of the same integrals and are hard-coded here, so this module
never needs the oracle at test time.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form_digest
from beamharvest.specfun import (
    DomainError,
    RangeError,
    _log_gamma,
    lower_incomplete_gamma,
    regularized_gamma_q,
)

# (s, x, gamma_lower(s, x)) at 20 significant digits
LOWER_PINS = [
    (1.0 / 3.0, 0.31663, 1.8965090450378653374),
    (1.0, 1.0, 0.6321205588285576784),
    (0.5, 40.0, 1.7724538509055160266),
    (1.0 / 3.0, 2.7, 2.6499562528611518553),
    (5.5, 4.2, 16.902145583886440966),
    (0.9, 17.0, 1.0686286711069136255),
]

# (k, x, P(k, x), rel tol), read through Q = 1 - P; the k ~ 1e4 rows run
# into the unavoidable exponent cancellation k ln(x/k) - x + k, whose
# double-precision floor is a few 1e-12 regardless of algorithm
P_PINS = [
    (1.8847, 0.6315, 0.15623364861628303439, 5e-13),
    (1.0, math.log(2.0), 0.5, 5e-13),
    (1e4, 1e4, 0.50132980833995520038, 5e-11),
    (1e4, 9800.0, 0.022207543813969693862, 5e-11),
    (1e4, 10200.0, 0.97671267786640119605, 5e-11),
    (1451.0, 900.0, 5.781183514320187667e-64, 1e-10),
    (0.01, 1e-8, 0.83651025468523335601, 5e-13),
    (3.5, 1e6, 1.0, 5e-13),
]

# (k, Gamma(k), rel tol), read through ln Gamma
GAMMA_PINS = [
    (1.8847, 0.95661612150651836907, 1e-13),
    (0.5, 1.7724538509055160273, 1e-13),
    (171.6, 1.5858969096673028652e308, 5e-13),
    (1.0, 1.0, 1e-13),
    (6.0, 120.0, 1e-13),
]

LOG_GAMMA_PINS = [
    (1e4, 82099.717496442377273),
    (1451.3, 9111.7548968820292666),
]


@pytest.mark.parametrize("s,x,expected", LOWER_PINS)
def test_lower_incomplete_gamma_pins(s, x, expected):
    assert lower_incomplete_gamma(s, x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("k,x,expected,rtol", P_PINS)
def test_regularized_p_pins(k, x, expected, rtol):
    # Q = 1 - P to the pin's relative tolerance on the smaller of P and Q:
    # the P = 5.8e-64 row demands Q == 1.0 and the P = 1.0 row Q == 0.0
    tol = rtol * min(expected, 1.0 - expected)
    assert abs(regularized_gamma_q(k, x) - (1.0 - expected)) <= tol


@pytest.mark.parametrize("k,expected,rtol", GAMMA_PINS)
def test_gamma_function_pins(k, expected, rtol):
    # an absolute error e in ln Gamma is a relative error e in Gamma
    assert abs(_log_gamma(k) - math.log(expected)) <= rtol


@pytest.mark.parametrize("k,expected", LOG_GAMMA_PINS)
def test_log_gamma_pins(k, expected):
    assert _log_gamma(k) == pytest.approx(expected, rel=1e-14)


def test_q_tail_accuracy():
    # Q carries the tail: computing 1-P would lose it entirely here
    q = regularized_gamma_q(1451.0, 2200.0)
    assert 0 < q < 1e-50
    # and the other way round: P = 5.8e-64 is below the spacing of doubles at 1
    assert regularized_gamma_q(1451.0, 900.0) == 1.0


def test_x_zero():
    assert lower_incomplete_gamma(0.7, 0.0) == 0.0
    assert regularized_gamma_q(0.7, 0.0) == 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1.0, -0.5)
    with pytest.raises(DomainError):
        regularized_gamma_q(1.0, float("nan"))


def test_range_errors():
    with pytest.raises(RangeError):
        lower_incomplete_gamma(1.0, 2e6)  # x beyond supported range
    with pytest.raises(RangeError):
        regularized_gamma_q(1.5e4, 1.0)  # s beyond supported range


def test_shape_whose_reciprocal_overflows_is_out_of_range():
    # 1/s is inf, so the series could never converge: refused at once
    for s in (5e-324, 1e-309):
        with pytest.raises(RangeError, match="1/s overflows"):
            regularized_gamma_q(s, 0.5)
        with pytest.raises(RangeError, match="1/s overflows"):
            lower_incomplete_gamma(s, 0.5)
    # the continued fraction needs no 1/s and still answers
    assert regularized_gamma_q(5e-324, 2.0) == 0.0
    # a shape this small whose reciprocal is finite still converges
    assert 0.0 <= regularized_gamma_q(1e-300, 0.5) <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(min_value=0.01, max_value=200.0),
    x=st.floats(min_value=0.0, max_value=1e4),
)
def test_q_in_unit_interval(s, x):
    q = regularized_gamma_q(s, x)
    assert 0.0 <= q <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    s=st.floats(min_value=0.05, max_value=150.0),
    x=st.floats(min_value=1e-6, max_value=1e3),
    dx=st.floats(min_value=1e-6, max_value=10.0),
)
def test_q_nonincreasing_in_x(s, x, dx):
    assert regularized_gamma_q(s, x + dx) <= regularized_gamma_q(s, x)


@settings(max_examples=100, deadline=None)
@given(
    s=st.floats(min_value=0.1, max_value=100.0),
    x=st.floats(min_value=1e-3, max_value=500.0),
)
def test_lower_gamma_consistent_with_p(s, x):
    # two public routes to the same quantity must agree; P = 1 - Q carries
    # an absolute error of a few ulps of 1, which bounds the comparison
    # where P is small
    g = math.gamma(s)
    rhs = (1.0 - regularized_gamma_q(s, x)) * g
    assert lower_incomplete_gamma(s, x) == pytest.approx(rhs, rel=1e-11, abs=1e-15 * g)


def test_exponential_special_case():
    # s=1 reduces to 1 - e^{-x}
    for x in (0.01, 0.5, 3.0, 12.0):
        assert lower_incomplete_gamma(1.0, x) == pytest.approx(
            -math.expm1(-x), rel=1e-14
        )


def test_kernel_matches_its_bitwise_digest():
    # Q, gamma and ln Gamma on a grid through the series, continued-fraction
    # and reflection branches: catches any change of the Lanczos ln Gamma
    # (math.lgamma differs from it by up to 2.9e-11) or of the loop order
    lines = closed_form_digest.specfun_lines()
    assert len(lines) == 187
    assert closed_form_digest.digest(lines) == (
        "b165e6255c4ad4aa789995a746eb1d1e3a08e717e0deed2178f5dd05cba6eb28"
    )
