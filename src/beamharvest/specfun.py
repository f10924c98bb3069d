"""Special-function kernel: the incomplete gamma functions the closed forms call.

The Laplace factors use the lower incomplete gamma gamma(s, x) and the Gamma
fit's CCDF uses the regularized upper tail Q(s, x). Both split at x = s + 1
between a power series and a continued fraction, and both normalize by a
9-term Lanczos ln Gamma with reflection below 1/2. Both take real
arguments, judged as doubles (README, "Argument rules"); everything here is
double-precision code without numpy or scipy.
"""

from __future__ import annotations

import math

from ._args import real

__all__ = [
    "DomainError",
    "RangeError",
    "S_MAX",
    "X_MAX",
    "lower_incomplete_gamma",
    "regularized_gamma_q",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain (no real number, non-finite, s <= 0, x < 0)."""


class RangeError(ValueError):
    """Argument inside the domain but outside the supported numeric range."""


# Supported argument ranges. Values beyond these raise RangeError instead of
# silently losing accuracy.
S_MAX = 1.0e4
X_MAX = 1.0e6

_EPS = 2.220446049250313e-16
_TINY = 1.0e-300
_LOG_MAX = 709.0
_MAX_ITER = 4000

# Lanczos g=7, n=9 coefficients (max relative error ~1e-15 over the right
# half-plane).
_LANCZOS_G = 7.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _check_sx(s: float, x: float) -> tuple[float, float]:
    """The doubles s and x are judged as: 0 < s <= S_MAX, 0 <= x <= X_MAX."""
    s_value, x_value = real(s), real(x)
    if s_value is None or x_value is None:
        raise DomainError(f"arguments must be real numbers, got s={s!r}, x={x!r}")
    if not (-math.inf < s_value < math.inf and -math.inf < x_value < math.inf):
        raise DomainError("arguments must be finite")
    if s_value <= 0.0:
        raise DomainError(f"shape must be positive, got s={s!r}")
    if x_value < 0.0:
        raise DomainError(f"integration limit must be nonnegative, got x={x!r}")
    if s_value > S_MAX:
        raise RangeError(f"shape s={s!r} exceeds supported maximum {S_MAX!r}")
    if x_value > X_MAX:
        raise RangeError(f"limit x={x!r} exceeds supported maximum {X_MAX!r}")
    return s_value, x_value


def _lanczos_sum(z: float) -> float:
    # sum of _LANCZOS[i] / (z + i - 1) for i >= 1, term by term; (z + i) - 1
    # rounds differently from z + (i - 1), and the pinned values use the former
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _LANCZOS
    return (
        c0
        + c1 / (z + 1.0 - 1.0)
        + c2 / (z + 2.0 - 1.0)
        + c3 / (z + 3.0 - 1.0)
        + c4 / (z + 4.0 - 1.0)
        + c5 / (z + 5.0 - 1.0)
        + c6 / (z + 6.0 - 1.0)
        + c7 / (z + 7.0 - 1.0)
        + c8 / (z + 8.0 - 1.0)
    )


def _log_gamma(k: float) -> float:
    """ln Gamma(k) for a k already checked to lie in (0, S_MAX]."""
    if k < 0.5:
        return math.log(math.pi / math.sin(math.pi * k)) - _log_gamma(1.0 - k)
    z = k - 1.0
    t = z + _LANCZOS_G + 0.5
    return (
        _HALF_LOG_2PI
        + (z + 0.5) * math.log(t)
        - t
        + math.log(_lanczos_sum(z + 1.0))
    )


def _log_lower_series(s: float, x: float) -> float:
    """ln gamma(s,x) by power series, for 0 < x < s + 1."""
    ap = s
    term = 1.0 / s
    if term == math.inf:  # an infinite total never meets the stopping test
        raise RangeError(f"shape s={s!r} is too small: 1/s overflows")
    total = term
    eps = _EPS
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * eps:  # every term and the total are positive
            return math.log(total) + s * math.log(x) - x
    raise ArithmeticError(f"gamma({s!r}, {x!r}) series did not converge")


def _q_contfrac(s: float, x: float) -> float:
    """Regularized Q(s,x) by modified-Lentz continued fraction; for x >= s + 1."""
    tiny, eps = _TINY, _EPS
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for n in range(1, _MAX_ITER + 1):
        an = -n * (n - s)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            log_pre = s * math.log(x) - x - _log_gamma(s)
            if log_pre < -745.0:
                return 0.0
            return math.exp(log_pre) * h
    raise ArithmeticError(f"Q({s!r}, {x!r}) continued fraction did not converge")


def regularized_gamma_q(k: float, x: float) -> float:
    """Upper tail Q(k,x) = Gamma(k,x)/Gamma(k) in [0,1].

    Computed on its own branch for x >= k + 1, so tails far below the
    double-precision spacing of 1 keep their relative accuracy.
    """
    if not (type(k) is float and type(x) is float and 0.0 < k <= S_MAX and 0.0 <= x <= X_MAX):
        k, x = _check_sx(k, x)  # floats in range, the common case, skip the call
    if x == 0.0:
        return 1.0
    if x < k + 1.0:
        q = 1.0 - math.exp(_log_lower_series(k, x) - _log_gamma(k))
    else:
        q = _q_contfrac(k, x)
    # clamp into [0, 1] with two comparisons; -0.0 and NaN pass through as they are
    return 0.0 if q < 0.0 else 1.0 if q > 1.0 else q


def lower_incomplete_gamma(s: float, x: float) -> float:
    """gamma(s,x) = integral of t^(s-1) e^(-t) over [0,x].

    Series for x < s+1, continued fraction (as Gamma(s) minus the upper tail)
    for x >= s+1. Raises RangeError when the value overflows double
    precision; regularized_gamma_q covers that regime.
    """
    if not (type(s) is float and type(x) is float and 0.0 < s <= S_MAX and 0.0 <= x <= X_MAX):
        s, x = _check_sx(s, x)
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        log_value = _log_lower_series(s, x)
    else:
        # q = Q(s,x) is well inside (0, 0.7] here, so log1p loses nothing
        log_value = _log_gamma(s) + math.log1p(-_q_contfrac(s, x))
    if log_value > _LOG_MAX:
        raise RangeError(
            f"gamma({s!r}, {x!r}) overflows double precision; "
            "use regularized_gamma_q"
        )
    return math.exp(log_value)
