"""Closed-form received-power statistics at the typical sensor.

Beacons within the charging radius ("near") always aim a beam at the sensor;
beacons beyond it ("far") only hit it when one of their active sectors happens
to point the right way. Thinning the beacon field by the number of active
sectors M gives a family of homogeneous fields with antenna gain N/M, and
every quantity here (reception probabilities, Laplace transforms, mean,
variance, Gamma-matched CCDF, radius derivative of the mean) is the exact
closed form of that decomposition under the bounded path loss
[max(d, 1)]^(-alpha).

All formulas split at charging_radius = 1 (the path-loss clamp distance); the
two branches agree at the seam. Functions are pure and thread-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import specfun
from ._args import is_count, real
from .scenario import MAX_SECTORS, ScenarioParams, validate

__all__ = [
    "MAX_SECTORS",
    "GammaApprox",
    "sector_empty_prob",
    "gain",
    "reception_prob_near",
    "reception_prob_far",
    "laplace_near",
    "laplace_far",
    "laplace_total",
    "laplace_omni",
    "log_laplace_total",
    "log_laplace_omni",
    "mean_power",
    "mean_power_omni",
    "variance_power",
    "variance_omni",
    "near_far_mean_ratios",
    "gamma_approx",
    "gamma_approx_omni",
    "gamma_ccdf",
    "gamma_ccdf_omni",
    "d_mean_d_rho",
]

#: Laplace argument cap: s * pb_power * attenuation * gain must stay within
#: the special-function kernel's x range.
LAPLACE_ARG_MAX = 1.0e6


@dataclass(frozen=True)
class GammaApprox:
    """Moment-matched Gamma law: shape k = E^2/V, scale theta = V/E (watts)."""

    shape: float
    scale: float

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale


@functools.cache  # a table: every caller has n <= MAX_SECTORS
def _binom_row(n: int) -> tuple[float, ...]:
    """C(n, k) for k = 0..n, the binomial coefficients every formula reads."""
    lg = math.lgamma
    return tuple(math.exp(lg(n + 1) - lg(k + 1) - lg(n - k + 1)) for k in range(n + 1))


# The last scenario _occupancy saw and its result: gamma_approx asks twice
# for the same instance (mean, then variance). One tuple, swapped whole, so
# a reader in another thread sees a matching pair; holding the instance keeps
# its identity from being reused.
_last_occupancy: tuple = (None, None)


def _occupancy(params: ScenarioParams) -> tuple[float, float, float]:
    """(p, q, p^N): sector-empty probability, complement, all-empty probability.

    p^N is evaluated as exp(-lambda_s pi rho^2) directly so it stays accurate
    when p itself underflows. Raises RangeError when rho^2 overflows.
    """
    global _last_occupancy
    last, result = _last_occupancy
    if last is params:
        return result
    try:
        x = params.sn_density * math.pi * params.charging_radius**2 / params.sectors
        p_all = math.exp(-params.sn_density * math.pi * params.charging_radius**2)
    except OverflowError:
        raise specfun.RangeError(
            f"charging_radius {params.charging_radius!r} squared overflows"
        ) from None
    result = (math.exp(-x), -math.expm1(-x), p_all)
    _last_occupancy = (params, result)
    return result


def _geo_sum(p: float, n_terms: int, first: int) -> float:
    """sum of p^j for j in [first, n_terms), first 0 or 1: the stable form of
    (1-p^N)/(1-p) or (p-p^N)/(1-p)."""
    acc = float(1 - first)
    term = 1.0
    for _ in range(n_terms - 1):
        term *= p
        acc += term
    return acc


def sector_empty_prob(params: ScenarioParams) -> float:
    """Probability that one sector of a beacon's charging disk holds no sensor.

    Sensor counts in the N equal sectors are independent Poissons, so this is
    exp(-sn_density * pi * rho^2 / N).
    """
    validate(params)
    return _occupancy(params)[0]


def _check_active(m: int, lo: int, n: int) -> None:
    """Domain of an active-sector count M: an integer in [lo, n]."""
    if not is_count(m):
        raise ValueError("active_sectors must be an integer")
    if m < lo or m > n:
        raise ValueError(f"need {lo} <= M <= {n}, got {m}")


def gain(active_sectors: int, sectors: int) -> float:
    """Antenna gain toward a served direction: 1 when idle-omni, else N/M."""
    _check_active(active_sectors, 0, sectors)
    return sectors / active_sectors if active_sectors else 1.0


def _reception_probs(params: ScenarioParams) -> tuple[list[float], list[float]]:
    """Every M's near (M = 1..N) and far (M = 0..N) reception probability,
    from one occupancy triple and one binomial row; params already checked."""
    n = params.sectors
    p, q, p_all = _occupancy(params)
    row = _binom_row(n - 1)
    near = [row[m - 1] * p ** (n - m) * q ** (m - 1) for m in range(1, n + 1)]
    far = [p_all] + [row[m - 1] * p ** (n - m) * q**m for m in range(1, n + 1)]
    return near, far


def reception_prob_near(active_sectors: int, params: ScenarioParams) -> float:
    """Probability a near beacon serves the sensor with exactly M beams.

    The sensor itself occupies one sector, so M-1 of the remaining N-1
    sectors must be occupied: C(N-1, M-1) p^(N-M) q^(M-1).
    """
    validate(params)
    _check_active(active_sectors, 1, params.sectors)  # a near beacon always beams
    return _reception_probs(params)[0][active_sectors - 1]


def reception_prob_far(active_sectors: int, params: ScenarioParams) -> float:
    """Probability a far beacon radiates toward the sensor with M beams.

    M = 0 is the all-sectors-empty omni fallback (probability p^N); for
    M >= 1 the aimed-sector chance M/N folds into C(N,M) p^(N-M) q^M giving
    C(N-1, M-1) p^(N-M) q^M.
    """
    validate(params)
    _check_active(active_sectors, 0, params.sectors)
    return _reception_probs(params)[1][active_sectors]


def _laplace_a(s: float, gain_value: float, params: ScenarioParams) -> float:
    a = s * params.pb_power * params.attenuation * gain_value
    if a > LAPLACE_ARG_MAX:
        raise specfun.RangeError(
            f"s*P*sigma*G = {a!r} exceeds supported maximum {LAPLACE_ARG_MAX!r}"
        )
    return a


def _exponent(s: float, g: float, eta: float, near: bool, params: ScenarioParams) -> float:
    """Log of the near- or far-field Laplace factor for gain g = N/M (1 when
    a far beacon idles omni) and reception probability eta."""
    a = _laplace_a(s, g, params)
    rho = params.charging_radius
    alpha = params.path_loss_exp
    u = 1.0 - 2.0 / alpha
    a_out = a if rho <= 1.0 else a * rho**-alpha
    bracket = rho * rho * -math.expm1(-a_out)
    if not near:
        bracket -= a ** (2.0 / alpha) * specfun.lower_incomplete_gamma(u, a_out)
        return params.pb_density * math.pi * eta * bracket
    if rho > 1.0:
        bracket += a ** (2.0 / alpha) * (
            specfun.lower_incomplete_gamma(u, a) - specfun.lower_incomplete_gamma(u, a_out)
        )
    return -params.pb_density * math.pi * eta * bracket


def _nonnegative(value: float, name: str) -> float:
    """The double a Laplace argument s or a CCDF threshold is judged as."""
    if type(value) is float and 0.0 <= value < math.inf:
        return value  # the common case, settled by one comparison chain
    x = real(value)
    if x is None or not -math.inf < x < math.inf:
        raise ValueError(f"{name} must be a finite number")
    if x < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return x


def laplace_near(s: float, active_sectors: int, params: ScenarioParams) -> float:
    """Laplace transform of aggregate power from near beacons with M beams."""
    eta = reception_prob_near(active_sectors, params)  # checks params and M
    s = _nonnegative(s, "laplace argument")
    if s == 0:
        return 1.0
    return math.exp(_exponent(s, gain(active_sectors, params.sectors), eta, True, params))


def laplace_far(s: float, active_sectors: int, params: ScenarioParams) -> float:
    """Laplace transform of aggregate power from far beacons with M beams."""
    eta = reception_prob_far(active_sectors, params)  # checks params and M
    s = _nonnegative(s, "laplace argument")
    if s == 0:
        return 1.0
    return math.exp(_exponent(s, gain(active_sectors, params.sectors), eta, False, params))


def log_laplace_total(s: float, params: ScenarioParams) -> float:
    """Log of the full Laplace transform; exact sum of the factor exponents.

    Exposed separately because log(laplace_total) loses precision near s = 0,
    where the transform is 1 - O(s); derivative checks difference this form.
    """
    validate(params)
    s = _nonnegative(s, "laplace argument")
    if s == 0:
        return 0.0
    n = params.sectors
    near, far = _reception_probs(params)
    total = 0.0
    for m in range(1, n + 1):
        total += _exponent(s, n / m, near[m - 1], True, params)
    for m in range(0, n + 1):
        total += _exponent(s, n / m if m else 1.0, far[m], False, params)
    return total


def laplace_total(s: float, params: ScenarioParams) -> float:
    """Laplace transform of the total received power (all beacons)."""
    return math.exp(log_laplace_total(s, params))


def log_laplace_omni(s: float, params: ScenarioParams) -> float:
    """Log Laplace transform when every beacon radiates omnidirectionally."""
    validate(params)
    s = _nonnegative(s, "laplace argument")
    if s == 0:
        return 0.0
    a = _laplace_a(s, 1.0, params)
    u = 1.0 - 2.0 / params.path_loss_exp
    gamma = specfun.lower_incomplete_gamma(u, a)
    return -params.pb_density * math.pi * a ** (2.0 / params.path_loss_exp) * gamma


def laplace_omni(s: float, params: ScenarioParams) -> float:
    """Laplace transform of total received power under omni transmission."""
    return math.exp(log_laplace_omni(s, params))


def mean_power(params: ScenarioParams) -> float:
    """Mean received power at the typical sensor, watts.

    Both radius branches use the geometric-sum form of (1 - p^N)/(1 - p), so
    the p -> 1 limit needs no special casing and the seam at rho = 1 is exact.
    """
    validate(params)
    p, _, _ = _occupancy(params)
    rho = params.charging_radius
    alpha = params.path_loss_exp
    n = params.sectors
    scale = params.pb_power * params.pb_density * params.attenuation * math.pi
    if rho <= 1.0:
        return scale * (rho * rho * _geo_sum(p, n, 1) + alpha / (alpha - 2.0))
    r_pow = rho ** (2.0 - alpha)
    return scale * (
        (alpha - 2.0 * r_pow) * _geo_sum(p, n, 0) / (alpha - 2.0)
        + 2.0 * r_pow / (alpha - 2.0)
    )


def mean_power_omni(params: ScenarioParams) -> float:
    """Mean received power under omni transmission: P lam sigma pi a/(a-2)."""
    validate(params)
    alpha = params.path_loss_exp
    scale = params.pb_power * params.pb_density * params.attenuation * math.pi
    return scale * alpha / (alpha - 2.0)


def _square_overflow(params: ScenarioParams) -> specfun.RangeError:
    return specfun.RangeError(
        f"pb_power {params.pb_power!r} or attenuation {params.attenuation!r} "
        "squared overflows"
    )


def _gain_square_sum(p: float, q: float, n: int) -> float:
    """sum over M of (N/M)^2 C(N-1,M-1) p^(N-M) q^(M-1).

    One q is deliberately left out of each term (the parent expressions carry
    prefactors with 1/q poles; pairing them with this sum keeps everything
    finite as q -> 0, where the sum tends to N^2).
    """
    row = _binom_row(n - 1)
    acc = 0.0
    for m in range(1, n + 1):
        g = n / m
        acc += g * g * row[m - 1] * p ** (n - m) * q ** (m - 1)
    return acc


def variance_power(params: ScenarioParams) -> float:
    """Variance of received power at the typical sensor, watts^2."""
    validate(params)
    p, q, p_all = _occupancy(params)
    rho = params.charging_radius
    alpha = params.path_loss_exp
    n = params.sectors
    t_sum = _gain_square_sum(p, q, n)
    try:
        scale = params.pb_density * params.pb_power**2 * params.attenuation**2 * math.pi
    except OverflowError:
        raise _square_overflow(params) from None
    if rho <= 1.0:
        iso = alpha / (alpha - 1.0)
        return scale * (
            (iso - rho * rho) * p_all + rho * rho * p * t_sum + iso * q * t_sum
        )
    r_pow = rho ** (2.0 - 2.0 * alpha)
    return scale * (
        r_pow * p_all / (alpha - 1.0)
        + (alpha - r_pow) * t_sum / (alpha - 1.0)
        + r_pow * q * t_sum / (alpha - 1.0)
    )


def variance_omni(params: ScenarioParams) -> float:
    """Variance under omni transmission: lam P^2 sigma^2 pi a/(a-1)."""
    validate(params)
    alpha = params.path_loss_exp
    try:
        scale = params.pb_density * params.pb_power**2 * params.attenuation**2 * math.pi
    except OverflowError:
        raise _square_overflow(params) from None
    return scale * alpha / (alpha - 1.0)


def near_far_mean_ratios(params: ScenarioParams) -> tuple[float, float]:
    """Mean-power gain of beam steering over omni, split by beacon distance.

    Near beacons deliver (1 - p^N)/(1 - p) >= 1 times their omni-mode mean
    (geometric-sum form, so p -> 1 gives N exactly); for far beacons the
    higher intensity and lower alignment odds cancel exactly, ratio 1.
    """
    validate(params)
    p, _, _ = _occupancy(params)
    return _geo_sum(p, params.sectors, 0), 1.0


def _moment_match(mean: float, var: float) -> tuple[float, float]:
    """(shape, scale) of the Gamma law with this mean and variance."""
    try:
        shape = mean * mean / var
        scale = var / mean
    except ZeroDivisionError:
        shape = scale = 0.0
    if 0.0 < shape < math.inf and 0.0 < scale < math.inf:
        return shape, scale
    # a valid scenario gets here only when its moments under- or overflow
    raise specfun.RangeError(
        "moment matching needs a positive mean and variance whose shape and "
        f"scale fit in double precision, got mean {mean!r}, variance {var!r}"
    )


def gamma_approx(params: ScenarioParams) -> GammaApprox:
    """Second-order moment match of the received-power law to a Gamma law."""
    validate(params)
    return GammaApprox(*_moment_match(mean_power(params), variance_power(params)))


def gamma_approx_omni(params: ScenarioParams) -> GammaApprox:
    """Gamma moment match of the omni-transmission power law."""
    validate(params)
    return GammaApprox(*_moment_match(mean_power_omni(params), variance_omni(params)))


def _gamma_ccdf_value(shape: float, scale: float, threshold: float) -> float:
    threshold = _nonnegative(threshold, "threshold")
    if threshold == 0:
        return 1.0
    # complement computed on its own branch; 1 - P would round to 0 early
    return specfun.regularized_gamma_q(shape, threshold / scale)


def gamma_ccdf(threshold: float, params: ScenarioParams) -> float:
    """Gamma-approximated probability that received power reaches threshold."""
    validate(params)
    shape, scale = _moment_match(mean_power(params), variance_power(params))
    return _gamma_ccdf_value(shape, scale, threshold)


def gamma_ccdf_omni(threshold: float, params: ScenarioParams) -> float:
    """Same approximation for omni transmission (radius-independent)."""
    validate(params)
    shape, scale = _moment_match(mean_power_omni(params), variance_omni(params))
    return _gamma_ccdf_value(shape, scale, threshold)


# --- radius derivative of the mean ---------------------------------------
#
# Writing q = 1 - p, both branch derivatives contain the factor
#   W / (N q^2)
# with W a polynomial in p that vanishes to second order at q = 0:
#   inner branch:  W  = p^N + N q p^(N-1) - 1
#   outer branch:  W2 = N q p^N - p + p^(N+1)  (= p * W, equal at rho = 1)
# Expanded in q these are alternating sums with ratio < N q / m between
# consecutive terms, so for N q < 1/2 the series is evaluated directly and
# the cancellation of the direct form never surfaces.

_SERIES_SWITCH = 0.5


def _w_inner_over_nq2(p: float, q: float, n: int) -> float:
    if n * q < _SERIES_SWITCH:
        row = _binom_row(n)
        acc = 0.0
        for m in range(2, n + 1):
            sign = 1.0 if m % 2 == 0 else -1.0
            acc += sign * (m - 1) * row[m] * q ** (m - 2)
        return -acc / n
    return (p**n + n * q * p ** (n - 1) - 1.0) / (n * q * q)


def _w_outer_over_nq2(p: float, q: float, n: int) -> float:
    if n * q < _SERIES_SWITCH:
        row = _binom_row(n)
        acc = 0.0
        for m in range(2, n + 2):
            sign = 1.0 if m % 2 == 0 else -1.0
            acc += sign * row[m - 1] * (n + 1.0 - n * m) / m * q ** (m - 2)
        return acc / n
    return (n * q * p**n - p + p ** (n + 1)) / (n * q * q)


def _slope_scale(params: ScenarioParams) -> float:
    """Natural size of d(mean)/d(rho): 2 P lam_p pi sigma."""
    return 2.0 * params.pb_power * params.pb_density * math.pi * params.attenuation


def d_mean_d_rho(params: ScenarioParams) -> float:
    """Derivative of mean_power with respect to the charging radius, W/m.

    Evaluates the rho <= 1 or the rho > 1 branch; the two branch formulas
    take the same value at rho = 1.
    """
    validate(params)
    p, q, _ = _occupancy(params)
    rho = params.charging_radius
    alpha = params.path_loss_exp
    n = params.sectors
    lam_s_pi = params.sn_density * math.pi
    scale = _slope_scale(params)
    geo1 = _geo_sum(p, n, 1)
    if rho <= 1.0:
        w = _w_inner_over_nq2(p, q, n)
        return scale * (rho * geo1 + lam_s_pi * rho**3 * p * w)
    w2 = _w_outer_over_nq2(p, q, n)
    r_pow = rho ** (2.0 - alpha)
    return scale * (
        rho ** (1.0 - alpha) * geo1
        + lam_s_pi * rho * (alpha - 2.0 * r_pow) / (alpha - 2.0) * w2
    )
