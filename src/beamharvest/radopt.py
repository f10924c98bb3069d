"""Charging-radius optimizers.

Two objectives: the mean received power, whose radius derivative exists in
closed form (optimal_radius_mean), and the Gamma-matched reach probability,
whose derivative is taken numerically (optimal_radius_active). Both report
the stationary-point structure they found through a case label.

The reach-probability objective returns to its omnidirectional value at both
radius extremes, so one log-grid scan reads its derivative sign pattern.
Every rising-to-falling turn is a local maximum, and the highest is refined,
however many stationary points the scan sees: Case1 when the objective rises
straight to it, Case2 when a dip or a lower peak comes first. If no peak
clears the omnidirectional value, directionality never helps and the result
is a boundary case instead of an interior optimum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import analytic, scenario
from ._args import real
from .scenario import ScenarioParams

__all__ = [
    "BracketError",
    "ClassificationError",
    "MeanCase",
    "ActiveCase",
    "RadiusOptimum",
    "find_root_bisect",
    "optimal_radius_mean",
    "d_gamma_ccdf_d_rho",
    "optimal_radius_active",
]

#: Interior optima must drive the scaled derivative below this.
_RESIDUAL_TOL = 1e-8

#: Radius window treated as "optimum at the branch seam" for labeling.
_MEDIUM_BAND = 0.05

_GRID_POINTS = 400
_GRID_LO = 1e-3
_BRACKET_CAP = 1.0e3

#: An interior peak must clear the omnidirectional plateau by this much to
#: count as a real optimum. The moment-matched objective can hump a few
#: 1e-4 above the plateau on its way back down even when directionality
#: never genuinely helps; genuine interior gains in the regimes of interest
#: are two orders of magnitude larger.
_PLATEAU_TOL = 1e-3


class BracketError(ValueError):
    """Root bracket does not straddle a sign change."""


class ClassificationError(RuntimeError):
    """Objective landscape does not match any supported case."""


class MeanCase(enum.Enum):
    """Where the mean-power optimum sits relative to the path-loss clamp."""

    LOW_DENSITY = "LowDensity"
    MEDIUM_DENSITY = "MediumDensity"
    HIGH_DENSITY = "HighDensity"


class ActiveCase(enum.Enum):
    """Reach-probability landscape classes."""

    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3_BOUNDARY = "Case3Boundary"


@dataclass(frozen=True)
class RadiusOptimum:
    """Search result: argmax radius, objective there, landscape label,
    scaled derivative magnitude at the optimum (NaN for boundary cases),
    and the number of objective/derivative evaluations spent."""

    radius: float
    objective: float
    case_label: MeanCase | ActiveCase
    derivative_residual: float
    evaluations: int


def find_root_bisect(f, bracket, tol: float) -> float:
    """Bisection root of f on bracket = (lo, hi); needs a sign change.

    Returns a zero of f, or the midpoint of the final interval once its
    width is at most tol or its ends are adjacent doubles: the result is
    within tol of the sign change or between adjacent doubles. Each step
    keeps the midpoint strictly inside the bracket, so the loop ends for
    every finite bracket. tol and the bracket ends are real arguments
    and must be finite (README, "Argument rules"): an infinite end has no
    midpoint to bisect toward.
    """
    lo, hi = real(bracket[0]), real(bracket[1])
    if lo is None or hi is None or not -math.inf < lo < hi < math.inf:
        real_ends = lo is not None and hi is not None
        if real_ends and not (math.isfinite(lo) and math.isfinite(hi)):
            problem = "bracket ends must be finite, got"
        else:
            problem = "empty bracket"
        raise BracketError(f"{problem} ({bracket[0]!r}, {bracket[1]!r})")
    width = real(tol)
    if width is None or not 0 < width < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise BracketError(
            f"no sign change on ({lo!r}, {hi!r}): f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )
    while True:
        # halving is exact for normal doubles, so this gives the bits of
        # 0.5 * (lo + hi), but no sum of two ends can overflow to inf
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= width or mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def optimal_radius_mean(params: ScenarioParams) -> RadiusOptimum:
    """Radius maximizing mean received power.

    The mean is unimodal in the radius, so the sign of its derivative at the
    clamp distance 1 picks the branch: negative means the peak lies inside
    (0, 1), positive means beyond 1 (bracket grown geometrically), and a
    zero within tolerance is the peak itself. The returned label reports
    where the optimum landed, with radii within 0.05 of the seam labeled
    medium density.
    """
    scenario.validate(params)
    scale = analytic._slope_scale(params)
    evals = 0

    def deriv_at(rho: float) -> float:
        nonlocal evals
        evals += 1
        return analytic.d_mean_d_rho(params.with_(charging_radius=rho))

    d_one = deriv_at(1.0)
    if abs(d_one) / scale <= _RESIDUAL_TOL:
        rho_star = 1.0
        residual = abs(d_one) / scale
    elif d_one < 0:
        lo = 0.5
        while deriv_at(lo) <= 0:
            lo *= 0.5
            if lo < 1e-60:
                raise ClassificationError(
                    "mean derivative never turns positive toward rho = 0"
                )
        rho_star = find_root_bisect(deriv_at, (lo, 1.0), tol=1e-13)
        residual = abs(deriv_at(rho_star)) / scale
    else:
        hi = 2.0
        while deriv_at(hi) >= 0:
            hi *= 2.0
            if hi > _BRACKET_CAP:
                raise ClassificationError(
                    f"mean derivative still positive at rho = {hi / 2.0!r}"
                )
        rho_star = find_root_bisect(deriv_at, (1.0, hi), tol=1e-13 * hi)
        residual = abs(deriv_at(rho_star)) / scale
    objective = analytic.mean_power(params.with_(charging_radius=rho_star))
    evals += 1
    if abs(rho_star - 1.0) <= _MEDIUM_BAND:
        label = MeanCase.MEDIUM_DENSITY
    elif rho_star > 1.0:
        label = MeanCase.LOW_DENSITY
    else:
        label = MeanCase.HIGH_DENSITY
    return RadiusOptimum(
        radius=rho_star,
        objective=objective,
        case_label=label,
        derivative_residual=residual,
        evaluations=evals,
    )


def d_gamma_ccdf_d_rho(params: ScenarioParams, threshold: float) -> float:
    """Radius sensitivity of the Gamma-matched reach probability.

    Richardson-extrapolated central differences with step 1e-5 * max(rho, 1);
    the closed-form alternative drags in exotic incomplete-gamma-log
    integrals for no accuracy gain at this tolerance.
    """
    scenario.validate(params)
    rho = params.charging_radius
    h = 1e-5 * max(rho, 1.0)
    if rho <= h:
        raise ValueError(f"radius {rho!r} too close to zero for step {h!r}")

    def ccdf_at(r: float) -> float:
        return analytic.gamma_ccdf(threshold, params.with_(charging_radius=r))

    def central(step: float) -> float:
        return (ccdf_at(rho + step) - ccdf_at(rho - step)) / (2.0 * step)

    coarse = central(h)
    fine = central(0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def _check_threshold(threshold: float) -> float:
    """The double a reach threshold is judged as: finite and positive."""
    x = real(threshold)
    if x is None or not 0 < x < math.inf:
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
    return x


def _active_residual(params: ScenarioParams, threshold: float, rho: float) -> float:
    slope = d_gamma_ccdf_d_rho(params.with_(charging_radius=rho), threshold)
    value = analytic.gamma_ccdf(threshold, params.with_(charging_radius=rho))
    return abs(slope) * max(rho, 1.0) / max(value, 1e-300)


def _sign_pattern(values, noise_floor: float) -> list[tuple[int, int]]:
    """Directions of significant consecutive differences as (sign, index);
    index points at the left grid position of each difference."""
    out: list[tuple[int, int]] = []
    for i in range(len(values) - 1):
        d = values[i + 1] - values[i]
        if abs(d) <= noise_floor:
            continue
        s = 1 if d > 0 else -1
        if not out or out[-1][0] != s:
            out.append((s, i))
    return out


def optimal_radius_active(params: ScenarioParams, threshold: float) -> RadiusOptimum:
    """Radius maximizing the Gamma-matched reach probability.

    Scans a 400-point log grid up to the radius where the sector-empty
    probability drops below 1e-8 (past it the directional gain is spent and
    the objective sits on its omnidirectional plateau). The local maximum
    with the highest grid value is refined by bisecting the numeric
    derivative if it clears the omnidirectional value by _PLATEAU_TOL
    (Case1 if it is the scan's first turn, Case2 otherwise); else the
    result is the Case3 boundary at the grid's end.
    """
    scenario.validate(params)
    threshold = _check_threshold(threshold)
    n = params.sectors
    rho_max = math.sqrt(n * math.log(1e8) / (params.sn_density * math.pi))
    rho_max = max(rho_max, 100.0 * _GRID_LO)
    evals = 0

    def ccdf_at(r: float) -> float:
        nonlocal evals
        evals += 1
        return analytic.gamma_ccdf(threshold, params.with_(charging_radius=r))

    ratio = (rho_max / _GRID_LO) ** (1.0 / (_GRID_POINTS - 1))
    grid = [_GRID_LO * ratio**i for i in range(_GRID_POINTS)]
    values = [ccdf_at(r) for r in grid]
    pattern = _sign_pattern(values, 1e-12 * max(abs(v) for v in values))
    # every rising-to-falling turn is a local maximum; refine the highest
    turns = [k for k, (s, _) in enumerate(pattern) if k and s < 0]
    peak = max(turns, key=lambda k: values[pattern[k][1]], default=None)
    omni_value = analytic.gamma_ccdf_omni(threshold, params)
    if peak is not None and values[pattern[peak][1]] - omni_value > _PLATEAU_TOL:
        turn = pattern[peak][1]
        lo = grid[max(turn - 1, 0)]
        hi = grid[min(turn + 2, len(grid) - 1)]

        def slope_at(r: float) -> float:
            nonlocal evals
            evals += 4
            return d_gamma_ccdf_d_rho(params.with_(charging_radius=r), threshold)

        rho_star = find_root_bisect(slope_at, (lo, hi), tol=1e-12 * hi)
        objective = ccdf_at(rho_star)
        residual = _active_residual(params, threshold, rho_star)
        evals += 8
        return RadiusOptimum(
            radius=rho_star,
            objective=objective,
            # Case1: the objective rises straight to the peak
            case_label=ActiveCase.CASE1 if peak == 1 else ActiveCase.CASE2,
            derivative_residual=residual,
            evaluations=evals,
        )

    # never meaningfully above the omnidirectional plateau: boundary optimum
    return RadiusOptimum(
        radius=rho_max,
        objective=omni_value,
        case_label=ActiveCase.CASE3_BOUNDARY,
        derivative_residual=math.nan,
        evaluations=evals,
    )
