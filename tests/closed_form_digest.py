"""Bitwise digests of the closed forms, of the Laplace transforms and
reception probabilities, and of the special-function kernel.

Each digest is a sha256 over the repr of every value on a fixed grid, so it
changes when any output moves by one ulp. The tests pin the digests; run

    python tests/closed_form_digest.py

to print them (no pytest needed, so any interpreter with the package on its
path can check them). The values come from the platform's libm through
math.exp, math.log and friends; the pins were recorded with glibc on x86-64.
"""

from __future__ import annotations

import hashlib

from beamharvest import analytic, specfun
from beamharvest.scenario import ScenarioParams

SECTORS = range(1, 9)
SN_DENSITIES = (0.01, 0.2, 1.6, 12.0)
# both branches, the seam itself and a step of 2**-40 to either side
RADII = (0.05, 0.4, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 1.7, 4.0, 25.0)
# (beacon power W, path-loss exponent)
POWER_ALPHA = ((5.0, 3.0), (20.0, 2.5), (1.0, 4.5))
THRESHOLDS = (1.0e-4, 1.0e-3)
# the Laplace transforms' arguments, zero included
LAPLACE_ARGS = (0.0, 1e-3, 1.0, 37.0, 1e3, 1e5)

# shapes below 1/2 take the reflection branch of ln Gamma; x < s + 1 takes
# the power series and x >= s + 1 the continued fraction
SHAPES = (
    1e-3, 0.1, 1.0 / 3.0, 0.49, 0.5, 0.7, 0.9, 1.0, 1.3, 2.5, 3.7, 7.0, 12.3,
    40.0, 123.4, 1e3, 1e4,
)
LIMITS = (0.0, 1e-8, 0.3, 0.99, 1.5, 3.0, 10.0, 50.0, 1e3, 1e5)


def _scenarios():
    """(grid point, scenario) over every combination of the closed-form grid."""
    for n in SECTORS:
        for sn in SN_DENSITIES:
            for rho in RADII:
                for power, alpha in POWER_ALPHA:
                    params = ScenarioParams(
                        pb_power=power,
                        pb_density=0.1,
                        sn_density=sn,
                        sectors=n,
                        charging_radius=rho,
                        path_loss_exp=alpha,
                        wavelength=0.1,
                    )
                    yield (n, sn, rho, power, alpha), params


def closed_form_lines() -> list[str]:
    """mean, variance, Gamma CCDF at each threshold and d(mean)/d(rho)."""
    lines = []
    for point, params in _scenarios():
        values = [analytic.mean_power(params), analytic.variance_power(params)]
        values += [analytic.gamma_ccdf(t, params) for t in THRESHOLDS]
        values.append(analytic.d_mean_d_rho(params))
        lines.append(repr((*point, values)))
    return lines


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except specfun.RangeError:
        return "RangeError"


def laplace_lines() -> list[str]:
    """At each Laplace argument s of LAPLACE_ARGS: laplace_near at every
    M >= 1 and laplace_far at every M >= 0, laplace_total, laplace_omni, then
    the near and far reception probabilities at the same M."""
    lines = []
    for point, params in _scenarios():
        near, far = range(1, params.sectors + 1), range(params.sectors + 1)
        for s in LAPLACE_ARGS:
            values = [_outcome(analytic.laplace_near, s, m, params) for m in near]
            values += [_outcome(analytic.laplace_far, s, m, params) for m in far]
            values += [_outcome(analytic.laplace_total, s, params)]
            values += [_outcome(analytic.laplace_omni, s, params)]
            values += [_outcome(analytic.reception_prob_near, m, params) for m in near]
            values += [_outcome(analytic.reception_prob_far, m, params) for m in far]
            lines.append(f"{point!r} {s!r} {' '.join(values)}")
    return lines


def specfun_lines() -> list[str]:
    """Q(s, x), gamma(s, x) and ln Gamma(s) over the (s, x) grid."""
    lines = []
    for s in SHAPES:
        lines.append(repr(s) + " " + _outcome(specfun._log_gamma, s))
        for x in LIMITS:
            q = _outcome(specfun.regularized_gamma_q, s, x)
            lower = _outcome(specfun.lower_incomplete_gamma, s, x)
            lines.append(f"{s!r} {x!r} {q} {lower}")
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


if __name__ == "__main__":
    print("closed forms", digest(closed_form_lines()))
    print("laplace     ", digest(laplace_lines()))
    print("specfun     ", digest(specfun_lines()))
