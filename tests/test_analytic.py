"""Closed-form statistics against an independent quadrature oracle.

Pins were frozen from quad_oracle runs (scipy adaptive quadrature of the
radial integrals, observed agreement ~1e-15).
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import closed_form_digest
import quad_oracle as qo
from beamharvest import analytic as an
from beamharvest.analytic import (
    LAPLACE_ARG_MAX,
    MAX_SECTORS,
    d_mean_d_rho,
    gain,
    gamma_approx,
    gamma_ccdf,
    gamma_ccdf_omni,
    laplace_far,
    laplace_near,
    laplace_omni,
    laplace_total,
    log_laplace_total,
    mean_power,
    mean_power_omni,
    near_far_mean_ratios,
    reception_prob_far,
    reception_prob_near,
    sector_empty_prob,
    variance_omni,
    variance_power,
)
from beamharvest.scenario import ScenarioParams
from beamharvest.specfun import RangeError


def params_for(power=5.0, pb=0.1, sn=0.2, sectors=4, rho=2.0, alpha=3.0):
    return ScenarioParams(
        pb_power=power,
        pb_density=pb,
        sn_density=sn,
        sectors=sectors,
        charging_radius=rho,
        path_loss_exp=alpha,
        wavelength=0.1,
    )


FIG2 = params_for()

# both radius branches, sector counts 1..8, alpha near and far from 2
SPOT_CASES = [
    params_for(power=2.0, pb=0.3, sn=0.8, sectors=6, rho=0.7, alpha=2.5),
    params_for(power=1.0, pb=0.05, sn=1.6, sectors=1, rho=3.0, alpha=4.7),
    params_for(power=8.0, pb=0.1, sn=0.2, sectors=8, rho=1.0, alpha=3.0),
    params_for(power=5.0, pb=0.1, sn=0.4, sectors=3, rho=12.0, alpha=2.2),
]


@st.composite
def box_params(draw, n_min=1, occupancy_cap=None):
    """Random scenario from the supported parameter box.

    occupancy_cap bounds lambda_s pi rho^2 / N; below ~30 the sector-empty
    probability stays resolvable in doubles, which strict dominance checks
    need (beyond it the beamforming margin is smaller than 1 ulp of the
    mean, so exact float equality is the correct outcome).
    """
    alpha = draw(st.floats(2.1, 5.0))
    n = draw(st.integers(n_min, 8))
    pb = draw(st.floats(0.01, 2.0))
    sn = draw(st.floats(0.01, 2.0))
    power = draw(st.floats(0.5, 20.0))
    rho_hi = 20.0
    if occupancy_cap is not None:
        rho_hi = min(rho_hi, math.sqrt(occupancy_cap * n / (math.pi * sn)))
    rho = draw(st.floats(0.05, rho_hi))
    return params_for(power=power, pb=pb, sn=sn, sectors=n, rho=rho, alpha=alpha)


# --- reception probabilities ---


@settings(max_examples=200, deadline=None)
@given(box_params())
def test_near_probs_sum_to_one(pr):
    total = sum(reception_prob_near(m, pr) for m in range(1, pr.sectors + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(box_params())
def test_far_probs_account_for_every_outcome(pr):
    p = sector_empty_prob(pr)
    beamed = sum(reception_prob_far(m, pr) for m in range(1, pr.sectors + 1))
    # beamed-at chance is exactly the own-sector occupancy q
    assert beamed == pytest.approx(1.0 - p, abs=1e-12)
    silent = p - reception_prob_far(0, pr)
    assert 0.0 <= beamed + reception_prob_far(0, pr) + silent <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(box_params())
def test_gain_weighted_sums(pr):
    n = pr.sectors
    near = sum(
        gain(m, n) * reception_prob_near(m, pr) for m in range(1, n + 1)
    )
    far = reception_prob_far(0, pr) + sum(
        gain(m, n) * reception_prob_far(m, pr) for m in range(1, n + 1)
    )
    near_ratio, far_ratio = near_far_mean_ratios(pr)
    assert near == pytest.approx(near_ratio, rel=1e-12)
    # higher far intensity cancels the alignment odds exactly
    assert far == pytest.approx(1.0, abs=1e-12)
    assert far_ratio == 1.0


def test_near_ratio_limits():
    # tiny disk: every sector almost surely empty, near beacons beam with
    # full gain N; huge disk: every sector occupied, gain N/N
    assert near_far_mean_ratios(params_for(rho=1e-6))[0] == pytest.approx(
        4.0, abs=1e-9
    )
    assert near_far_mean_ratios(params_for(rho=50.0))[0] == pytest.approx(
        1.0, abs=1e-9
    )


def test_reception_prob_domains():
    with pytest.raises(ValueError):
        reception_prob_near(0, FIG2)
    with pytest.raises(ValueError):
        reception_prob_near(5, FIG2)
    with pytest.raises(ValueError):
        reception_prob_far(-1, FIG2)
    with pytest.raises(ValueError):
        reception_prob_near(True, FIG2)


def test_gain_values():
    assert gain(0, 4) == 1.0
    assert gain(1, 4) == 4.0
    assert gain(4, 4) == 1.0
    with pytest.raises(ValueError):
        gain(5, 4)
    with pytest.raises(ValueError):
        gain(-1, 4)


def test_binomial_table_matches_the_uncached_formula():
    def oracle(n, k):
        return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))

    for n in range(MAX_SECTORS + 1):
        row = an._binom_row(n)
        assert row == tuple(oracle(n, k) for k in range(n + 1))  # bit for bit


# --- Laplace transforms ---


def test_laplace_matches_quadrature_per_component():
    s = 1e3
    for m in range(1, 5):
        assert laplace_near(s, m, FIG2) == pytest.approx(
            qo.laplace_near_quad(s, m, FIG2), rel=5e-13
        )
    for m in range(0, 5):
        assert laplace_far(s, m, FIG2) == pytest.approx(
            qo.laplace_far_quad(s, m, FIG2), rel=5e-13
        )


@pytest.mark.parametrize("pr", SPOT_CASES)
@pytest.mark.parametrize("s", [3.0, 300.0])
def test_laplace_total_matches_quadrature(pr, s):
    assert laplace_total(s, pr) == pytest.approx(
        qo.laplace_total_quad(s, pr), rel=5e-13
    )


@pytest.mark.parametrize("pr", SPOT_CASES)
def test_laplace_omni_matches_quadrature(pr):
    assert laplace_omni(200.0, pr) == pytest.approx(
        qo.laplace_omni_quad(200.0, pr), rel=5e-13
    )


def test_laplace_at_zero_and_monotone():
    assert laplace_total(0.0, FIG2) == 1.0
    assert laplace_omni(0.0, FIG2) == 1.0
    values = [laplace_total(s, FIG2) for s in (1.0, 10.0, 100.0, 1e3, 1e4)]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_laplace_argument_guards():
    with pytest.raises(ValueError):
        laplace_total(-1.0, FIG2)
    with pytest.raises(ValueError):
        laplace_total(float("nan"), FIG2)
    with pytest.raises(RangeError):
        laplace_total(1e10, FIG2)
    assert LAPLACE_ARG_MAX == 1e6
    # NumPy integers pass as Python's do; bools and non-reals never do
    assert laplace_total(np.int64(10), FIG2) == laplace_total(10, FIG2) == laplace_total(10.0, FIG2)
    for bad in (True, np.True_, "1", None, 1j):
        with pytest.raises(ValueError, match="laplace argument must be a finite number"):
            laplace_total(bad, FIG2)


def test_laplace_total_checks_its_arguments_once(monkeypatch):
    # every factor comes from one occupancy triple and one binomial row
    calls = {name: 0 for name in ("validate", "_check_active", "_occupancy", "_binom_row")}

    def counted(name):
        original = getattr(an, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(an, name, counted(name))
    an.log_laplace_total(0.37, params_for(sectors=4))
    assert calls == {"validate": 1, "_check_active": 0, "_occupancy": 1, "_binom_row": 1}


def test_sector_cap_enforced():
    with pytest.raises(ValueError, match="64"):
        mean_power(params_for(sectors=MAX_SECTORS + 1))


def test_moments_out_of_double_range_raise_range_error():
    # each scenario is valid, but rho^2, P^2 or the variance leaves doubles
    with pytest.raises(RangeError, match="charging_radius"):
        mean_power(params_for(rho=1e200))
    with pytest.raises(RangeError, match="pb_power"):
        variance_power(params_for(power=1e300))
    with pytest.raises(RangeError, match="pb_power"):
        an.variance_omni(params_for(power=1e300))
    with pytest.raises(RangeError, match="moment matching"):
        gamma_approx(params_for(power=1e-300))  # variance underflows to 0
    with pytest.raises(RangeError, match="moment matching"):
        gamma_approx(params_for(pb=1e300))  # mean^2 overflows the shape
    with pytest.raises(ValueError):  # a RangeError is a ValueError
        gamma_ccdf(1e-4, params_for(power=1e300))


def test_log_laplace_derivatives_give_moments():
    # one-sided stencils at s=0; h calibrated so truncation ~1e-6
    h = 1.0
    for pr in [FIG2] + SPOT_CASES[:2]:
        f = lambda s: log_laplace_total(s, pr)
        d1 = -(4.0 * f(h) - f(2.0 * h)) / (2.0 * h)
        d2 = (2.0 * f(0.0) - 5.0 * f(h) + 4.0 * f(2.0 * h) - f(3.0 * h)) / h**2
        assert d1 == pytest.approx(mean_power(pr), rel=1e-5)
        assert d2 == pytest.approx(variance_power(pr), rel=1e-4)


# --- moments ---


@pytest.mark.parametrize("pr", SPOT_CASES + [FIG2])
def test_moments_match_quadrature(pr):
    assert mean_power(pr) == pytest.approx(qo.mean_quad(pr), rel=1e-12)
    assert variance_power(pr) == pytest.approx(qo.variance_quad(pr), rel=1e-12)
    assert mean_power_omni(pr) == pytest.approx(qo.mean_omni_quad(pr), rel=1e-12)
    assert variance_omni(pr) == pytest.approx(
        qo.variance_omni_quad(pr), rel=1e-12
    )


def test_moment_pins():
    pr = params_for(power=10.0, rho=1.0)
    assert mean_power(pr) == pytest.approx(1.0363507658086243e-3, rel=1e-12)
    assert mean_power_omni(pr) == pytest.approx(5.968310365946075e-4, rel=1e-13)
    assert variance_omni(pr) == pytest.approx(1.8897383456952827e-7, rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(box_params(n_min=2, occupancy_cap=30.0))
def test_strict_dominance_over_omni(pr):
    assert mean_power(pr) > mean_power_omni(pr)
    assert variance_power(pr) > variance_omni(pr)


@settings(max_examples=100, deadline=None)
@given(box_params(n_min=2))
def test_dominance_never_violated_beyond_rounding(pr):
    # full box, including radii where the margin underflows to 0 ulp
    assert mean_power(pr) >= mean_power_omni(pr) * (1.0 - 1e-12)
    assert variance_power(pr) >= variance_omni(pr) * (1.0 - 1e-12)


def test_mean_approaches_omni_at_extreme_radii():
    for rho in (0.01, 1e3):
        pr = params_for(power=10.0, rho=rho)
        assert mean_power(pr) == pytest.approx(mean_power_omni(pr), rel=5e-3)


# --- branch seam and collapse cases ---


@settings(max_examples=100, deadline=None)
@given(box_params())
def test_branch_seam_is_continuous(pr):
    inner = pr.with_(charging_radius=1.0)
    outer = pr.with_(charging_radius=math.nextafter(1.0, 2.0))
    assert mean_power(inner) == pytest.approx(mean_power(outer), rel=1e-9)
    assert variance_power(inner) == pytest.approx(variance_power(outer), rel=1e-9)
    assert laplace_total(50.0, inner) == pytest.approx(
        laplace_total(50.0, outer), rel=1e-9
    )
    assert d_mean_d_rho(inner) == pytest.approx(
        d_mean_d_rho(outer), rel=1e-6, abs=1e-18
    )


@pytest.mark.parametrize("rho", [0.1, 1.0, 3.0, 10.0])
def test_single_sector_collapses_to_omni(rho):
    pr = params_for(sectors=1, rho=rho)
    assert mean_power(pr) == pytest.approx(mean_power_omni(pr), rel=1e-12)
    assert variance_power(pr) == pytest.approx(variance_omni(pr), rel=1e-12)
    for s in (10.0, 1e3):
        assert laplace_total(s, pr) == pytest.approx(
            laplace_omni(s, pr), rel=1e-12
        )
    assert gamma_ccdf(1e-4, pr) == pytest.approx(
        gamma_ccdf_omni(1e-4, pr), rel=1e-12
    )
    # identically zero on paper; the direct W form leaves exp/expm1
    # rounding residue of order p * ulp
    assert abs(d_mean_d_rho(pr)) <= 1e-15 * mean_power_omni(pr)


# --- Gamma moment match ---


@pytest.mark.parametrize("pr", SPOT_CASES + [FIG2])
def test_gamma_match_reproduces_moments(pr):
    g = gamma_approx(pr)
    assert g.mean == pytest.approx(mean_power(pr), rel=1e-12)
    assert g.variance == pytest.approx(variance_power(pr), rel=1e-12)


@pytest.mark.parametrize("threshold", [1e-5, 1e-4, 1e-3])
def test_gamma_ccdf_matches_scipy(threshold):
    g = gamma_approx(FIG2)
    want = scipy.stats.gamma.sf(threshold, a=g.shape, scale=g.scale)
    assert gamma_ccdf(threshold, FIG2) == pytest.approx(want, rel=1e-10)


def test_gamma_ccdf_edges():
    assert gamma_ccdf(0.0, FIG2) == 1.0
    with pytest.raises(ValueError):
        gamma_ccdf(-1e-9, FIG2)
    # NumPy reals pass as Python's do, a zero integer threshold included;
    # bools and non-reals never do
    assert gamma_ccdf(np.int64(0), FIG2) == gamma_ccdf(np.float64(0.0), FIG2) == 1.0
    assert gamma_ccdf(np.float64(1e-4), FIG2) == gamma_ccdf(1e-4, FIG2)
    for bad in (True, False, np.True_, "1e-4", None, math.inf, math.nan):
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            gamma_ccdf(bad, FIG2)
    grid = [gamma_ccdf(t, FIG2) for t in (1e-5, 1e-4, 5e-4, 2e-3)]
    assert all(a >= b for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize(
    "ccdf, moments",
    [(gamma_ccdf, ("mean_power", "variance_power")),
     (gamma_ccdf_omni, ("mean_power_omni", "variance_omni"))],
    ids=["gamma_ccdf", "gamma_ccdf_omni"],
)
def test_gamma_ccdf_checks_its_scenario_three_times_and_each_moment_once(
    ccdf, moments, monkeypatch
):
    # the counts the radius_design benchmark pins: one check at the entry and
    # one in each moment, and no moment computed twice
    calls = dict.fromkeys(("validate",) + moments, 0)

    def counted(name):
        original = getattr(an, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(an, name, counted(name))
    ccdf(1e-4, params_for(sectors=4))
    assert calls == {"validate": 3, moments[0]: 1, moments[1]: 1}


# --- radius derivative ---


@pytest.mark.parametrize("pr", SPOT_CASES + [FIG2])
@pytest.mark.parametrize("rho", [0.3, 0.9, 1.5, 6.0])
def test_d_mean_d_rho_matches_finite_difference(pr, rho):
    pr = pr.with_(charging_radius=rho)
    h = 1e-6 * rho
    fd = (
        mean_power(pr.with_(charging_radius=rho + h))
        - mean_power(pr.with_(charging_radius=rho - h))
    ) / (2.0 * h)
    d = d_mean_d_rho(pr)
    assert abs(d - fd) <= 1e-5 * max(abs(d), 1e-8)


def test_derivative_series_and_direct_forms_agree():
    # the q-series kicks in below N q = 0.5; check both sides of the switch
    for n in range(2, 9):
        for nq in (0.42, 0.58):
            q = nq / n
            p = 1.0 - q
            direct_in = (p**n + n * q * p ** (n - 1) - 1.0) / (n * q * q)
            direct_out = (n * q * p**n - p + p ** (n + 1)) / (n * q * q)
            assert an._w_inner_over_nq2(p, q, n) == pytest.approx(
                direct_in, rel=1e-11
            )
            assert an._w_outer_over_nq2(p, q, n) == pytest.approx(
                direct_out, rel=1e-11
            )
            # outer polynomial is exactly p times the inner one
            assert an._w_outer_over_nq2(p, q, n) == pytest.approx(
                p * an._w_inner_over_nq2(p, q, n), rel=1e-11
            )


# --- bitwise pin ---


def test_closed_forms_match_their_bitwise_digest():
    # mean, variance, Gamma CCDF at two thresholds and d(mean)/d(rho) over
    # N 1-8, four sensor densities and eight radii around the seam; any
    # one-ulp move in any of the 3,840 values changes the digest
    lines = closed_form_digest.closed_form_lines()
    assert len(lines) == 768
    assert closed_form_digest.digest(lines) == (
        "f3a60dab232da3d8491a2c9ed35bba68e0be14e876ae0f0e7ace731d6813402f"
    )


def test_laplace_transforms_match_their_bitwise_digest():
    # laplace_near and laplace_far at every M, laplace_total, laplace_omni
    # and both reception probabilities at every M, over the same scenarios
    # at six Laplace arguments from 0 to 1e5
    lines = closed_form_digest.laplace_lines()
    assert len(lines) == 4608
    assert closed_form_digest.digest(lines) == (
        "830d3b74b1bbd03d7d7cdc06f697c008591963bd85dccf8b0432771630e404c4"
    )
