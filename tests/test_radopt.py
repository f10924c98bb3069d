"""Radius optimizers: root finding, case labels, optimality certificates."""

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamharvest import analytic, scenario
from beamharvest.radopt import (
    ActiveCase,
    BracketError,
    MeanCase,
    RadiusOptimum,
    d_gamma_ccdf_d_rho,
    find_root_bisect,
    optimal_radius_active,
    optimal_radius_mean,
)
from beamharvest.scenario import ParameterError, ScenarioParams


def params_for(power=10.0, sn=0.2, sectors=4, pb=0.1, alpha=3.0, rho=1.0):
    return ScenarioParams(
        pb_power=power,
        pb_density=pb,
        sn_density=sn,
        sectors=sectors,
        charging_radius=rho,
        path_loss_exp=alpha,
        wavelength=0.1,
    )


#: Radii and case labels both optimizers gave over the Fig5-Fig7 design
#: space, as recorded for the benchmark's radius_design workload
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


# --- bisection ---


def test_bisect_finds_cos_root():
    root = find_root_bisect(math.cos, (0.0, 3.0), tol=1e-12)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-11)


def test_bisect_returns_exact_endpoint_zero():
    f = lambda x: x - 2.0
    assert find_root_bisect(f, (2.0, 5.0), tol=1e-9) == 2.0
    assert find_root_bisect(f, (0.0, 2.0), tol=1e-9) == 2.0


def test_bisect_rejects_bad_brackets():
    with pytest.raises(BracketError, match="no sign change"):
        find_root_bisect(lambda x: 1.0 + x * x, (0.0, 1.0), tol=1e-9)
    with pytest.raises(BracketError, match="empty"):
        find_root_bisect(math.cos, (3.0, 3.0), tol=1e-9)
    with pytest.raises(ValueError, match="tol"):
        find_root_bisect(math.cos, (0.0, 3.0), tol=0.0)


def test_bisect_midpoint_stays_finite_near_the_double_range():
    # both ends finite, but their sum overflows: the midpoint halves each end
    for f, bracket, tol, want in (
        (lambda r: r - 1.5e308, (1e308, 1.7e308), 1e-9, 1.5e308),
        (lambda r: r + 1.5e308, (-1.7e308, 1.7e308), 1e290, -1.5e308),
    ):
        root = find_root_bisect(f, bracket, tol)
        assert math.isfinite(root) and abs(root - want) <= tol


def test_bisect_runs_until_within_tol_on_any_finite_bracket():
    # brackets that take hundreds or a thousand halvings to narrow to tol:
    # the result is within tol of the root, however many steps that takes
    calls = []
    for root, bracket, tol in ((3.0, (0.0, 1e100), 1e-12), (1e-300, (-1.7e308, 1.7e308), 1e-9)):
        calls.clear()
        got = find_root_bisect(lambda r: calls.append(r) or r - root, bracket, tol)
        assert abs(got - root) <= tol, (root, got)
        assert len(calls) > 300


def test_bisect_tolerates_steps():
    f = lambda x: -1.0 if x < 1.7 else 1.0
    root = find_root_bisect(f, (0.0, 4.0), tol=1e-10)
    assert root == pytest.approx(1.7, abs=1e-9)


# --- mean-power optimum ---


def test_mean_optimum_low_density():
    r = optimal_radius_mean(params_for(sn=0.2))
    assert r.case_label is MeanCase.LOW_DENSITY
    assert r.radius > 1.0
    assert r.radius == pytest.approx(1.3283482424554336, rel=1e-9)
    assert r.derivative_residual <= 1e-8
    assert r.evaluations > 0


def test_mean_optimum_medium_density():
    r = optimal_radius_mean(params_for(sn=0.8))
    assert r.case_label is MeanCase.MEDIUM_DENSITY
    assert abs(r.radius - 1.0) <= 0.05
    assert r.radius == pytest.approx(0.9940579695080203, rel=1e-9)


def test_mean_optimum_high_density():
    r = optimal_radius_mean(params_for(sn=1.6))
    assert r.case_label is MeanCase.HIGH_DENSITY
    assert r.radius < 1.0
    assert r.radius == pytest.approx(0.7029051311316437, rel=1e-9)
    assert r.objective == pytest.approx(6.933175014431027e-4, rel=1e-9)


def test_mean_optimum_single_sector_is_the_clamp_distance():
    # one sector radiates omnidirectionally, so the mean is flat in the
    # radius: the derivative at the clamp distance is zero and the seam
    # is reported as the peak
    r = optimal_radius_mean(params_for(sectors=1))
    assert (r.radius, r.case_label, r.derivative_residual, r.evaluations) == (
        1.0, MeanCase.MEDIUM_DENSITY, 0.0, 2
    )


def test_mean_optimum_beats_fine_grid():
    # 5.0 and 10.0 put the optimum below 0.5 m, where the bracket walks inward
    for sn in (0.2, 0.8, 1.6, 5.0, 10.0):
        pr = params_for(sn=sn)
        best = optimal_radius_mean(pr)
        lo, hi = 1e-3, 50.0
        ratio = (hi / lo) ** (1.0 / 999.0)
        grid_best = max(
            analytic.mean_power(pr.with_(charging_radius=lo * ratio**i))
            for i in range(1000)
        )
        assert best.objective >= grid_best * (1.0 - 1e-9)


def test_mean_radius_ignores_transmit_power():
    radii = []
    objectives = []
    for power in (2.0, 4.0, 6.0, 8.0):
        r = optimal_radius_mean(params_for(power=power))
        radii.append(r.radius)
        objectives.append(r.objective)
    assert len(set(radii)) == 1
    # objective is exactly linear in transmit power
    for k, obj in enumerate(objectives):
        assert obj == pytest.approx(objectives[0] * (k + 1), rel=1e-12)


def test_mean_radius_grows_with_sector_count():
    got = [optimal_radius_mean(params_for(sectors=n)).radius for n in (2, 4, 8)]
    assert got[0] <= got[1] <= got[2]


@settings(max_examples=30, deadline=None)
@given(
    sn=st.floats(0.05, 2.0),
    sectors=st.integers(2, 8),
    alpha=st.floats(2.2, 5.0),
    power=st.floats(0.5, 20.0),
)
def test_mean_optimum_is_a_local_max(sn, sectors, alpha, power):
    pr = params_for(power=power, sn=sn, sectors=sectors, alpha=alpha)
    r = optimal_radius_mean(pr)
    assert r.derivative_residual <= 1e-8
    here = r.objective
    for shift in (1.0 - 1e-3, 1.0 + 1e-3):
        nearby = analytic.mean_power(pr.with_(charging_radius=r.radius * shift))
        assert here >= nearby * (1.0 - 1e-12)


# --- reach-probability derivative ---


def test_ccdf_slope_against_plain_difference():
    pr = params_for(power=1.0, rho=1.0)
    got = d_gamma_ccdf_d_rho(pr, 1e-4)
    h = 3e-6
    f = lambda r: analytic.gamma_ccdf(1e-4, pr.with_(charging_radius=r))
    crude = (f(1.0 + h) - f(1.0 - h)) / (2.0 * h)
    assert got == pytest.approx(crude, rel=1e-6)
    assert got == pytest.approx(0.19670224649659393, rel=1e-9)


def test_ccdf_slope_rejects_vanishing_radius():
    with pytest.raises(ValueError, match="too close to zero"):
        d_gamma_ccdf_d_rho(params_for(rho=1e-6), 1e-4)


# --- reach-probability optimum ---


def test_active_optimum_low_power_single_peak():
    r = optimal_radius_active(params_for(power=1.0), 1e-4)
    assert r.case_label is ActiveCase.CASE1
    assert 1.0 <= r.radius <= 2.0
    assert r.radius == pytest.approx(1.4797983425529146, rel=1e-6)
    omni = analytic.gamma_ccdf_omni(1e-4, params_for(power=1.0))
    assert r.objective > omni
    assert r.derivative_residual <= 1e-8


def test_active_optimum_mid_power_dip_then_peak():
    r = optimal_radius_active(params_for(power=3.0), 1e-4)
    assert r.case_label is ActiveCase.CASE2
    assert 1.75 <= r.radius <= 2.75
    assert r.radius == pytest.approx(2.0999134642240165, rel=1e-6)
    omni = analytic.gamma_ccdf_omni(1e-4, params_for(power=3.0))
    assert r.objective >= omni - 1e-12
    assert r.derivative_residual <= 1e-8


def test_active_optimum_high_power_boundary():
    pr = params_for(power=10.0)
    r = optimal_radius_active(pr, 1e-4)
    assert r.case_label is ActiveCase.CASE3_BOUNDARY
    assert math.isnan(r.derivative_residual)
    assert r.objective == pytest.approx(
        analytic.gamma_ccdf_omni(1e-4, pr), rel=1e-12
    )
    # sector-empty probability is spent at the reported boundary radius
    x = pr.sn_density * math.pi * r.radius**2 / pr.sectors
    assert math.exp(-x) <= 1e-7


def test_active_optimum_is_a_local_max_for_interior_cases():
    for power in (1.0, 3.0):
        pr = params_for(power=power)
        r = optimal_radius_active(pr, 1e-4)
        for shift in (1.0 - 1e-3, 1.0 + 1e-3):
            nearby = analytic.gamma_ccdf(
                1e-4, pr.with_(charging_radius=r.radius * shift)
            )
            assert r.objective >= nearby * (1.0 - 1e-12)


def test_active_optimum_refines_the_highest_of_several_peaks():
    # the scan sees peaks near 0.09 m and 2.3 m (direction pattern
    # [1, -1, 1, -1]); the higher, second one is the answer
    pr = params_for(power=1.7030699764674786, pb=0.16041927273506926,
                    sn=0.060509768275147265, sectors=13, alpha=3.364118288219027)
    r = optimal_radius_active(pr, 1.5466508874234999e-4)
    assert r.case_label is ActiveCase.CASE2
    assert r.radius == pytest.approx(2.2884670313026714, rel=1e-12)
    assert r.objective == pytest.approx(0.892695555986038, rel=1e-12)
    assert r.derivative_residual <= 1e-8


def test_active_optimum_takes_a_first_peak_above_a_later_one(monkeypatch):
    # a synthetic landscape: bumps at 0.1 m (height 0.3) and 3 m (0.2) over
    # an omnidirectional value of 0.5; the higher peak comes first, so the
    # objective rises straight to it
    def two_bumps(threshold, params):
        x = math.log(params.charging_radius)
        return (0.5 + 0.3 * math.exp(-((x - math.log(0.1)) ** 2))
                + 0.2 * math.exp(-((x - math.log(3.0)) ** 2)))

    monkeypatch.setattr(analytic, "gamma_ccdf", two_bumps)
    monkeypatch.setattr(analytic, "gamma_ccdf_omni", lambda threshold, params: 0.5)
    r = optimal_radius_active(params_for(), 1e-4)
    assert r.case_label is ActiveCase.CASE1
    assert r.radius == pytest.approx(0.1, rel=1e-4)
    assert r.objective == pytest.approx(0.8, rel=1e-4)


def test_active_optimum_near_one_plateau_is_a_boundary_without_bisection():
    # the objective humps less than the plateau tolerance above omni, where
    # the derivative has no sign change to bisect: no refinement is tried
    pr = params_for(power=0.6661361678432475, pb=0.9386527938918893,
                    sn=0.01720126739757135, sectors=16, alpha=3.8116893855816207)
    r = optimal_radius_active(pr, 5.3126973706594343e-05)
    assert r.case_label is ActiveCase.CASE3_BOUNDARY
    assert r.evaluations == 400


def test_active_optimum_answers_and_beats_a_fine_grid_on_random_scenarios():
    ratio = (1e3 / 1e-3) ** (1.0 / 1999.0)
    grid = [1e-3 * ratio**i for i in range(2000)]
    rng = random.Random(5)
    interior = 0
    for _ in range(40):
        pr = params_for(power=10 ** rng.uniform(-1, 1.5), pb=10 ** rng.uniform(-2, 0),
                        sn=10 ** rng.uniform(-2, 0.7), sectors=rng.randint(1, 16),
                        alpha=rng.uniform(2.2, 5))
        threshold = 10 ** rng.uniform(-6, -2)
        r = optimal_radius_active(pr, threshold)
        if r.case_label is ActiveCase.CASE3_BOUNDARY:
            continue
        interior += 1
        grid_best = max(
            analytic.gamma_ccdf(threshold, pr.with_(charging_radius=r)) for r in grid
        )
        assert r.objective >= grid_best * (1.0 - 1e-12), pr
    assert interior > 0


def test_active_optimum_rejects_bad_threshold(monkeypatch):
    def no_objective(*args):
        raise AssertionError("evaluated the objective for a bad threshold")

    monkeypatch.setattr(analytic, "gamma_ccdf", no_objective)
    for bad in (0.0, -1e-4, math.inf, math.nan, True, "1e-4", None):
        with pytest.raises(ValueError, match="threshold"):
            optimal_radius_active(params_for(), bad)


def test_optimizers_share_the_sector_cap():
    with pytest.raises(ParameterError, match="sector"):
        optimal_radius_mean(params_for(sectors=65))
    with pytest.raises(ParameterError, match="sector"):
        optimal_radius_active(params_for(sectors=65), 1e-4)


def test_result_container_fields():
    r = optimal_radius_mean(params_for())
    assert isinstance(r, RadiusOptimum)
    assert set(r.__dataclass_fields__) == {
        "radius",
        "objective",
        "case_label",
        "derivative_residual",
        "evaluations",
    }


def test_radii_match_benchmark_reference():
    # one key from each run of eight sorted keys, rotating through the eight
    # (power, threshold, optimizer) variants: 42 of the 336 entries. The
    # radii hang on the Lanczos log-gamma; math.lgamma differs from it by up
    # to 2.9e-11 and moves many of them past 1e-12
    outputs = json.loads(BENCH_REFERENCE.read_text())["radius_design"]["outputs"]
    keys = sorted(outputs)
    for q in range(len(keys) // 8):
        key = keys[8 * q + q % 8]
        point, optimizer = key.split("/")
        field = dict(item.split("=") for item in point.split(","))
        params = scenario.params_from_mapping({
            "pb_power_w": float(field["P"]),
            "sn_density_per_m2": float(field["ls"]),
            "sectors": int(field["N"]),
            "charging_radius_m": 1.0,
        })
        if optimizer == "active":
            got = optimal_radius_active(params, float(field["t"]))
        else:
            got = optimal_radius_mean(params)
        radius, label = outputs[key]
        assert got.case_label.value == label, key
        assert got.radius == pytest.approx(radius, rel=1e-12, abs=0.0), key
