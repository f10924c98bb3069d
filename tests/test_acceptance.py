"""End-to-end acceptance gates for the package.

One test per gate, in four groups: closed forms against an independent
quadrature oracle (A01), Monte Carlo against the closed forms (A02-A04,
A04T), analytical structure of the formulas (A05-A07), optimizer behavior,
the abstract's claims and experiment-harness contracts (A08-A13).  Every
test prints a single verdict line with the measured numbers; the pytest -v
row is the pass/fail record.

The Monte Carlo gates share one frozen seed so their outcomes are
reproducible bit for bit; see conftest.SWEEP_SEED for why it is pinned.
"""

import itertools
import math

import numpy as np
import pytest

import quad_oracle as qo
from beamharvest import analytic, benchcli, mcsim, radopt
from beamharvest.benchcli import ExperimentSpec, FigureId
from beamharvest.mcsim import Allocation, SimConfig
from beamharvest.radopt import ActiveCase, MeanCase
from conftest import SWEEP_SEED, SWEEP_TRIALS, curve_params

THRESHOLD_W = 1e-4


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    if not ok:
        pytest.fail(f"{tag} {detail}", pytrace=False)


def _rel(got: float, want: float) -> float:
    scale = max(abs(got), abs(want))
    return abs(got - want) / scale if scale else 0.0


# ---------------------------------------------------------------------------
# A01: closed-form Laplace transforms vs adaptive quadrature
# ---------------------------------------------------------------------------


def test_a01_laplace_closed_forms_match_quadrature():
    pr = curve_params(power=5.0)
    tol = 1e-8
    worst, count = 0.0, 0
    bad = []
    for s in (1e1, 1e2, 1e3, 1e4):
        checks = [
            ("total", 0, analytic.laplace_total(s, pr), qo.laplace_total_quad(s, pr)),
            ("omni", 0, analytic.laplace_omni(s, pr), qo.laplace_omni_quad(s, pr)),
        ]
        for m in range(1, pr.sectors + 1):
            checks.append(
                ("near", m, analytic.laplace_near(s, m, pr), qo.laplace_near_quad(s, m, pr))
            )
        for m in range(0, pr.sectors + 1):
            checks.append(
                ("far", m, analytic.laplace_far(s, m, pr), qo.laplace_far_quad(s, m, pr))
            )
        for name, m, got, want in checks:
            count += 1
            rel = _rel(got, want)
            worst = max(worst, rel)
            if rel > tol:
                bad.append(f"{name} M={m} s={s:g}: rel {rel:.2e}")
    _verdict(
        "A01",
        not bad,
        f"{count} transform values, worst relative gap {worst:.2e} (tol {tol:g})"
        + ("; " + "; ".join(bad) if bad else ""),
    )


# ---------------------------------------------------------------------------
# A02/A03: simulated means and variances vs closed forms
# ---------------------------------------------------------------------------


def test_a02_simulated_means_match_closed_forms(power_curve_sweep):
    worst = 0.0
    bad = []
    for (rho, sn), summary in sorted(power_curve_sweep.items()):
        want = analytic.mean_power(curve_params(rho=rho, sn=sn))
        rel = abs(summary.mean - want) / want
        worst = max(worst, rel)
        if rel > 0.02:
            bad.append(f"rho={rho} sn={sn}: rel {rel:.3%}")
    # Omnidirectional reference: four-significant-figure tabulated value of
    # the closed-form mean at this deployment, checked against its own MC run.
    cfg = SimConfig(
        trials=SWEEP_TRIALS, master_seed=SWEEP_SEED, allocation=Allocation.FORCED_OMNI
    )
    omni = mcsim.run_trials(curve_params(), cfg, workers=1)
    se = math.sqrt(omni.variance / SWEEP_TRIALS)
    omni_sigmas = abs(omni.mean - 5.9675e-4) / se
    if omni_sigmas > 3.0:
        bad.append(f"omni mean {omni.mean:.6e} W off reference by {omni_sigmas:.2f} SE")
    _verdict(
        "A02",
        not bad,
        f"12 operating points, worst mean gap {worst:.3%} (tol 2%); "
        f"omni reference gap {omni_sigmas:.2f} SE (tol 3)"
        + ("; " + "; ".join(bad) if bad else ""),
    )


def test_a03_simulated_variances_match_closed_forms(power_curve_sweep):
    worst = 0.0
    bad = []
    for (rho, sn), summary in sorted(power_curve_sweep.items()):
        want = analytic.variance_power(curve_params(rho=rho, sn=sn))
        rel = abs(summary.variance - want) / want
        worst = max(worst, rel)
        if rel > 0.05:
            bad.append(f"rho={rho} sn={sn}: rel {rel:.3%}")
    _verdict(
        "A03",
        not bad,
        f"12 operating points, worst variance gap {worst:.3%} (tol 5%)"
        + ("; " + "; ".join(bad) if bad else ""),
    )


# ---------------------------------------------------------------------------
# A04: two-moment gamma CCDF vs empirical CCDF
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def a04_draw():
    """A04's deployment and its 50,000-trial draw, which A04T reads too."""
    pr = curve_params(power=5.0)
    summary = mcsim.run_trials(
        pr, SimConfig(trials=50_000, master_seed=SWEEP_SEED), workers=1
    )
    return pr, summary


def test_a04_gamma_ccdf_tracks_empirical_ccdf(a04_draw):
    pr, summary = a04_draw
    grid = np.linspace(0.01e-3, 1.0e-3, 50)
    emp = np.array([float(np.mean(summary.samples >= t)) for t in grid])
    fit = np.array([analytic.gamma_ccdf(float(t), pr) for t in grid])
    gap = float(np.max(np.abs(emp - fit)))
    at_mw = float(grid[int(np.argmax(np.abs(emp - fit)))]) * 1e3
    # Known limitation (see README): the two-moment fit puts visible mass
    # below the left knee of the true distribution at this deployment, and
    # its noise-free sup error here measures ~0.052.  The 0.05 budget is
    # deliberately kept rather than loosened, so this gate records the miss.
    _verdict(
        "A04",
        gap <= 0.05,
        f"sup |fit - empirical| = {gap:.4f} at {at_mw:.3f} mW over 50 thresholds (tol 0.05)",
    )


# ---------------------------------------------------------------------------
# A04T: the paper's exact Laplace transform vs the empirical transform
# ---------------------------------------------------------------------------


def test_a04t_laplace_transform_tracks_empirical_transform(a04_draw):
    # A transform determines its law, so matching E[exp(-sP)] at several s
    # checks the whole distribution with no fit (A04) and no inversion.
    # s = c / mean power; |z| is in standard errors of the sample mean of
    # exp(-sP). The z-scores at different s are correlated
    pr, summary = a04_draw
    mean = analytic.mean_power(pr)
    z = []
    for c in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        s = c / mean
        terms = np.exp(-s * summary.samples)
        se = float(np.std(terms, ddof=1)) / math.sqrt(len(terms))
        z.append((float(np.mean(terms)) - analytic.laplace_total(s, pr)) / se)
    _verdict(
        "A04T",
        max(map(abs, z)) < 4.0,
        "empirical minus exact transform at s = (0.25, 0.5, 1, 2, 4, 8) / mean: z = "
        + ", ".join(f"{v:+.2f}" for v in z) + " (tol |z| < 4)",
    )


# ---------------------------------------------------------------------------
# A05-A07: structural properties of the closed forms
# ---------------------------------------------------------------------------


def test_a05_branch_forms_agree_at_the_seam():
    rng = np.random.default_rng(20260819)
    above = math.nextafter(1.0, 2.0)
    tol = 1e-9
    worst = 0.0
    bad = []
    for i in range(100):
        pr_at = curve_params(
            power=float(rng.uniform(0.5, 20.0)),
            pb=float(rng.uniform(0.01, 2.0)),
            sn=float(rng.uniform(0.01, 2.0)),
            sectors=int(rng.integers(1, 9)),
            rho=1.0,
            alpha=float(rng.uniform(2.1, 5.0)),
        )
        pr_up = pr_at.with_(charging_radius=above)
        s = float(10.0 ** rng.uniform(0.0, 4.0))
        for name, got, want in (
            ("mean", analytic.mean_power(pr_at), analytic.mean_power(pr_up)),
            ("variance", analytic.variance_power(pr_at), analytic.variance_power(pr_up)),
            ("laplace", analytic.laplace_total(s, pr_at), analytic.laplace_total(s, pr_up)),
        ):
            rel = _rel(got, want)
            worst = max(worst, rel)
            if rel > tol:
                bad.append(f"draw {i} {name}: rel {rel:.2e}")
    _verdict(
        "A05",
        not bad,
        f"100 random deployments, worst seam mismatch {worst:.2e} (tol {tol:g})"
        + ("; " + "; ".join(bad) if bad else ""),
    )


def test_a06_single_sector_and_extreme_radius_degeneracy():
    tol = 1e-12
    worst = 0.0
    bad = []
    for rho in (0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0):
        pr = curve_params(sectors=1, rho=rho)
        base = analytic.mean_power_omni(pr)
        pairs = [
            ("mean", analytic.mean_power(pr), base),
            ("variance", analytic.variance_power(pr), analytic.variance_omni(pr)),
        ]
        for s in (10.0, 1e3):
            pairs.append(
                (f"laplace s={s:g}", analytic.laplace_total(s, pr), analytic.laplace_omni(s, pr))
            )
        for frac in (0.2, 1.0, 3.0):
            t = frac * base
            pairs.append(
                (f"ccdf t={frac}E", analytic.gamma_ccdf(t, pr), analytic.gamma_ccdf_omni(t, pr))
            )
        for name, got, want in pairs:
            rel = _rel(got, want)
            worst = max(worst, rel)
            if rel > tol:
                bad.append(f"rho={rho} {name}: rel {rel:.2e}")
    # a vanishing or enormous charging region deactivates the directional
    # advantage even with several sectors
    worst_limit = 0.0
    for rho in (0.01, 1e3):
        pr = curve_params(rho=rho)
        rel = abs(analytic.mean_power(pr) / analytic.mean_power_omni(pr) - 1.0)
        worst_limit = max(worst_limit, rel)
        if rel > 0.005:
            bad.append(f"rho={rho}: mean {rel:.3%} away from omni (tol 0.5%)")
    _verdict(
        "A06",
        not bad,
        f"single-sector collapse worst gap {worst:.2e} (tol 1e-12); "
        f"extreme-radius mean within {worst_limit:.3%} of omni (tol 0.5%)"
        + ("; " + "; ".join(bad) if bad else ""),
    )


def test_a07_dominance_and_identity_sums():
    rng = np.random.default_rng(7)
    id_tol = 1e-12
    worst_id = 0.0
    strict_checked = 0
    bad = []
    for i in range(200):
        n = int(rng.integers(2, 9))
        pr = curve_params(
            power=5.0,
            pb=float(rng.uniform(0.01, 2.0)),
            sn=float(rng.uniform(0.01, 2.0)),
            sectors=n,
            rho=float(rng.uniform(0.05, 20.0)),
            alpha=float(rng.uniform(2.1, 5.0)),
        )
        q = 1.0 - analytic.sector_empty_prob(pr)
        near = [analytic.reception_prob_near(m, pr) for m in range(1, n + 1)]
        far = [analytic.reception_prob_far(m, pr) for m in range(0, n + 1)]
        gains = [analytic.gain(m, n) for m in range(0, n + 1)]
        near_ratio, far_ratio = analytic.near_far_mean_ratios(pr)
        sums = [
            ("near total", math.fsum(near), 1.0),
            ("far beamed", math.fsum(far[1:]), q),
            ("near gain-weighted", math.fsum(w * g for w, g in zip(near, gains[1:])), near_ratio),
            ("far gain-weighted", math.fsum(w * g for w, g in zip(far, gains)), far_ratio),
        ]
        for name, got, want in sums:
            err = abs(got - want) / max(1.0, abs(want))
            worst_id = max(worst_id, err)
            if err > id_tol:
                bad.append(f"draw {i} {name}: err {err:.2e}")
        m_ad = analytic.mean_power(pr)
        m_om = analytic.mean_power_omni(pr)
        v_ad = analytic.variance_power(pr)
        v_om = analytic.variance_omni(pr)
        if m_ad < m_om * (1.0 - 1e-12) or v_ad < v_om * (1.0 - 1e-12):
            bad.append(f"draw {i}: directional below omni beyond rounding")
        # Strict inequality is only float-decidable while the sector-empty
        # probability stays representable: the directional excess scales
        # with p = exp(-x), so for x beyond ~36 it sits under one ulp and a
        # strict > would measure summation noise, not the formulas.
        x = pr.sn_density * math.pi * pr.charging_radius**2 / n
        if x <= 30.0:
            strict_checked += 1
            if not (m_ad > m_om and v_ad > v_om):
                bad.append(f"draw {i}: strict dominance failed (x={x:.2f})")
    if strict_checked < 40:
        bad.append(f"only {strict_checked} draws exercised strict dominance")
    _verdict(
        "A07",
        not bad,
        f"200 draws: worst identity error {worst_id:.2e} (tol 1e-12); strict "
        f"dominance on {strict_checked} representable draws, bounded dominance on all"
        + ("; " + "; ".join(bad) if bad else ""),
    )


# ---------------------------------------------------------------------------
# A08-A10: radius optimizers
# ---------------------------------------------------------------------------


def test_a08_mean_optimal_radius_cases():
    bad = []
    grid = np.geomspace(1e-3, 50.0, 1000)
    for sn, want_case in ((0.2, MeanCase.LOW_DENSITY), (0.8, MeanCase.MEDIUM_DENSITY), (1.6, MeanCase.HIGH_DENSITY)):
        pr = curve_params(sn=sn)
        opt = radopt.optimal_radius_mean(pr)
        if opt.case_label is not want_case:
            bad.append(f"sn={sn}: case {opt.case_label.value}")
        if sn == 0.2 and not opt.radius > 1.0:
            bad.append(f"sn=0.2: radius {opt.radius:.4f} not above 1")
        if sn == 0.8 and not abs(opt.radius - 1.0) <= 0.05:
            bad.append(f"sn=0.8: radius {opt.radius:.4f} not within 0.05 of 1")
        if sn == 1.6 and not opt.radius < 1.0:
            bad.append(f"sn=1.6: radius {opt.radius:.4f} not below 1")
        grid_best = max(
            analytic.mean_power(pr.with_(charging_radius=float(g))) for g in grid
        )
        if not opt.objective >= grid_best * (1.0 - 1e-9):
            bad.append(f"sn={sn}: a grid radius beats the optimum by "
                       f"{grid_best / opt.objective - 1.0:.2e}")
    # transmit power re-scales the curve without moving its argmax
    powers = (2.0, 4.0, 6.0, 8.0)
    opts = [radopt.optimal_radius_mean(curve_params(power=p)) for p in powers]
    radii = {o.radius for o in opts}
    if len(radii) != 1:
        bad.append(f"radius moved with power: {sorted(radii)}")
    per_watt = [o.objective / p for o, p in zip(opts, powers)]
    spread = (max(per_watt) - min(per_watt)) / max(per_watt)
    if spread > 1e-12:
        bad.append(f"objective not linear in power: spread {spread:.2e}")
    _verdict(
        "A08",
        not bad,
        "three density regimes labeled and bracketed, optimum beats a "
        f"1000-point radius grid, radius power-invariant (per-watt spread {spread:.1e})"
        + ("; " + "; ".join(bad) if bad else ""),
    )


def test_a09_active_optimal_radius_cases():
    bad = []
    opt_by_power = {}
    for p in (1.0, 3.0, 10.0):
        pr = curve_params(power=p, threshold=THRESHOLD_W)
        opt_by_power[p] = radopt.optimal_radius_active(pr, THRESHOLD_W)
    opt1, opt3, opt10 = opt_by_power[1.0], opt_by_power[3.0], opt_by_power[10.0]
    if opt1.case_label is ActiveCase.CASE3_BOUNDARY:
        bad.append("power 1 W: expected an interior optimum")
    if not 1.0 <= opt1.radius <= 2.0:
        bad.append(f"power 1 W: radius {opt1.radius:.4f} outside [1, 2]")
    omni1 = analytic.gamma_ccdf_omni(THRESHOLD_W, curve_params(power=1.0))
    if not opt1.objective > omni1:
        bad.append(f"power 1 W: objective {opt1.objective:.4f} not above omni {omni1:.4f}")
    if not 1.75 <= opt3.radius <= 2.75:
        bad.append(f"power 3 W: radius {opt3.radius:.4f} outside [1.75, 2.75]")
    if opt10.case_label is not ActiveCase.CASE3_BOUNDARY:
        bad.append(f"power 10 W: case {opt10.case_label.value}, expected the boundary plateau")
    # brute-force simulated check of the argmax location (interior cases)
    rho_grid = [0.25 * k for k in range(1, 17)]
    cfg = SimConfig(trials=10_000, master_seed=SWEEP_SEED)
    mc_note = []
    for p in (1.0, 3.0):
        rows = benchcli.active_prob_grid(
            curve_params(power=p), rho_grid, THRESHOLD_W, cfg, workers=1
        )
        best_rho = max(rows, key=lambda r: r[1])[0]
        diff = abs(best_rho - opt_by_power[p].radius)
        mc_note.append(f"P={p:g}: |MC argmax - radius| = {diff:.3f}")
        if diff > 0.5:
            bad.append(f"power {p:g} W: MC argmax {best_rho} vs optimum "
                       f"{opt_by_power[p].radius:.4f} (tol 0.5)")
    _verdict(
        "A09",
        not bad,
        "interior/boundary cases classified; " + ", ".join(mc_note) + " (tol 0.5)"
        + ("; " + "; ".join(bad) if bad else ""),
    )


def _check_monotone(bad, label, values, increasing, tol=1e-12):
    for a, b in zip(values, values[1:]):
        slack = tol * max(abs(a), abs(b))
        if increasing and b < a - slack:
            bad.append(f"{label}: {b:.6e} after {a:.6e}")
        if not increasing and b > a + slack:
            bad.append(f"{label}: {b:.6e} after {a:.6e}")


def test_a10_optimum_trends():
    bad = []
    sector_range = range(2, 9)
    sn_range = (0.1, 0.2, 0.4, 0.8, 1.6)

    mean_by_n = [radopt.optimal_radius_mean(curve_params(sectors=n)) for n in sector_range]
    _check_monotone(bad, "mean radius vs sectors", [o.radius for o in mean_by_n], True)
    _check_monotone(bad, "mean objective vs sectors", [o.objective for o in mean_by_n], True)

    mean_by_sn = [radopt.optimal_radius_mean(curve_params(sn=sn)) for sn in sn_range]
    _check_monotone(bad, "mean radius vs density", [o.radius for o in mean_by_sn], False)
    _check_monotone(bad, "mean objective vs density", [o.objective for o in mean_by_sn], False)

    active_by_n = [
        radopt.optimal_radius_active(
            curve_params(power=3.0, sectors=n, threshold=THRESHOLD_W), THRESHOLD_W
        )
        for n in sector_range
    ]
    _check_monotone(bad, "reach vs sectors", [o.objective for o in active_by_n], True)

    active_by_p = [
        radopt.optimal_radius_active(
            curve_params(power=p, threshold=THRESHOLD_W), THRESHOLD_W
        )
        for p in (1.0, 2.0, 3.0, 5.0, 10.0)
    ]
    _check_monotone(bad, "reach vs power", [o.objective for o in active_by_p], True)

    active_by_sn = [
        radopt.optimal_radius_active(
            curve_params(power=3.0, sn=sn, threshold=THRESHOLD_W), THRESHOLD_W
        )
        for sn in sn_range
    ]
    _check_monotone(bad, "reach vs density", [o.objective for o in active_by_sn], False)

    _verdict(
        "A10",
        not bad,
        "mean-optimal radius/objective rise with sectors and fall with sensor "
        "density; maximized reach rises with sectors and power, falls with density"
        + ("; " + "; ".join(bad) if bad else ""),
    )


# ---------------------------------------------------------------------------
# A13: the abstract's claims over a deployment grid, closed forms only
# ---------------------------------------------------------------------------


def test_a13_abstract_claims_over_a_deployment_grid():
    # Both optima rise strictly with beacon density and with beacon power,
    # the mean optimum beats omni, and the reach optimum is at least omni
    # (where no scanned radius clears omni reach the optimizer returns it,
    # Case3Boundary). A10 checks the sector and sensor-density trends
    bad = []
    powers = (1.0, 3.0, 10.0)
    pb_densities = (0.02, 0.05, 0.1, 0.2, 0.4, 0.8)
    mean_opt, reach_opt, mean_gain, boundary = {}, {}, math.inf, 0
    for key in itertools.product(powers, (0.1, 0.2, 0.8, 1.6), (2, 4, 8), pb_densities):
        p, sn, n, pb = key
        pr = curve_params(power=p, pb=pb, sn=sn, sectors=n, threshold=THRESHOLD_W)
        mean_opt[key] = radopt.optimal_radius_mean(pr).objective
        reach = radopt.optimal_radius_active(pr, THRESHOLD_W)
        reach_opt[key] = reach.objective
        boundary += reach.case_label is ActiveCase.CASE3_BOUNDARY
        omni = analytic.mean_power_omni(pr)
        mean_gain = min(mean_gain, mean_opt[key] / omni)
        if not mean_opt[key] > omni:
            bad.append(f"{key}: mean optimum not above omni")
        if not reach.objective >= analytic.gamma_ccdf_omni(THRESHOLD_W, pr):
            bad.append(f"{key}: reach optimum below omni")
    for name, opt in (("mean", mean_opt), ("reach", reach_opt)):
        for key, got in opt.items():
            for axis, levels, i in (("power", powers, 0), ("beacon density", pb_densities, 3)):
                k = levels.index(key[i]) + 1
                up = key[:i] + levels[k : k + 1] + key[i + 1 :]
                if k < len(levels) and not opt[up] > got:
                    bad.append(f"{key}: {name} optimum not rising with {axis}")
    _verdict(
        "A13",
        not bad,
        f"{len(mean_opt)} deployments: both optima rise strictly with beacon "
        f"density and power; mean optimum >= {mean_gain:.4f}x omni; reach optimum "
        f">= omni ({boundary} Case3Boundary)" + ("; " + "; ".join(bad) if bad else ""),
    )


# ---------------------------------------------------------------------------
# A11/A12: experiment harness contracts
# ---------------------------------------------------------------------------


def test_a11_allocation_scheme_ordering():
    rho_star = radopt.optimal_radius_mean(curve_params()).radius
    base = curve_params(rho=rho_star, threshold=THRESHOLD_W)
    report = benchcli.compare_schemes(
        base, (2.0, 6.0, 10.0), SimConfig(trials=20_000, master_seed=SWEEP_SEED), workers=1
    )
    bad = []
    confirmed = 0
    for entry in report["entries"]:
        p = entry["pb_power_w"]
        for v in entry["mean_ordering"]:
            if v["verdict"] != "confirmed":
                bad.append(
                    f"P={p:g}: mean {v['expected_ge']} >= {v['other']} is "
                    f"{v['verdict']} (delta {v['delta']:+.2e}, ci {v['ci95']:.2e})"
                )
            else:
                confirmed += 1
        for v in entry["active_ordering"]:
            # The robust-vs-uniform reach gap at the mean-optimal radius is
            # orders below the paired CI (both schemes serve every occupied
            # sector), so any non-contradiction verdict upholds the ordering;
            # uniform-vs-greedy separates cleanly and must confirm.
            if v["verdict"] == "violated":
                bad.append(
                    f"P={p:g}: reach {v['expected_ge']} >= {v['other']} violated "
                    f"(delta {v['delta']:+.2e}, ci {v['ci95']:.2e})"
                )
            elif v["expected_ge"] == "uniform" and v["verdict"] != "confirmed":
                bad.append(
                    f"P={p:g}: reach uniform >= greedy only {v['verdict']} "
                    f"(delta {v['delta']:+.2e}, ci {v['ci95']:.2e})"
                )
            elif v["verdict"] == "confirmed":
                confirmed += 1
    _verdict(
        "A11",
        not bad,
        f"three powers at radius {rho_star:.4f}: all orderings hold at 95% "
        f"({confirmed} pairs strictly confirmed, none violated)"
        + ("; " + "; ".join(bad) if bad else ""),
    )


def test_a12_byte_identical_reruns(tmp_path):
    bad = []
    # figure rerun across worker counts
    dirs = []
    for tag, workers in (("a", 1), ("b", 2)):
        out = tmp_path / f"fig_{tag}"
        spec = ExperimentSpec(
            figure_id=FigureId.FIG3, output_dir=str(out), seed=777, trials=60
        )
        benchcli.run_figure(spec, workers=workers)
        dirs.append(out)
    names = [sorted(p.name for p in d.iterdir()) for d in dirs]
    if names[0] != names[1]:
        bad.append(f"figure listings differ: {names[0]} vs {names[1]}")
    else:
        for name in names[0]:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                bad.append(f"figure file {name} differs across worker counts")
    # simulate rerun across worker counts, through the command line
    sim_dirs = []
    for tag, workers in (("a", 1), ("b", 3)):
        out = tmp_path / f"sim_{tag}"
        rc = benchcli.main(
            [
                "simulate",
                "--trials", "400",
                "--seed", "123",
                "--out", str(out),
                "--workers", str(workers),
            ]
        )
        if rc != 0:
            bad.append(f"simulate exited {rc}")
        sim_dirs.append(out)
    for name in ("samples.csv", "summary.json"):
        if (sim_dirs[0] / name).read_bytes() != (sim_dirs[1] / name).read_bytes():
            bad.append(f"simulate file {name} differs across worker counts")
    _verdict(
        "A12",
        not bad,
        "figure (1 vs 2 workers) and simulate (1 vs 3 workers) reruns are "
        "byte-identical" + ("; " + "; ".join(bad) if bad else ""),
    )
