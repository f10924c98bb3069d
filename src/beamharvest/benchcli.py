"""Experiment harness and command line.

Reproduces the reference experiment set (Fig2 through Fig8) as CSV files
plus a JSON manifest, runs one-off analytic or Monte Carlo evaluations, and
compares power-allocation schemes with paired confidence intervals.

Determinism contract: a figure run is a pure function of (figure id,
overrides, seed, trials). Per-point seeds are derived from the master seed
by hashing the curve name and point index, so curves are independent yet
reproducible, and worker count never changes any emitted byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analytic, mcsim, radopt, scenario, specfun
from ._args import real
from .mcsim import Allocation, SimConfig
from .scenario import ConfigError, ParameterError

__all__ = [
    "FigureId",
    "ExperimentSpec",
    "run_figure",
    "compare_schemes",
    "active_prob_grid",
    "load_config",
    "main",
]

#: Trial count of simulation runs that name none.
_DEFAULT_TRIALS = 20_000

#: Master seed of figure and simulation runs that name none.
_DEFAULT_SEED = 20260819


class FigureId(enum.Enum):
    """Reference experiments, named for the figures they reproduce."""

    FIG2 = "Fig2"
    FIG3 = "Fig3"
    FIG4 = "Fig4"
    FIG5 = "Fig5"
    FIG6 = "Fig6"
    FIG7 = "Fig7"
    FIG8 = "Fig8"


@dataclass(frozen=True)
class ExperimentSpec:
    """One figure run: id, key=value overrides, output dir, seed, trials.

    trials=0 keeps each figure's default budget (50k for the CCDF figure,
    20k per Monte Carlo curve point); Fig5-Fig7 run no Monte Carlo and
    take only 0 and the default seed.
    """

    figure_id: FigureId
    overrides: tuple = ()
    output_dir: str = "."
    seed: int = _DEFAULT_SEED
    trials: int = 0


def _derive_seed(master_seed: int, *parts) -> int:
    """Stable per-point master seed: avoids stream overlap between curve
    points while keeping every byte reproducible from the experiment seed."""
    text = ":".join([str(master_seed)] + [repr(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _CsvSink:
    """Collects named CSV bodies, then writes them with content hashes."""

    def __init__(self) -> None:
        self.files: dict[str, str] = {}

    def add(self, name: str, header: str, rows) -> None:
        lines = [header]
        for row in rows:
            lines.append(",".join(repr(float(v)) for v in row))
        self.files[name] = "\n".join(lines) + "\n"

    def write(self, out_dir: Path) -> dict:
        listing = {}
        for name, body in sorted(self.files.items()):
            mcsim._write_new(out_dir / name, [body])
            listing[name] = hashlib.sha256(body.encode()).hexdigest()
        return listing


def _check_out_dir(out: Path) -> None:
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ConfigError(f"output directory {str(out)!r} is blocked by a file")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _reach(samples, thresholds) -> list[tuple[float, float]]:
    """Fraction of samples at or above each threshold, with its 95% CI half-width."""
    n = len(samples)
    return [
        (frac, 1.96 * math.sqrt(max(frac * (1 - frac), 0.0) / n))
        for _, frac in mcsim.empirical_ccdf(samples, thresholds)
    ]


def _fig2_curves(params, seed, trials, sink, workers):
    thresholds = np.linspace(1e-5, 1e-3, 50)
    gamma = [analytic.gamma_ccdf(t, params) for t in thresholds]
    sink.add(
        "fig2_gamma_ccdf.csv",
        "threshold_w,ccdf",
        zip(thresholds, gamma),
    )
    _progress(f"fig2: simulating {trials} trials")
    cfg = SimConfig(trials=trials, master_seed=_derive_seed(seed, "fig2"))
    summary = mcsim.run_trials(params, cfg, workers=workers)
    rows = [(t, *r) for t, r in zip(thresholds, _reach(summary.samples, thresholds))]
    sink.add("fig2_empirical_ccdf.csv", "threshold_w,ccdf,ci95", rows)


#: Radii of the Monte Carlo points on each radius-sweep curve.
_MC_RHOS = (0.5, 1.0, 2.0, 4.0)


def _radius_sweep(params, seed, trials, sink, workers, *, fig, field, tag,
                  levels, rho_grid, active, names):
    """Figs 3-4: for each level of a scenario field, the closed-form curve
    over rho_grid, the omni line and Monte Carlo points at _MC_RHOS.

    active=False plots the mean power, active=True the probability of
    reaching power_threshold_w. names are the curve, omni and Monte Carlo
    file names, with "{}" for the level.
    """
    threshold = params.power_threshold if active else None
    column, ci = ("active_prob", "ci95") if active else ("mean_power_w", "ci95_w")
    curve_name, omni_name, mc_name = names
    for level in levels:
        at_level = params.with_(**{field: level})
        at = [at_level.with_(charging_radius=float(rho)) for rho in rho_grid]
        if active:
            curve = [analytic.gamma_ccdf(threshold, p) for p in at]
            omni = analytic.gamma_ccdf_omni(threshold, at_level)
        else:
            curve = [analytic.mean_power(p) for p in at]
            omni = analytic.mean_power_omni(at_level)
        sink.add(curve_name.format(level), f"rho_m,{column}", zip(rho_grid, curve))
        sink.add(
            omni_name.format(level),
            f"rho_m,{column}",
            [(r, omni) for r in rho_grid],
        )
        mc_rows = []
        for i, rho in enumerate(_MC_RHOS):
            _progress(f"{fig} {tag}={level}: mc point {i + 1}/{len(_MC_RHOS)}")
            p = at_level.with_(charging_radius=rho)
            cfg = SimConfig(trials=trials,
                            master_seed=_derive_seed(seed, fig, level, rho))
            s = mcsim.run_trials(p, cfg, workers=workers)
            stat = _reach(s.samples, [threshold])[0] if active else (s.mean, s.mean_ci95)
            mc_rows.append((rho, *stat))
        sink.add(mc_name.format(level), f"rho_m,{column},{ci}", mc_rows)


# Fig3's omni line does not depend on the sensor density: one file
_fig3_curves = functools.partial(
    _radius_sweep, fig="fig3", field="sn_density", tag="ls",
    levels=(0.2, 0.8, 1.6), rho_grid=np.linspace(0.1, 4.0, 40), active=False,
    names=("fig3_mean_ls{}.csv", "fig3_mean_omni.csv", "fig3_mc_ls{}.csv"),
)
_fig4_curves = functools.partial(
    _radius_sweep, fig="fig4", field="pb_power", tag="pp",
    levels=(1.0, 3.0, 10.0), rho_grid=np.linspace(0.25, 5.0, 40), active=True,
    names=("fig4_gamma_pp{}.csv", "fig4_omni_pp{}.csv", "fig4_mc_pp{}.csv"),
)

#: Axes of the optimum sweeps (a scenario key and its points) and their
#: beacon powers.
_SECTORS = ("sectors", range(2, 9))
_DENSITIES = ("sn_density_per_m2", (0.1, 0.2, 0.4, 0.8, 1.2, 1.6))
_MEAN_POWERS = (2.0, 4.0, 6.0, 8.0)
_ACTIVE_POWERS = (2.0, 8.0)


def _optimum_sweep(params, seed, trials, sink, workers, *, sweeps):
    """Figs 5-7: the optimum over the charging radius along an axis, one
    file per beacon power.

    Each sweep is (file name with "{}" for the power, axis, powers, column);
    powers None keeps the scenario's, which moves no radius. The column
    names what is written:
    the mean-optimal radius (rho_star_m), the mean power there
    (mean_power_w) or the best reach probability (active_prob).
    """
    for name, (key, points), powers, column in sweeps:
        field = scenario._KEY_FIELDS[key]
        for pp in powers or (params.pb_power,):
            rows = []
            for v in points:
                at = params.with_(**{field: v, "pb_power": pp})
                if column == "active_prob":
                    best = radopt.optimal_radius_active(at, params.power_threshold).objective
                else:
                    opt = radopt.optimal_radius_mean(at)
                    best = opt.radius if column == "rho_star_m" else opt.objective
                rows.append((v, best))
            sink.add(name.format(pp), f"{key},{column}", rows)


_fig5_curves = functools.partial(_optimum_sweep, sweeps=(
    ("fig5a_rho_star.csv", _SECTORS, None, "rho_star_m"),
    ("fig5b_estar_pp{}.csv", _SECTORS, _MEAN_POWERS, "mean_power_w"),
))
_fig6_curves = functools.partial(_optimum_sweep, sweeps=(
    ("fig6a_rho_star.csv", _DENSITIES, None, "rho_star_m"),
    ("fig6b_estar_pp{}.csv", _DENSITIES, _MEAN_POWERS, "mean_power_w"),
))
_fig7_curves = functools.partial(_optimum_sweep, sweeps=(
    ("fig7a_fstar_pp{}.csv", _SECTORS, _ACTIVE_POWERS, "active_prob"),
    ("fig7b_fstar_pp{}.csv", _DENSITIES, _ACTIVE_POWERS, "active_prob"),
))


def _fig8_curves(params, seed, trials, sink, workers):
    powers = (2.0, 4.0, 6.0, 8.0, 10.0)
    threshold = params.power_threshold
    schemes = (Allocation.GREEDY, Allocation.ROBUST, Allocation.UNIFORM)
    mean_rows = {s: [] for s in schemes}
    active_rows = {s: [] for s in schemes}
    rho_grid = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    for pp in powers:
        at_power = params.with_(pb_power=pp)
        rho_star = radopt.optimal_radius_mean(at_power).radius
        at_star = at_power.with_(charging_radius=rho_star)
        for s in schemes:
            # one seed per power: the mean run and every grid radius share it
            cfg = SimConfig(trials=trials, allocation=s,
                            master_seed=_derive_seed(seed, "fig8", pp))
            _progress(f"fig8 pp={pp}: mean run, {s.value}")
            summ = mcsim.run_trials(at_star, cfg, workers=workers)
            mean_rows[s].append((pp, summ.mean, summ.mean_ci95))
            _progress(f"fig8 pp={pp}: active grid, {s.value}")
            grid = active_prob_grid(at_power, rho_grid, threshold, cfg, workers=workers)
            best = max(grid, key=lambda row: row[1])
            active_rows[s].append((pp, best[1], best[2]))
    for s in schemes:
        sink.add(
            f"fig8a_mean_{s.value}.csv", "pb_power_w,mean_power_w,ci95_w",
            mean_rows[s],
        )
        sink.add(
            f"fig8b_active_{s.value}.csv", "pb_power_w,active_prob,ci95",
            active_rows[s],
        )


def _reach_threshold(threshold, context: str) -> float:
    """threshold as the reach optimizer takes it (radopt._check_threshold),
    its refusal a ConfigError that starts with context."""
    try:
        return radopt._check_threshold(threshold)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def active_prob_grid(params, rho_values, threshold, config, workers=1):
    """Monte Carlo reach probability over a radius grid: the brute-force
    answer to "which radius maximizes the simulated active fraction".

    Returns (rho, prob, ci95) rows; every radius reuses the same master
    seed so the comparison across radii is as paired as the geometry
    allows.
    """
    threshold = radopt._check_threshold(threshold)
    rows = []
    for rho in map(real, rho_values):  # a value the rule refuses fails validate
        p = params.with_(charging_radius=rho)
        s = mcsim.run_trials(p, config, workers=workers)
        rows.append((rho, *_reach(s.samples, [threshold])[0]))
    return rows


#: Each figure's scenario values over the config defaults; the config keys
#: it sweeps or never reads, which it takes no override of; its default
#: trial budget (0: closed forms only, no trials or seed accepted) and its
#: builder.
_FIGURES = {
    FigureId.FIG2: ({}, ("power_threshold_w",), 50_000, _fig2_curves),
    FigureId.FIG3: ({"pb_power_w": 10.0},
                    ("sn_density_per_m2", "charging_radius_m", "power_threshold_w"),
                    20_000, _fig3_curves),
    FigureId.FIG4: ({}, ("pb_power_w", "charging_radius_m"), 20_000, _fig4_curves),
    FigureId.FIG5: ({}, ("pb_power_w", "sectors", "charging_radius_m", "power_threshold_w"),
                    0, _fig5_curves),
    FigureId.FIG6: ({}, ("pb_power_w", "sn_density_per_m2", "charging_radius_m",
                         "power_threshold_w"), 0, _fig6_curves),
    FigureId.FIG7: ({}, ("pb_power_w", "charging_radius_m"), 0, _fig7_curves),
    FigureId.FIG8: ({}, ("pb_power_w", "charging_radius_m"), 20_000, _fig8_curves),
}


def run_figure(spec: ExperimentSpec, workers: int = 1) -> dict:
    """Produce one figure's CSV set plus manifest.json in spec.output_dir.

    Returns the manifest mapping: params holds the resolved value of every
    config key the figure reads, seed is None for a figure that runs no
    Monte Carlo, and trials is the budget the figure ran. Reruns with an
    identical spec produce byte-identical files regardless of worker count.
    A figure that runs no Monte Carlo refuses any trial count but 0, any
    worker count but 1 and any seed but the default; an override of a key
    the figure sweeps or never reads is refused. Every refusal comes before
    any output is written.
    """
    figure_values, unread, budget, build = _FIGURES[spec.figure_id]
    fig = spec.figure_id.value
    trials = spec.trials
    mcsim._check_trials(trials, 0)
    mcsim._check_seed(spec.seed)
    mcsim._check_workers(workers)
    for name, value, idle in (("trials", trials, 0), ("workers", workers, 1),
                              ("seed", spec.seed, _DEFAULT_SEED)):
        if value != idle and not budget:
            raise ConfigError(f"{fig} runs no Monte Carlo; {name} must be {idle}, got {value!r}")
    out_dir = Path(spec.output_dir)
    _check_out_dir(out_dir)
    trials = trials or budget
    overrides: dict = {}
    _read_config(overrides, overrides=spec.overrides)
    refused = [key for key in unread if key in overrides]
    if refused:
        raise ConfigError(
            f"{fig} sweeps or never reads {', '.join(map(repr, refused))}; drop the override"
        )
    params = scenario.params_from_mapping({**figure_values, **overrides})
    if spec.figure_id in (FigureId.FIG7, FigureId.FIG8):  # before any optimum or trial
        _reach_threshold(params.power_threshold, f"{fig} optimizes reach")
    sink = _CsvSink()
    build(params, spec.seed, trials, sink, workers)
    listing = sink.write(out_dir)
    read = {k: v for k, v in scenario.params_to_mapping(params).items() if k not in unread}
    manifest = {"figure": fig, "params": read, "seed": spec.seed if budget else None,
                "trials": trials}
    manifest["content_hash"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()
    ).hexdigest()
    manifest["files"] = listing
    manifest["versions"] = {"beamharvest": __version__, "numpy": np.__version__}
    mcsim._write_new(
        out_dir / "manifest.json", [json.dumps(manifest, sort_keys=True, indent=2) + "\n"]
    )
    return manifest


def _paired_verdict(delta: float, se: float, labels: tuple) -> dict:
    hi, lo = labels
    if se == 0.0:
        verdict = "tie" if delta == 0.0 else ("confirmed" if delta > 0 else "violated")
    elif delta > 1.96 * se:
        verdict = "confirmed"
    elif delta < -1.96 * se:
        verdict = "violated"
    else:
        verdict = "within_ci"
    return {
        "expected_ge": hi,
        "other": lo,
        "delta": delta,
        "ci95": 1.96 * se,
        "verdict": verdict,
    }


#: Expected orderings, as (higher, lower) pairs, of the mean power and of
#: the probability of reaching the threshold.
_MEAN_ORDER = ((Allocation.GREEDY, Allocation.ROBUST), (Allocation.ROBUST, Allocation.UNIFORM))
_ACTIVE_ORDER = ((Allocation.ROBUST, Allocation.UNIFORM), (Allocation.UNIFORM, Allocation.GREEDY))


def compare_schemes(params, sweep, config, workers: int = 1) -> dict:
    """Scheme shoot-out at each transmit power in sweep.

    Networks are shared across schemes trial for trial (only the allocation
    stream differs), so pairwise differences cancel the geometry noise and
    the confidence intervals come from the per-trial deltas. The expected
    orderings checked are mean: greedy >= robust >= uniform, and active
    probability: robust >= uniform >= greedy. Fewer than two trials leave
    the deltas without a spread, so they are a ConfigError.
    """
    mcsim._check_config(config)
    if config.trials < 2:
        raise ConfigError(
            f"paired intervals need at least 2 trials, got {config.trials!r}"
        )
    threshold = params.power_threshold
    report = {"pb_power_w": list(map(real, sweep)), "entries": []}
    for pp in report["pb_power_w"]:  # a value the rule refuses fails validate
        p = params.with_(pb_power=pp)
        samples = {}
        entry = {"pb_power_w": pp, "schemes": {}}
        for alloc in (Allocation.UNIFORM, Allocation.GREEDY, Allocation.ROBUST):
            cfg = dataclasses.replace(config, allocation=alloc)
            s = mcsim.run_trials(p, cfg, workers=workers)
            samples[alloc] = s.samples
            stats = {
                "mean_w": s.mean,
                "mean_ci95_w": s.mean_ci95,
            }
            if threshold > 0:
                stats["active_prob"], stats["active_ci95"] = _reach(
                    s.samples, [threshold]
                )[0]
            entry["schemes"][alloc.value] = stats
        orderings = [("mean_ordering", samples, _MEAN_ORDER)]
        if threshold > 0:
            reached = {a: (x >= threshold).astype(float) for a, x in samples.items()}
            orderings.append(("active_ordering", reached, _ACTIVE_ORDER))
        for name, per_trial, pairs in orderings:
            entry[name] = []
            for hi, lo in pairs:
                d = per_trial[hi] - per_trial[lo]
                entry[name].append(
                    _paired_verdict(
                        float(d.mean()),
                        float(d.std(ddof=1)) / math.sqrt(config.trials),
                        (hi.value, lo.value),
                    )
                )
        report["entries"].append(entry)
    return report


#: Simulation config keys: the SimConfig field each sets and its parser.
_SIM_FIELDS = {
    "trials": ("trials", int),
    "seed": ("master_seed", int),
    "allocation": ("allocation", Allocation),
}


def _read_config(scen: dict, sim=None, path=None, overrides=()) -> None:
    """Parse key=value config text into scen and, when given, sim.

    In the file at path (if any), '#' starts a comment, blank lines are
    skipped, a key may appear once, and errors name path:line. overrides
    are --set items read after the file, the later one winning. Scenario
    keys parse as float (sectors as int); simulation keys fill sim with
    SimConfig fields, and are unknown keys when sim is None.
    """

    def put(where: str, raw: str, text: str) -> str:
        key, eq, val = text.partition("=")
        if not eq:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        key, val = key.strip(), val.strip()
        if key in scenario.CONFIG_KEYS:
            out, name, parse = scen, key, int if key == "sectors" else float
        elif sim is not None and key in _SIM_FIELDS:
            out, (name, parse) = sim, _SIM_FIELDS[key]
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            out[name] = parse(val)
        except ValueError:
            raise ConfigError(f"{where}: invalid value {val!r} for {key!r}") from None
        return key

    lines = Path(path).read_text().splitlines() if path else ()
    seen: set = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            where = f"{path}:{lineno}"
            key = put(where, raw, text)
            if key in seen:
                raise ConfigError(f"{where}: duplicate key {key!r}")
            seen.add(key)
    for item in overrides:
        put("override", item, item)


def load_config(path=None, overrides=()) -> tuple:
    """Read an optional key=value config file into (ScenarioParams, SimConfig).

    Scenario keys follow the scenario module's table; simulation keys are
    trials, seed, allocation. Omitted keys take their defaults, and
    overrides apply after file values.
    """
    scen: dict = {}
    sim = {"trials": _DEFAULT_TRIALS, "master_seed": _DEFAULT_SEED}
    _read_config(scen, sim, path, overrides)
    return scenario.params_from_mapping(scen), SimConfig(**sim)


def _gather(args) -> tuple:
    """Resolve (params, config) from --config, --set and the run flags."""
    overrides = list(args.set or [])
    for key in ("seed", "trials", "allocation"):
        if getattr(args, key, None) is not None:
            overrides.append(f"{key}={getattr(args, key)}")
    return load_config(args.config, overrides)


def _cmd_analytic(args) -> int:
    params, _ = _gather(args)
    doc = {
        "mean_power_w": analytic.mean_power(params),
        "variance_power_w2": analytic.variance_power(params),
        "mean_power_omni_w": analytic.mean_power_omni(params),
        "variance_power_omni_w2": analytic.variance_omni(params),
        "params": scenario.params_to_mapping(params),
    }
    ga = analytic.gamma_approx(params)
    doc["gamma_shape"] = ga.shape
    doc["gamma_scale_w"] = ga.scale
    if params.power_threshold > 0:
        doc["active_prob"] = analytic.gamma_ccdf(params.power_threshold, params)
        doc["active_prob_omni"] = analytic.gamma_ccdf_omni(
            params.power_threshold, params
        )
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    params, config = _gather(args)
    if args.out:
        _check_out_dir(Path(args.out))
    summary = mcsim.run_trials(params, config, workers=args.workers)
    text = mcsim.summary_to_json(summary, params, config)
    if args.out:
        out = Path(args.out)
        mcsim.samples_to_csv(summary, out / "samples.csv")
        mcsim._write_new(out / "summary.json", [text + "\n"])
        _progress(f"wrote {out / 'samples.csv'} and {out / 'summary.json'}")
    else:
        print(text)
    return 0


def _print_optimum(opt: radopt.RadiusOptimum, objective: str) -> int:
    """Print an optimizer result as JSON, its objective under that key."""
    residual = opt.derivative_residual
    print(
        json.dumps(
            {
                "rho_star_m": opt.radius,
                objective: opt.objective,
                "case": opt.case_label.value,
                "derivative_residual": None if math.isnan(residual) else residual,
                "evaluations": opt.evaluations,
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def _cmd_optimize_mean(args) -> int:
    params, _ = _gather(args)
    return _print_optimum(radopt.optimal_radius_mean(params), "mean_power_w")


def _cmd_optimize_active(args) -> int:
    params, _ = _gather(args)
    threshold = params.power_threshold if args.threshold is None else args.threshold
    threshold = _reach_threshold(threshold, "optimize-active (--threshold or power_threshold_w)")
    return _print_optimum(
        radopt.optimal_radius_active(params, threshold), "active_prob"
    )


def _cmd_figure(args) -> int:
    try:
        fid = FigureId(args.id.capitalize())
    except ValueError:
        raise ConfigError(f"unknown figure id {args.id!r}") from None
    # file values reach the figure as the first overrides (repr round-trips)
    from_file: dict = {}
    _read_config(from_file, path=args.config)
    overrides = [f"{key}={val!r}" for key, val in from_file.items()]
    spec = ExperimentSpec(
        figure_id=fid,
        overrides=tuple(overrides + (args.set or [])),
        output_dir=args.out or fid.value.lower(),
        seed=args.seed if args.seed is not None else _DEFAULT_SEED,
        trials=args.trials or 0,
    )
    manifest = run_figure(spec, workers=args.workers)
    _progress(f"wrote {len(manifest['files'])} files to {spec.output_dir}")
    print(json.dumps(manifest, sort_keys=True, indent=2))
    return 0


def _cmd_validate(args) -> int:
    seed = 7 if args.seed is None else args.seed
    mcsim._check_seed(seed)
    failures = []

    def check(name, ok):
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        print(line)
        if not ok:
            failures.append(name)

    params, _ = load_config()
    etas_n = [analytic.reception_prob_near(m, params) for m in range(1, params.sectors + 1)]
    check("near occupancy distribution sums to 1", abs(sum(etas_n) - 1.0) < 1e-12)
    gains = sum(
        analytic.reception_prob_far(m, params) * analytic.gain(m, params.sectors)
        for m in range(0, params.sectors + 1)
    )
    check("far gain mass sums to 1", abs(gains - 1.0) < 1e-12)
    lo = analytic.mean_power(params.with_(charging_radius=1.0 - 1e-12))
    hi = analytic.mean_power(params.with_(charging_radius=1.0 + 1e-12))
    check("mean continuous across branch seam", abs(hi / lo - 1.0) < 1e-9)
    one = params.with_(sectors=1)
    check(
        "single sector reduces to omni",
        abs(analytic.mean_power(one) - analytic.mean_power_omni(one)) < 1e-18,
    )
    # three batches: one lane runs them in this process, the lanes of
    # run_trials(workers=1) on the pool; with one usable CPU there is no pool
    lanes = mcsim._lanes(1)
    if lanes == 1:
        print("SKIP trial streams lane-count invariant (one usable CPU: no pool to compare)")
    else:
        cfg = SimConfig(trials=200, master_seed=seed)
        runs = [mcsim._run_batches(params, cfg, n) for n in (1, lanes)]
        check("trial streams lane-count invariant (in-process vs pool)", np.array_equal(*runs))
    growing = analytic.mean_power(params) > analytic.mean_power_omni(params)
    check("directional beats omni mean", growing)
    if failures:
        print(f"{len(failures)} validation failure(s)", file=sys.stderr)
        return 1
    return 0


#: Each shared flag's argparse settings; a subcommand registers the ones
#: its handler reads.
_FLAGS = {
    "config": dict(help="key=value config file"),
    "set": dict(action="append", metavar="KEY=VALUE",
                help="override a config key (repeatable)"),
    "seed": dict(type=int, help="master seed (64-bit)"),
    "trials": dict(type=int, help="Monte Carlo trial count"),
    "out": dict(help="output directory"),
    "workers": dict(type=int, default=1,
                    help="workers (default 1): two lanes per worker, never more "
                         "than the CPUs the process may use; more than one lane "
                         "runs in a pool of processes"),
}


def _add_common(sub, flags=("config", "set")):
    for flag in flags:
        sub.add_argument(f"--{flag}", **_FLAGS[flag])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beamharvest",
        description="Directional wireless power transfer: analysis, "
        "simulation, optimization, figure reproduction.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("analytic", help="closed-form metrics"))

    run_flags = ("config", "set", "seed", "trials", "out", "workers")
    p_sim = subs.add_parser("simulate", help="Monte Carlo run")
    _add_common(p_sim, run_flags)
    p_sim.add_argument(
        "--allocation",
        choices=[a.value for a in Allocation],
        help="power allocation scheme",
    )

    _add_common(subs.add_parser("optimize-mean", help="mean-power optimal radius"))

    p_oa = subs.add_parser(
        "optimize-active", help="reach-probability optimal radius"
    )
    _add_common(p_oa)
    p_oa.add_argument("--threshold", type=float, help="power threshold (W)")

    p_fig = subs.add_parser("figure", help="reproduce a reference figure")
    p_fig.add_argument("id", help="Fig2 .. Fig8")
    _add_common(p_fig, run_flags)

    p_val = subs.add_parser("validate", help="run invariant self-checks")
    p_val.add_argument("--seed", type=int, help="seed for the MC smoke check")

    args = parser.parse_args(argv)
    handlers = {
        "analytic": _cmd_analytic,
        "simulate": _cmd_simulate,
        "optimize-mean": _cmd_optimize_mean,
        "optimize-active": _cmd_optimize_active,
        "figure": _cmd_figure,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    except (radopt.BracketError, radopt.ClassificationError) as exc:
        print(f"optimizer failure: {exc}", file=sys.stderr)
        return 1
    except specfun.RangeError as exc:
        print(f"outside the supported numeric range: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except mcsim.OutputError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
