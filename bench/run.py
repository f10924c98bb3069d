"""Benchmark of the beamharvest package: three workloads, one per process.

    python3 bench/run.py --workload fig3_sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Run from anywhere; the package is imported from src/ next to this directory.
Each run times passes of the workload for --seconds, checks every output,
prints the metrics one per line and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics. --trace 1 gives the per-layer metrics: it times untraced
passes for half the time and traced passes for the other half, then probes
the Monte Carlo stages one trial at a time. Results and spans go to
.bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 9

#: (name, unit) of each end-to-end metric, reported with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of each per-layer metric, reported with --trace 1. Counts are
#: per pass of the workload, times are medians over the traced passes, and a
#: layer a workload never calls reads 0.
PER_LAYER = (
    ("scenario.validate.calls", "count"),
    ("scenario.validate.self_ms", "ms"),
    ("scenario.with_.calls", "count"),
    ("scenario.with_.self_ms", "ms"),
    ("analytic.gamma_ccdf.calls", "count"),
    ("analytic.gamma_ccdf.us_per_call", "us"),
    ("analytic.d_mean_d_rho.calls", "count"),
    ("analytic.mean_power.calls", "count"),
    ("analytic.self_ms", "ms"),
    ("specfun.regularized_gamma_q.calls", "count"),
    ("specfun.regularized_gamma_q.us_per_call", "us"),
    ("radopt.optimal_radius_active.evaluations", "count"),
    ("radopt.optimal_radius_mean.evaluations", "count"),
    ("radopt.self_ms", "ms"),
    ("mcsim.run_trials.calls", "count"),
    ("mcsim.run_trials.self_s", "s"),
    ("mcsim.run_trials.trials_per_s.uniform", "1/s"),
    ("mcsim.run_trials.trials_per_s.greedy", "1/s"),
    ("mcsim.run_trials.trials_per_s.robust", "1/s"),
    ("mcsim.run_trials.trials_per_s.forced_omni", "1/s"),
    ("mcsim.trial_stream.calls", "count"),
    ("mcsim.trial_stream.self_s", "s"),
    ("mcsim.empirical_ccdf.self_ms", "ms"),
    ("mcsim.draw_network.us_per_call", "us"),
    ("mcsim.received_power_origin.us_per_call.uniform", "us"),
    ("mcsim.received_power_origin.us_per_call.greedy", "us"),
    ("mcsim.received_power_origin.us_per_call.robust", "us"),
    ("mcsim.received_power_origin.us_per_call.forced_omni", "us"),
    ("mcsim.beacons_per_trial", "count"),
    ("mcsim.sensors_per_trial", "count"),
    ("mcsim.pairs_per_trial", "count"),
    ("benchcli.run_figure.self_s", "s"),
    ("benchcli.csv_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

#: The workload-specific names of the generic end-to-end metrics, printed
#: beside them.
ALIASES = {
    "fig3_sweep": {"units_per_s": "trials_per_s"},
    "mc_schemes": {"units_per_s": "trials_per_s"},
    "radius_design": {
        "units_per_s": "optimizations_per_s",
        "call_p50_ms": "opt_p50_ms",
        "call_p90_ms": "opt_p90_ms",
    },
}

WORKLOAD_NAMES = tuple(ALIASES)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only", action="store_true",
        help="import the package, build the workload's inputs and exit (what setup_s times)",
    )
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import beamharvest from this checkout's src/, never from elsewhere."""
    if not (SRC / "beamharvest" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'beamharvest'}")
    sys.path.insert(0, str(SRC))
    import beamharvest

    if Path(beamharvest.__file__).resolve().parent != SRC / "beamharvest":
        raise SystemExit(f"error: imported beamharvest from {beamharvest.__file__}")
    return beamharvest


def time_setup(args, speed) -> float:
    """Median wall time from starting a fresh interpreter to the workload's
    inputs built, over SETUP_PROBES interpreters; speed is sampled between
    them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        speed.sample(20)
    return statistics.median(times)


def run_for(workload, seconds: float, around=contextlib.nullcontext) -> list:
    """Passes of the workload for seconds of wall time: another pass starts
    while the last one would still fit. At least one pass."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(workload.run_pass(around))
    return passes


def end_to_end(passes, setup_s: float, setup_factor: float, factor: float):
    """(reported, measured) end-to-end metrics. Reported times are measured
    times scaled by the Speed factor of the moments they were measured in.

    Every pass makes the same calls in the same order; call percentiles are
    taken over the calls, of each call's median latency across passes.
    """
    calls = np.median([p.call_s for p in passes], axis=0)
    wall = statistics.median(p.wall_s for p in passes)
    measured = {
        "setup_s": setup_s,
        "wall_s": wall,
        "units_per_s": passes[0].units / wall,
        "call_p50_ms": 1e3 * float(np.percentile(calls, 50)),
        "call_p90_ms": 1e3 * float(np.percentile(calls, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    scale = {"setup_s": setup_factor, "wall_s": factor, "units_per_s": 1.0 / factor,
             "call_p50_ms": factor, "call_p90_ms": factor, "peak_rss_mb": 1.0}
    return {k: v * scale[k] for k, v in measured.items()}, measured


def traced_passes(workload, seconds: float):
    """Traced passes for seconds; per-pass span totals and counters."""
    from spans import Tracer
    import workloads

    tracer = Tracer()
    per_pass, counters = [], []

    @contextlib.contextmanager
    def traced_pass():
        per_pass.append([])
        tracer.counters = {}
        with tracer.span("bench.pass", per_pass[-1]):
            yield
        counters.append(tracer.counters)

    with tracer:
        workloads.instrument(tracer)
        passes = run_for(workload, seconds, traced_pass)
    totals = [tracer.totals(lo, hi) for lo, hi in per_pass]
    return passes, totals, counters, tracer


def per_layer(untraced, traced, totals, counters, probes) -> dict:
    def calls(name):
        return totals[0].get(name, {}).get("calls", 0)

    def median_ns(name, key):
        return statistics.median(t.get(name, {}).get(key, 0.0) for t in totals)

    def us_per_call(name):
        n = calls(name)
        return median_ns(name, "incl_ns") / n / 1e3 if n else 0.0

    def layer_self_ns(prefix):
        return statistics.median(
            sum(v["self_ns"] for k, v in t.items() if k.startswith(prefix)) for t in totals
        )

    m = {
        "scenario.validate.calls": calls("scenario.validate"),
        "scenario.validate.self_ms": median_ns("scenario.validate", "self_ns") / 1e6,
        "scenario.with_.calls": calls("scenario.with_"),
        "scenario.with_.self_ms": median_ns("scenario.with_", "self_ns") / 1e6,
        "analytic.gamma_ccdf.calls": calls("analytic.gamma_ccdf"),
        "analytic.gamma_ccdf.us_per_call": us_per_call("analytic.gamma_ccdf"),
        "analytic.d_mean_d_rho.calls": calls("analytic.d_mean_d_rho"),
        "analytic.mean_power.calls": calls("analytic.mean_power"),
        "analytic.self_ms": layer_self_ns("analytic.") / 1e6,
        "specfun.regularized_gamma_q.calls": calls("specfun.regularized_gamma_q"),
        "specfun.regularized_gamma_q.us_per_call": us_per_call("specfun.regularized_gamma_q"),
        "radopt.self_ms": layer_self_ns("radopt.") / 1e6,
        "mcsim.run_trials.calls": calls("mcsim.run_trials"),
        "mcsim.run_trials.self_s": median_ns("mcsim.run_trials", "self_ns") / 1e9,
        "mcsim.trial_stream.calls": calls("mcsim.trial_stream"),
        "mcsim.trial_stream.self_s": median_ns("mcsim.trial_stream", "self_ns") / 1e9,
        "mcsim.empirical_ccdf.self_ms": median_ns("mcsim.empirical_ccdf", "self_ns") / 1e6,
        "benchcli.run_figure.self_s": median_ns("benchcli.run_figure", "self_ns") / 1e9,
        "benchcli.csv_bytes": traced[0].csv_bytes,
        "trace.overhead_s": statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in untraced),
    }
    for which in ("active", "mean"):
        name = f"radopt.optimal_radius_{which}.evaluations"
        m[name] = counters[0].get(name, 0)
    for scheme in ("uniform", "greedy", "robust", "forced_omni"):
        done = [(n, dt) for p in untraced for s, n, dt in p.mc_calls if s == scheme]
        m[f"mcsim.run_trials.trials_per_s.{scheme}"] = (
            sum(n for n, _ in done) / sum(dt for _, dt in done) if done else 0.0
        )
    stage, points = probes
    for key, unit_name in (("draw_network", "mcsim.draw_network.us_per_call"),) + tuple(
        (f"received_power_origin.{s}", f"mcsim.received_power_origin.us_per_call.{s}")
        for s in ("uniform", "greedy", "robust", "forced_omni")
    ):
        total_us, n = stage.get(key, (0.0, 0))
        m[unit_name] = total_us / n if n else 0.0
    for size in ("beacons_per_trial", "sensors_per_trial", "pairs_per_trial"):
        m[f"mcsim.{size}"] = (
            statistics.fmean(p[size] for p in points) if points else 0.0
        )
    return m


def environment(args, settings: dict, passes: int, calls_per_pass: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "beamharvest").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "calls_per_pass": calls_per_pass,
        **settings,
    }


def reference_for(workload, seed: int) -> dict | None:
    """Reference outputs for the workload's passes at this seed, if any.

    A reference recorded with other settings matches nothing, so every
    reference check fails rather than passing vacuously.
    """
    import workloads

    doc = json.loads(REFERENCE.read_text())
    entry = doc.get(workload.name, {})
    if entry.get("settings") != json.loads(json.dumps(workload.settings())):
        return {}
    if workload.name != workloads.RadiusDesign.name and seed != doc["seed"]:
        return None
    return entry["outputs"]


def check(workload, passes, seed: int) -> tuple[int, int, list[str]]:
    """Checks every pass; when the reference does not cover this seed, one
    untimed pass at the reference seed is checked against it as well."""
    import workloads

    reference = reference_for(workload, seed)
    attempted, failed, notes = workloads.check_passes(workload.name, passes, reference)
    if reference is None:
        canary = type(workload)(workloads.DEFAULT_SEED, OUT)
        a, f, n = workloads.check_passes(
            workload.name, [canary.run_pass()], reference_for(canary, workloads.DEFAULT_SEED)
        )
        attempted, failed, notes = attempted + a, failed + f, notes + [f"canary {x}" for x in n]
    return attempted, failed, notes


def run_one(args) -> int:
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, OUT)
        return 0
    workload = cls(args.seed, OUT)
    points, measured, factors = [], None, None
    if args.trace == 0:
        setup_speed = workloads.Speed()
        setup_s = time_setup(args, setup_speed)
        workload.speed = workloads.Speed()
        passes = run_for(workload, args.seconds)
        factors = {"setup": setup_speed.factor(), "passes": workload.speed.factor()}
        metrics, measured = end_to_end(passes, setup_s, factors["setup"], factors["passes"])
        units = dict(END_TO_END)
    else:
        untraced = run_for(workload, args.seconds / 2)
        traced, totals, counters, tracer = traced_passes(workload, args.seconds / 2)
        probes = workload.probe()
        points = probes[1]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = per_layer(untraced, traced, totals, counters, probes)
        units = dict(PER_LAYER)
        passes = untraced + traced
    attempted, failed, notes = check(workload, passes, args.seed)
    env = environment(args, workload.settings(), len(passes), len(passes[0].call_s))
    env["zscores"] = getattr(workload, "zscores", {})
    env["speed_factors"] = factors
    env["measured"] = measured
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "points": points, "notes": notes, **result}, indent=1) + "\n"
    )
    print("# env " + json.dumps(env, sort_keys=True))
    for p in points:
        print("# point " + json.dumps(p, sort_keys=True))
    for note in notes:
        print("# FAILED " + note)
    aliases = ALIASES[args.workload]
    for k, unit in units.items():
        alias = f"  ({aliases[k]})" if k in aliases else ""
        print(f"{args.workload} {k} = {metrics[k]:.6g} {unit}{alias}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so each peak RSS is its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("# ")), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or done.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
