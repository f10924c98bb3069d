"""Self-tests of the benchmark: span arithmetic, output checks, call counts.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys

import run
import workloads
from spans import Tracer, self_times
from beamharvest import radopt, scenario


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # root [0, 100] has children a [10, 40] and b [30, 60], which overlap,
    # and c [90, 120], which runs past the root's end; a has child g [15, 20].
    parent = [-1, 0, 0, 0, 1]
    start = [0, 10, 30, 90, 15]
    end = [100, 40, 60, 120, 20]
    assert self_times(parent, start, end).tolist() == [40, 25, 30, 30, 5]


def test_self_time_of_unordered_siblings_and_separate_roots():
    parent = [-1, 0, 0, -1, 3]
    start = [0, 50, 10, 200, 210]
    end = [100, 60, 20, 300, 290]
    assert self_times(parent, start, end).tolist() == [80, 10, 10, 20, 80]


def _passes(outputs_per_pass, z=None):
    return [
        workloads.PassResult(1.0, 1, [1.0], dict(o), dict(z or {}))
        for o in outputs_per_pass
    ]


def _failed_frac(workload, passes, reference):
    attempted, failed, _ = workloads.check_passes(workload, passes, reference)
    return failed / attempted


def test_corrupted_digest_raises_failed_frac():
    good = {"uniform": "ab" * 32, "forced_omni": "cd" * 32}
    assert _failed_frac("mc_schemes", _passes([good, good]), good) == 0.0
    corrupted = {**good, "uniform": "00" + good["uniform"][2:]}
    assert _failed_frac("mc_schemes", _passes([good, good]), corrupted) == 0.5
    assert _failed_frac("mc_schemes", _passes([good, corrupted]), None) == 0.25


def test_closed_form_miss_raises_failed_frac():
    good = {"uniform": "ab" * 32}
    assert _failed_frac("mc_schemes", _passes([good], z={"uniform": 3.9}), None) == 0.0
    assert _failed_frac("mc_schemes", _passes([good], z={"uniform": 4.0}), None) == 1.0
    assert _failed_frac("mc_schemes", _passes([good], z={"uniform": float("nan")}), None) == 1.0


def test_moved_radius_raises_failed_frac():
    ref = {"p/active": [1.2345678901234, "Case1"], "p/mean": [0.75, "HighDensity"]}
    same = {"p/active": (1.2345678901234 * (1 + 1e-13), "Case1"), "p/mean": (0.75, "HighDensity")}
    assert _failed_frac("radius_design", _passes([same]), ref) == 0.0
    moved = {**same, "p/active": (1.2345678901234 * (1 + 1e-11), "Case1")}
    assert _failed_frac("radius_design", _passes([moved]), ref) == 0.5
    relabelled = {**same, "p/mean": (0.75, "MediumDensity")}
    assert _failed_frac("radius_design", _passes([relabelled]), ref) == 0.5


def test_reference_recorded_for_other_settings_fails_every_check(monkeypatch):
    w = workloads.RadiusDesign(workloads.DEFAULT_SEED, run.OUT)
    monkeypatch.setattr(w, "settings", lambda: {"design_points": 1})
    assert run.reference_for(w, workloads.DEFAULT_SEED) == {}


def test_traced_optimal_radius_active_counts_match_the_roadmap():
    params = scenario.params_from_mapping({})  # the default deployment
    with Tracer() as tracer:
        workloads.instrument(tracer)
        extent = []
        with tracer.span("call", extent):
            radopt.optimal_radius_active(params, 1e-4)
    totals = tracer.totals(*extent)
    assert totals["scenario.validate"]["calls"] == 1717
    assert tracer.counters["radopt.optimal_radius_active.evaluations"] == 561
    assert not hasattr(radopt.optimal_radius_active, "__wrapped__")  # restored


def test_benchmark_json_names_every_metric_the_benchmark_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_schemes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_reported_times_are_measured_times_at_reference_speed():
    speed = workloads.Speed()
    reference = workloads.KERNEL_REFERENCE_S
    speed.samples = [2 * reference, 2 * reference, 3 * reference]  # half speed
    assert speed.factor() == 0.5
    passes = [workloads.PassResult(4.0, 8, [0.1, 0.2, 0.3], {}) for _ in range(3)]
    reported, measured = run.end_to_end(passes, 0.4, 0.5, speed.factor())
    assert measured["wall_s"] == 4.0 and reported["wall_s"] == 2.0
    assert reported["units_per_s"] == 4.0 and measured["units_per_s"] == 2.0
    assert reported["setup_s"] == 0.2
    assert reported["call_p50_ms"] == 0.5 * measured["call_p50_ms"]
    assert reported["peak_rss_mb"] == measured["peak_rss_mb"]
