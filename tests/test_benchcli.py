"""Config loading, figure harness determinism, scheme comparison, CLI."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from beamharvest import benchcli, scenario
from beamharvest.benchcli import (
    ExperimentSpec,
    FigureId,
    active_prob_grid,
    compare_schemes,
    load_config,
    main,
    run_figure,
)
from beamharvest.mcsim import AUTO_WINDOW, Allocation, SimConfig
from beamharvest.scenario import ConfigError


# --- config resolution ---


def test_load_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# scenario\n"
        "pb_power_w = 3.0  # trailing comment\n"
        "sectors=6\n"
        "charging_radius_m = 1.5\n"
        "\n"
        "trials = 1234\n"
        "seed = 42\n"
        "allocation = robust\n"
        "window_radius = 25.0\n"
    )
    params, config = load_config(cfg)
    assert params.pb_power == 3.0
    assert params.sectors == 6 and isinstance(params.sectors, int)
    assert params.charging_radius == 1.5
    assert params.sn_density == 0.2  # default fills the rest
    assert params.power_threshold == scenario.CONFIG_DEFAULTS["power_threshold_w"]
    assert config == SimConfig(
        trials=1234,
        master_seed=42,
        window_radius=25.0,
        allocation=Allocation.ROBUST,
    )


def test_load_config_defaults():
    params, config = load_config()
    assert params.pb_power == 5.0
    assert params.sectors == 4
    assert config.trials == 20_000
    assert config.master_seed == 20260819
    assert config.window_radius == AUTO_WINDOW
    assert config.allocation is Allocation.UNIFORM


def test_overrides_win_over_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pb_power_w = 3.0\ntrials = 10\n")
    params, config = load_config(
        cfg, overrides=("pb_power_w=7.5", "trials=99", "window_radius=auto")
    )
    assert params.pb_power == 7.5
    assert config.trials == 99
    assert config.window_radius == AUTO_WINDOW


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pb_power_w = 1\nwhatever = 2\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*whatever"):
        load_config(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("trials = 5\ntrials = 6\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(dup)
    dup.write_text("sectors = 4\nsectors = 8\n")
    with pytest.raises(ConfigError, match="duplicate key 'sectors'"):
        load_config(dup)
    noval = tmp_path / "noval.cfg"
    noval.write_text("pb_power_w = 1\n\nnot a pair\n")
    with pytest.raises(ConfigError, match=r"noval\.cfg:3: expected key=value"):
        load_config(noval)
    badval = tmp_path / "badval.cfg"
    badval.write_text("trials = soon\n")
    with pytest.raises(ConfigError, match="invalid value"):
        load_config(badval)
    badval.write_text("pb_power_w = banana\n")
    with pytest.raises(ConfigError, match="invalid value 'banana' for 'pb_power_w'"):
        load_config(badval)
    # the AUTO window is sized by the exact zone; the old knob is gone
    gone = tmp_path / "gone.cfg"
    gone.write_text("tail_epsilon = 0.5\n")
    with pytest.raises(ConfigError, match=r"gone\.cfg:1: unknown key 'tail_epsilon'"):
        load_config(gone)
    with pytest.raises(ConfigError, match="allocation"):
        load_config(overrides=("allocation=fastest",))
    with pytest.raises(ConfigError, match="key=value"):
        load_config(overrides=("trials",))


def test_derive_seed_is_stable():
    a = benchcli._derive_seed(1, "fig3", 0.2, 1.0)
    assert a == benchcli._derive_seed(1, "fig3", 0.2, 1.0)
    assert a != benchcli._derive_seed(1, "fig3", 0.2, 2.0)
    assert a != benchcli._derive_seed(2, "fig3", 0.2, 1.0)
    assert 0 <= a < 1 << 64


# --- figure harness ---


def test_run_figure_fig5_outputs(tmp_path):
    spec = ExperimentSpec(
        figure_id=FigureId.FIG5, output_dir=str(tmp_path / "a"), seed=3
    )
    manifest = run_figure(spec)
    out = tmp_path / "a"
    assert (out / "manifest.json").exists()
    assert manifest["figure"] == "Fig5"
    assert manifest["seed"] == 3
    for name, digest in manifest["files"].items():
        body = (out / name).read_text()
        assert hashlib.sha256(body.encode()).hexdigest() == digest
    head = (out / "fig5a_rho_star.csv").read_text().splitlines()[0]
    assert head == "sectors,rho_star_m"
    # radii grow with the sector count
    radii = [
        float(line.split(",")[1])
        for line in (out / "fig5a_rho_star.csv").read_text().splitlines()[1:]
    ]
    assert radii == sorted(radii)


def test_run_figure_is_byte_stable(tmp_path):
    for d in ("x", "y"):
        run_figure(
            ExperimentSpec(
                figure_id=FigureId.FIG5, output_dir=str(tmp_path / d), seed=9
            )
        )
    for name in (tmp_path / "x").iterdir():
        twin = tmp_path / "y" / name.name
        assert twin.read_bytes() == name.read_bytes()


def test_run_figure_worker_invariant(tmp_path):
    for d, workers in (("w1", 1), ("w2", 2)):
        run_figure(
            ExperimentSpec(
                figure_id=FigureId.FIG3,
                output_dir=str(tmp_path / d),
                seed=5,
                trials=60,
            ),
            workers=workers,
        )
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert "fig3_mc_ls0.2.csv" in names
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == (
            tmp_path / "w2" / name
        ).read_bytes()


#: sha256 over the sorted "name sha256" lines of every file (CSVs and
#: manifest.json) that each figure writes at seed 11 with PINNED_TRIALS and
#: the manifest's version fields set to "pinned". Fig5-Fig7 were re-recorded
#: when their manifests' trials went from 20000 to 0, the budget they run.
FIGURE_PINS = {
    "Fig2": "416278a3e2d0ef43c76d9fb4a585fef370d616d0727412a342c11f86c2d168c8",
    "Fig3": "e41742e5705045dd7d9bf51c4a82e09a9d0a327a4704c790958ca8af636f0779",
    "Fig4": "cbb603942a835f6bc0a3b984ac5ff06968af40387fa979fc1bb179caebf3b93c",
    "Fig5": "f185cf22caafcc0588e6d80d027d4800fb80821c47ea7f77884a77b63e722512",
    "Fig6": "ce2d0fbc2c357e03a221431b3056f3e40a2cb93629d473dff285c1f54368c0c6",
    "Fig7": "06f426e2098b01c9b01bef78b86779a88ae25834670f943e0c8431010ce9fa0f",
    "Fig8": "7413b52987591acb30472e3caf1b39fb66d2d6d537fd6b837295db9d355ed151",
}
PINNED_TRIALS = {FigureId.FIG2: 300, FigureId.FIG3: 40, FigureId.FIG4: 40,
                 FigureId.FIG8: 20}


def test_run_figure_bytes_are_pinned(tmp_path, monkeypatch):
    # the manifest records the installed versions; fix them so the pin
    # holds the figure code, not the environment
    monkeypatch.setattr(benchcli, "__version__", "pinned")
    monkeypatch.setattr(benchcli.np, "__version__", "pinned")
    digests = {}
    for fid in FigureId:
        out = tmp_path / fid.value
        run_figure(
            ExperimentSpec(fid, output_dir=str(out), seed=11,
                           trials=PINNED_TRIALS.get(fid, 0))
        )
        lines = [
            f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}"
            for p in sorted(out.iterdir())
        ]
        digests[fid.value] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digests == FIGURE_PINS


def test_run_figure_rejects_unknown_override(tmp_path):
    spec = ExperimentSpec(
        figure_id=FigureId.FIG5,
        overrides=("sectors=six",),
        output_dir=str(tmp_path),
    )
    with pytest.raises(ConfigError):
        run_figure(spec)
    # a figure fixes its own trials and seed: simulation keys are unknown
    for item in ("trials=5", "seed=1"):
        spec = ExperimentSpec(
            figure_id=FigureId.FIG5, overrides=(item,), output_dir=str(tmp_path)
        )
        with pytest.raises(ConfigError, match="unknown key"):
            run_figure(spec)


def test_run_figure_rejects_bad_trials(tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("figure work started before trials was checked")

    monkeypatch.setattr(benchcli.analytic, "mean_power", no_work)
    monkeypatch.setattr(benchcli.radopt, "optimal_radius_mean", no_work)
    out = tmp_path / "never"
    cases = [(FigureId.FIG3, -5), (FigureId.FIG3, 2.5), (FigureId.FIG3, True),
             (FigureId.FIG3, "40"), (FigureId.FIG5, -5)]
    # Fig5-Fig7 run no Monte Carlo, so any trial count is a mistake
    cases += [(fid, 10) for fid in (FigureId.FIG5, FigureId.FIG6, FigureId.FIG7)]
    for fid, trials in cases:
        spec = ExperimentSpec(fid, output_dir=str(out), trials=trials)
        with pytest.raises(ConfigError, match="trials"):
            run_figure(spec)
    assert not out.exists()


def test_cli_figure_rejects_bad_trials(tmp_path, capsys):
    out = tmp_path / "f5"
    assert main(["figure", "fig5", "--trials", "-5", "--out", str(out)]) == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


def test_figure_base_tables_cover_all_ids():
    assert set(benchcli._FIGURES) == set(FigureId)
    for values, budget, build in benchcli._FIGURES.values():
        # a valid scenario, over the same base run_figure uses
        scenario.params_from_mapping({**benchcli._FIGURE_BASE, **values})
        assert isinstance(budget, int) and budget >= 0 and callable(build)


def _record_run_trials(monkeypatch, fake=False):
    """Patch mcsim.run_trials to log each config; fake=True skips the work."""
    calls, real = [], benchcli.mcsim.run_trials

    def logged(params, config, workers=1):
        calls.append(config)
        if fake:
            x = np.linspace(0.0, 1e-3, 7)
            return types.SimpleNamespace(samples=x, mean=float(x.mean()), mean_ci95=0.0)
        return real(params, config, workers=workers)

    monkeypatch.setattr(benchcli.mcsim, "run_trials", logged)
    return calls


def test_manifest_trials_is_the_budget_the_figure_ran(tmp_path, monkeypatch):
    calls = _record_run_trials(monkeypatch)
    for fid in FigureId:
        calls.clear()
        manifest = run_figure(ExperimentSpec(
            fid, output_dir=str(tmp_path / fid.value), seed=11,
            trials=PINNED_TRIALS.get(fid, 0),
        ))
        assert manifest["trials"] == PINNED_TRIALS.get(fid, 0)
        assert [c.trials for c in calls] == [manifest["trials"]] * len(calls)
        assert bool(calls) == (fid in PINNED_TRIALS)


def test_manifest_hashes_the_resolved_budget(tmp_path, monkeypatch, capsys):
    # the default budget and the same budget named explicitly run the same
    # figure, so they write the same manifest, content_hash included
    _record_run_trials(monkeypatch, fake=True)
    outs = [tmp_path / "default", tmp_path / "named"]
    assert main(["figure", "fig2", "--out", str(outs[0])]) == 0
    assert main(["figure", "fig2", "--trials", "50000", "--out", str(outs[1])]) == 0
    capsys.readouterr()
    first, second = ((out / "manifest.json").read_bytes() for out in outs)
    assert first == second


def test_default_budget_reaches_every_run(tmp_path, monkeypatch):
    calls = _record_run_trials(monkeypatch, fake=True)
    budgets = {FigureId.FIG2: 50_000, FigureId.FIG3: 20_000,
               FigureId.FIG4: 20_000, FigureId.FIG8: 20_000}
    for fid in FigureId:
        calls.clear()
        manifest = run_figure(ExperimentSpec(fid, output_dir=str(tmp_path / fid.value)))
        assert manifest["trials"] == budgets.get(fid, 0)
        assert {c.trials for c in calls} == ({budgets[fid]} if fid in budgets else set())


# --- scheme comparison ---


def test_compare_schemes_report_shape():
    params, _ = load_config(
        overrides=("charging_radius_m=1.3", "power_threshold_w=1e-4")
    )
    config = SimConfig(trials=300, master_seed=17, window_radius=12.0)
    report = compare_schemes(params, (2.0, 6.0), config)
    assert report["pb_power_w"] == [2.0, 6.0]
    assert len(report["entries"]) == 2
    entry = report["entries"][0]
    assert set(entry["schemes"]) == {"uniform", "greedy", "robust"}
    stats = entry["schemes"]["greedy"]
    assert set(stats) == {"mean_w", "mean_ci95_w", "active_prob", "active_ci95"}
    assert 0.0 <= stats["active_prob"] <= 1.0
    labels = [(v["expected_ge"], v["other"]) for v in entry["mean_ordering"]]
    assert labels == [("greedy", "robust"), ("robust", "uniform")]
    labels = [(v["expected_ge"], v["other"]) for v in entry["active_ordering"]]
    assert labels == [("robust", "uniform"), ("uniform", "greedy")]
    verdicts = {
        v["verdict"]
        for v in entry["mean_ordering"] + entry["active_ordering"]
    }
    assert verdicts <= {"confirmed", "violated", "within_ci", "tie"}


def test_compare_schemes_single_sector_ties():
    # one sector: every scheme is the same policy on the same networks
    params, _ = load_config(overrides=("sectors=1", "power_threshold_w=1e-4"))
    config = SimConfig(trials=200, master_seed=4, window_radius=10.0)
    report = compare_schemes(params, (5.0,), config)
    entry = report["entries"][0]
    for verdict in entry["mean_ordering"] + entry["active_ordering"]:
        assert verdict["verdict"] == "tie"
        assert verdict["delta"] == 0.0


def test_compare_schemes_rejects_fewer_than_two_trials(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("ran Monte Carlo without a spread to report")

    monkeypatch.setattr(benchcli.mcsim, "run_trials", no_trials)
    params, _ = load_config(overrides=("power_threshold_w=1e-4",))
    # run_trials' own rule refuses 0 first
    for trials, message in ((0, "positive integer"), (1, "at least 2 trials")):
        config = SimConfig(trials=trials, master_seed=4, window_radius=10.0)
        with pytest.raises(ConfigError, match=message):
            compare_schemes(params, (5.0,), config)


def test_compare_schemes_checks_its_config_first():
    # run_trials' rules come before the at-least-2-trials one, so a trial
    # count that is no integer is refused, not compared with 2
    params, _ = load_config(overrides=("power_threshold_w=1e-4",))
    for trials in ("3", 2.0, None):
        config = SimConfig(trials=trials, master_seed=4, window_radius=10.0)
        with pytest.raises(ConfigError, match="trials must be a positive integer"):
            compare_schemes(params, (5.0,), config)
    config = SimConfig(trials=3, master_seed=4, window_radius=True)
    with pytest.raises(ConfigError, match="window_radius"):
        compare_schemes(params, (5.0,), config)


def test_active_prob_grid_rows():
    params, _ = load_config(overrides=("power_threshold_w=1e-4",))
    config = SimConfig(trials=150, master_seed=6, window_radius=10.0)
    rows = active_prob_grid(params, (0.5, 1.0), 1e-4, config)
    assert [r[0] for r in rows] == [0.5, 1.0]
    for _, frac, ci in rows:
        assert 0.0 <= frac <= 1.0
        assert ci >= 0.0
    with pytest.raises(ValueError, match="threshold"):
        active_prob_grid(params, (1.0,), 0.0, config)


def test_active_prob_grid_rejects_threshold_before_simulating(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("ran Monte Carlo for a bad threshold")

    monkeypatch.setattr(benchcli.mcsim, "run_trials", no_trials)
    params, _ = load_config()
    config = SimConfig(trials=10, master_seed=6, window_radius=10.0)
    for bad in (0.0, -1e-4, math.inf, math.nan, True, "1e-4", None):
        with pytest.raises(ValueError, match="threshold"):
            active_prob_grid(params, (1.0,), bad, config)


# --- command line ---


def test_cli_analytic(capsys):
    assert main(["analytic", "--set", "power_threshold_w=1e-4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_power_w"] > doc["mean_power_omni_w"]
    assert 0.0 <= doc["active_prob"] <= 1.0
    assert doc["params"]["sectors"] == 4


def test_cli_simulate_stdout(capsys):
    code = main(
        ["simulate", "--trials", "50", "--seed", "3", "--set", "window_radius=8"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 50
    assert doc["master_seed"] == 3
    assert doc["mean_w"] > 0.0


def test_cli_simulate_out_dir(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(
        [
            "simulate", "--trials", "20", "--seed", "1",
            "--set", "window_radius=8", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "samples.csv").read_text().startswith("trial_index,power_w")
    doc = json.loads((out / "summary.json").read_text())
    assert doc["trials"] == 20


def test_cli_simulate_allocation_flag(capsys):
    code = main(
        [
            "simulate", "--trials", "30", "--seed", "2", "--allocation", "robust",
            "--set", "window_radius=8",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["allocation"] == "robust"


def test_cli_optimize_mean(capsys):
    assert main(["optimize-mean", "--set", "pb_power_w=10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "LowDensity"
    assert doc["rho_star_m"] == pytest.approx(1.3283482424554336, rel=1e-9)
    assert doc["derivative_residual"] <= 1e-8


def test_cli_optimize_active(capsys):
    assert main(["optimize-active", "--threshold", "1e-4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] in {"Case1", "Case2", "Case3Boundary"}
    assert doc["rho_star_m"] > 0


def test_cli_optimize_active_needs_threshold(capsys):
    # default config carries a threshold; zeroing it must be rejected
    assert main(["optimize-active", "--set", "power_threshold_w=0"]) == 2
    assert "threshold" in capsys.readouterr().err
    # --threshold 0 is a zero threshold, not an unset one
    for bad in ("0", "nan", "inf", "-1e-4"):
        assert main(["optimize-active", f"--threshold={bad}"]) == 2
        assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--set", "charging_radius_m=1e200"],  # rho^2 overflows
        ["analytic", "--set", "pb_power_w=1e300"],  # P^2 overflows
        ["optimize-active", "--set", "pb_power_w=1e300"],
        ["analytic", "--set", "pb_power_w=1e-300"],  # the variance underflows
        # the Monte Carlo engine's rho^2 (only radii whose square overflows:
        # a large finite one asks for billions of points per trial)
        ["simulate", "--trials", "5", "--set", "charging_radius_m=1e200"],
        # (wavelength / 4 pi)^2 overflows: an invalid scenario, derived or
        # checked against a given attenuation
        ["analytic", "--set", "wavelength_m=1e300"],
        ["analytic", "--set", "wavelength_m=1e300", "--set", "sigma_linear=1e-4"],
    ],
)
def test_cli_out_of_range_scenarios_exit_cleanly(argv):
    src = Path(benchcli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-m", "beamharvest.benchcli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    invalid = any(item.startswith("wavelength_m=") for item in argv)
    assert done.stderr.startswith(
        "invalid scenario: wavelength too large" if invalid
        else "outside the supported numeric range: "
    )
    assert done.stderr.count("\n") == 1 and done.stdout == ""


@pytest.mark.parametrize(
    "setting",
    ["window_radius=1e300", "charging_radius_m=1e150", "pb_density_per_m2=1e300", "window_radius=1e7"],
)
def test_cli_trials_too_large_to_draw_exit_cleanly(setting, capsys):
    # valid scenarios whose trials expect more beacons than NumPy can draw
    # or the pair join can key; main returning (not raising) is the
    # no-traceback guarantee
    assert main(["simulate", "--trials", "2", "--set", setting]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("outside the supported numeric range: a trial expects ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_figure_unknown_id(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_cli_figure_fig5(tmp_path, capsys):
    out = tmp_path / "f5"
    assert main(["figure", "fig5", "--out", str(out), "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["figure"] == "Fig5"
    assert (out / "manifest.json").exists()


def test_cli_figure_rejects_the_seeds_simulate_rejects(tmp_path, capsys):
    out = tmp_path / "f6"
    assert main(["figure", "fig6", "--out", str(out), "--seed", "-3"]) == 2
    assert "master_seed must be a 64-bit unsigned integer" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="master_seed"):
        run_figure(ExperimentSpec(FigureId.FIG6, output_dir=str(out), seed="abc"))
    assert not out.exists()


def test_cli_out_blocked_by_a_file_fails_before_any_trial(tmp_path, monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the output path was checked")

    monkeypatch.setattr(benchcli.mcsim, "run_trials", no_trials)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me\n")
    for out in (blocker, blocker / "sub"):
        for argv in (["figure", "fig3", "--trials", "5"], ["simulate", "--trials", "5"]):
            assert main(argv + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "blocked by a file" in err and len(err.splitlines()) == 1
        with pytest.raises(ConfigError, match="blocked by a file"):
            run_figure(ExperimentSpec(FigureId.FIG3, output_dir=str(out), trials=5))
    assert blocker.read_text() == "keep me\n"
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_cli_output_write_error_is_one_line(tmp_path, capsys):
    out = tmp_path / "runs"
    (out / "samples.csv").mkdir(parents=True)
    argv = ["simulate", "--trials", "5", "--set", "window_radius=8", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error:") and len(err.splitlines()) == 1


def _link_outputs(out: Path, names, keep: Path) -> dict:
    """Hard-link each output elsewhere; return the bytes the links hold."""
    keep.mkdir()
    for name in names:
        os.link(out / name, keep / name)
    return {name: (keep / name).read_bytes() for name in names}


def test_figure_rerun_writes_new_files(tmp_path):
    out = tmp_path / "f5"
    run_figure(ExperimentSpec(FigureId.FIG5, output_dir=str(out), seed=3))
    old = _link_outputs(out, ("fig5a_rho_star.csv", "manifest.json"), tmp_path / "keep")
    (tmp_path / "outside.csv").write_bytes(b"outside\n")
    (out / "fig5b_estar_pp2.0.csv").unlink()
    (out / "fig5b_estar_pp2.0.csv").symlink_to(tmp_path / "outside.csv")
    # a longer junk file at an output name must not leave a tail behind
    (out / "fig5b_estar_pp4.0.csv").write_bytes(b"junk," * 20_000)
    spec = ExperimentSpec(FigureId.FIG5, overrides=("sn_density_per_m2=0.4",), seed=4)
    fresh = tmp_path / "fresh"
    manifest = run_figure(dataclasses.replace(spec, output_dir=str(out)))
    run_figure(dataclasses.replace(spec, output_dir=str(fresh)))
    for name, body in old.items():
        assert (tmp_path / "keep" / name).read_bytes() == body
        assert (out / name).read_bytes() != body
    assert (tmp_path / "outside.csv").read_bytes() == b"outside\n"
    assert not (out / "fig5b_estar_pp2.0.csv").is_symlink()
    for name in [*manifest["files"], "manifest.json"]:
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_simulate_rerun_writes_new_files(tmp_path, capsys):
    out, fresh = tmp_path / "runs", tmp_path / "fresh"
    argv = ["simulate", "--trials", "5", "--set", "window_radius=8", "--out"]
    assert main(argv + [str(out), "--seed", "1"]) == 0
    old = _link_outputs(out, ("samples.csv", "summary.json"), tmp_path / "keep")
    # a longer junk file at an output name must not leave a tail behind
    (out / "samples.csv").unlink()
    (out / "samples.csv").write_bytes(b"junk," * 20_000)
    assert main(argv + [str(out), "--seed", "2"]) == 0
    assert main(argv + [str(fresh), "--seed", "2"]) == 0
    capsys.readouterr()
    for name, body in old.items():
        assert (tmp_path / "keep" / name).read_bytes() == body
        assert (out / name).read_bytes() == (fresh / name).read_bytes() != body


def test_cli_figure_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("pb_power_w = 99  # overrides the figure's 2.0\nsectors = 3\n")
    args = ["figure", "fig5", "--config", str(cfg), "--set", "sectors=5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params["pb_power_w"] == 99.0
    assert params["sectors"] == 5  # --set wins over the file
    # only scenario keys: a figure fixes its own trial budget
    cfg.write_text("trials = 10\n")
    assert main(["figure", "fig5", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown key 'trials'" in capsys.readouterr().err


def test_cli_flags_are_per_subcommand(capsys):
    # analytic and the optimizers run no Monte Carlo and write no files
    for cmd in ("analytic", "optimize-mean", "optimize-active"):
        for flag in ("--workers", "--seed", "--out", "--trials"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, flag, "2"])
            assert exc.value.code == 2
    capsys.readouterr()


def test_cli_missing_config_file(capsys):
    assert main(["analytic", "--config", "/nonexistent/place.cfg"]) == 2
    assert "missing file" in capsys.readouterr().err


def test_cli_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("nope = 1\n")
    assert main(["analytic", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_scenario_value(capsys):
    assert main(["analytic", "--set", "path_loss_exp=1.5"]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_cli_rejects_too_many_sectors(capsys):
    # main returning (not raising) is the no-traceback guarantee
    for argv in (["analytic"], ["simulate", "--trials", "5"]):
        assert main(argv + ["--set", "sectors=200"]) == 1
        err = capsys.readouterr().err
        assert "invalid scenario" in err and "sector" in err


def test_cli_rejects_nonpositive_workers(tmp_path, capsys):
    for workers in ("0", "-3"):
        out = tmp_path / workers
        argv = ["simulate", "--trials", "5", "--workers", workers, "--out", str(out)]
        assert main(argv) == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()


def test_figure_rejects_nonpositive_workers_before_any_work(tmp_path, monkeypatch, capsys):
    # Fig5 runs no Monte Carlo, so only run_figure's own check can refuse it;
    # Fig3 must refuse before its first Monte Carlo point
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the worker count was checked")

    monkeypatch.setattr(benchcli.mcsim, "run_trials", no_trials)
    for workers in (0, -2):
        out = tmp_path / f"w{workers}"
        with pytest.raises(ConfigError, match="workers"):
            run_figure(ExperimentSpec(FigureId.FIG5, output_dir=str(out)), workers=workers)
        for fig in ("fig5", "fig3"):
            assert main(["figure", fig, "--workers", str(workers), "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"config error: workers must be a positive integer, got {workers}"]
        assert not out.exists()


def test_cli_validate(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_cli_validate_seed_zero(monkeypatch, capsys):
    seen = []

    def fake_run_trials(params, config, workers=1):
        seen.append(config.master_seed)
        return types.SimpleNamespace(samples=np.zeros(1))

    monkeypatch.setattr(benchcli.mcsim, "run_trials", fake_run_trials)
    assert main(["validate", "--seed", "0"]) == 0
    assert seen == [0, 0]
    seen.clear()
    assert main(["validate"]) == 0
    assert seen == [7, 7]
