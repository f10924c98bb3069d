"""One table over every public numeric boundary (README, "Argument rules").

A real argument is any numbers.Real but a bool, judged as a double: NumPy's
reals pass, bools, strings, None and complex numbers are no numbers, and an
int beyond the double range reads as infinite. A count is a Python int, not
a bool. Each boundary keeps its own bounds, exception type and messages; the
tables give, for every value, whether the boundary accepts it, and if not the
error type and the message it must raise.
"""

import json
import math

import numpy as np
import pytest

from beamharvest import analytic, benchcli, mcsim, radopt, scenario, specfun
from beamharvest.benchcli import ExperimentSpec, FigureId
from beamharvest.mcsim import SimConfig
from beamharvest.radopt import BracketError
from beamharvest.scenario import ConfigError, ParameterError, ScenarioParams

P = scenario.params_from_mapping({"charging_radius_m": 0.5})
CFG = SimConfig(trials=2, master_seed=3)

GOOD = {"1": 1, "2.5": 2.5, "np.int64(3)": np.int64(3), "np.float64(2.5)": np.float64(2.5)}
NOT_REAL = {"True": True, "np.True_": np.True_, "'1'": "1", "None": None, "1j": 1j}
NOT_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400}
BELOW = {"-1": -1}


def _scenario(**fields):
    base = dict(pb_power=5.0, pb_density=0.1, sn_density=0.2, sectors=4,
                charging_radius=2.0, path_loss_exp=3.0, wavelength=0.1)
    return scenario.validate(ScenarioParams(**{**base, **fields}))


def _field(name):
    return (f"{name} must be a number", f"{name} must be finite", f"{name} must be positive")


_LAPLACE = ("laplace argument must be a finite number",) * 2 + ("laplace argument must be nonnegative",)
_THRESHOLD = ("threshold must be a finite number",) * 2 + ("threshold must be nonnegative",)
_UNSPECIFIED = "attenuation unspecified"
_REACH = ("threshold must be finite and positive",) * 3
_SHAPE = ("arguments must be real numbers", "arguments must be finite", "shape must be positive")
_LIMIT = _SHAPE[:2] + ("integration limit must be nonnegative",)


def _root(v):
    return radopt.find_root_bisect(lambda r: r - 0.5, (0, v), 1e-9)


#: Each real boundary: its call, its error type, the messages it gives a
#: value that is no real number, one that is not finite and one below its
#: bound, and the values whose verdict differs from that default (None:
#: accepted), with any extra values in the same form.
REAL_BOUNDARIES = [
    ("ScenarioParams pb_power", lambda v: _scenario(pb_power=v), ParameterError,
     _field("pb_power"), {}),
    # a scenario without a wavelength (None) needs an attenuation
    ("ScenarioParams wavelength", lambda v: _scenario(wavelength=v), ParameterError,
     _field("wavelength"), {"None": _UNSPECIFIED}),
    ("with_ charging_radius", lambda v: scenario.validate(P.with_(charging_radius=v)),
     ParameterError, _field("charging_radius"), {}),
    ("with_ pb_power", lambda v: scenario.validate(P.with_(pb_power=v)), ParameterError,
     _field("pb_power"), {}),
    ("with_ path_loss_exp", lambda v: scenario.validate(P.with_(path_loss_exp=v)),
     ParameterError, _field("path_loss_exp")[:2] + ("mean diverges",), {"1": "mean diverges"}),
    ("with_ power_threshold", lambda v: scenario.validate(P.with_(power_threshold=v)),
     ParameterError,
     ("power_threshold must be a number",) + ("power_threshold must be nonnegative and finite",) * 2,
     {"np.int64(0)": (np.int64(0), None)}),
    ("with_ attenuation", lambda v: scenario.validate(P.with_(attenuation=v, wavelength=None)),
     ParameterError, _field("attenuation"), {"None": _UNSPECIFIED}),
    ("params_from_mapping pb_power_w", lambda v: scenario.params_from_mapping({"pb_power_w": v}),
     ParameterError, _field("pb_power"), {}),
    ("params_from_mapping wavelength_m",
     lambda v: scenario.params_from_mapping({"wavelength_m": v}), ParameterError,
     _field("wavelength"), {"None": _UNSPECIFIED}),
    ("sigma_from_wavelength", scenario.sigma_from_wavelength, ParameterError,
     _field("wavelength"), {}),
    ("gamma_ccdf threshold", lambda v: analytic.gamma_ccdf(v, P), ValueError, _THRESHOLD,
     {"np.int64(0)": (np.int64(0), None)}),
    ("gamma_ccdf_omni threshold", lambda v: analytic.gamma_ccdf_omni(v, P), ValueError,
     _THRESHOLD, {}),
    ("laplace_total s", lambda v: analytic.laplace_total(v, P), ValueError, _LAPLACE, {}),
    ("log_laplace_total s", lambda v: analytic.log_laplace_total(v, P), ValueError, _LAPLACE, {}),
    ("laplace_near s", lambda v: analytic.laplace_near(v, 1, P), ValueError, _LAPLACE, {}),
    ("laplace_far s", lambda v: analytic.laplace_far(v, 0, P), ValueError, _LAPLACE, {}),
    ("laplace_omni s", lambda v: analytic.laplace_omni(v, P), ValueError, _LAPLACE, {}),
    ("optimal_radius_active threshold", lambda v: radopt.optimal_radius_active(P, v),
     ValueError, _REACH, {}),
    ("active_prob_grid threshold", lambda v: benchcli.active_prob_grid(P, [0.5], v, CFG),
     ValueError, _REACH, {}),
    ("active_prob_grid rho", lambda v: benchcli.active_prob_grid(P, [v], 1e-4, CFG),
     ParameterError, _field("charging_radius"), {}),
    ("compare_schemes sweep", lambda v: benchcli.compare_schemes(P, [v], CFG), ParameterError,
     _field("pb_power"), {}),
    ("find_root_bisect tol", lambda v: radopt.find_root_bisect(math.cos, (0, 3), v), ValueError,
     ("tol must be positive and finite",) * 3, {}),
    ("find_root_bisect bracket", _root, BracketError,
     ("empty bracket", "bracket ends must be finite", "empty bracket"), {}),
    # a threshold has no lower bound: every sample is at or above -1
    ("empirical_ccdf threshold", lambda v: mcsim.empirical_ccdf([1.0, 2.0], [v]), ValueError,
     ("empirical_ccdf threshold must be a finite number",) * 2 + (None,), {}),
    ("run_trials window_radius", lambda v: mcsim.run_trials(P, SimConfig(1, 1, window_radius=v)),
     ConfigError, ("window_radius must be positive and finite",) * 3, {}),
    ("regularized_gamma_q k", lambda v: specfun.regularized_gamma_q(v, 0.5),
     specfun.DomainError, _SHAPE, {}),
    ("regularized_gamma_q x", lambda v: specfun.regularized_gamma_q(0.5, v),
     specfun.DomainError, _LIMIT, {}),
    ("lower_incomplete_gamma s", lambda v: specfun.lower_incomplete_gamma(v, 0.5),
     specfun.DomainError, _SHAPE, {}),
    ("lower_incomplete_gamma x", lambda v: specfun.lower_incomplete_gamma(2.0, v),
     specfun.DomainError, _LIMIT, {}),
]


def _real_cases(messages, overrides):
    not_real, not_finite, below = messages
    cases = {label: (v, None) for label, v in GOOD.items()}
    cases |= {label: (v, not_real) for label, v in NOT_REAL.items()}
    cases |= {label: (v, not_finite) for label, v in NOT_FINITE.items()}
    cases |= {label: (v, below) for label, v in BELOW.items()}
    for label, verdict in overrides.items():
        cases[label] = verdict if isinstance(verdict, tuple) else (cases[label][0], verdict)
    return cases


def _mismatches(call, error, cases):
    """Each case whose outcome is not its verdict: accepted (None), or an
    error of the boundary's type whose message contains the verdict."""
    wrong = []
    for label, (value, message) in cases.items():
        try:
            call(value)
        except Exception as exc:  # any error is read; the verdict says which is right
            if message is None or not isinstance(exc, error) or message not in str(exc):
                wrong.append(f"{label}: {type(exc).__name__}: {str(exc)[:120]}")
            continue
        if message is not None:
            wrong.append(f"{label}: accepted, want {error.__name__} {message!r}")
    return wrong


@pytest.mark.parametrize(
    "call, error, messages, overrides",
    [row[1:] for row in REAL_BOUNDARIES],
    ids=[row[0] for row in REAL_BOUNDARIES],
)
def test_real_boundary_verdicts(call, error, messages, overrides):
    assert _mismatches(call, error, _real_cases(messages, overrides)) == []


def test_empirical_ccdf_refuses_non_finite_samples():
    # samples are read as float64 (None reads as nan), then must be finite;
    # a NaN would otherwise sort last and count as reaching every threshold
    for value in (math.nan, math.inf, -math.inf, None):
        with pytest.raises(ValueError, match="^empirical_ccdf samples must be finite$"):
            mcsim.empirical_ccdf([value, 1.0], [0.5, 2.0])


NOT_COUNT = {**{k: v for k, v in GOOD.items() if k != "1"}, **NOT_REAL,
             **{k: v for k, v in NOT_FINITE.items() if k != "10**400"}}


def _run_figure_trials(v):
    spec = ExperimentSpec(FigureId.FIG2, output_dir="fig2", seed=1, trials=v)
    return benchcli.run_figure(spec)


#: Each count boundary: its call, error type, the message for a value that
#: is no count, the message for a count outside its bounds, and whether
#: 10**400 is tried (a count the rule accepts, refused by the bound where
#: one holds it).
COUNT_BOUNDARIES = [
    ("run_trials trials", lambda v: mcsim.run_trials(P, SimConfig(v, 1)), ConfigError,
     "trials must be a positive integer", "trials must be a positive integer", True),
    ("run_trials master_seed", lambda v: mcsim.run_trials(P, SimConfig(1, v)), ConfigError,
     "master_seed must be a 64-bit unsigned integer", "64-bit unsigned integer", True),
    ("run_trials workers", lambda v: mcsim.run_trials(P, SimConfig(1, 1), workers=v),
     ConfigError, "workers must be a positive integer", "workers must be a positive integer",
     False),
    ("run_figure trials", _run_figure_trials, ConfigError,
     "trials must be a nonnegative integer", "trials must be a nonnegative integer", True),
    ("laplace_near M", lambda v: analytic.laplace_near(0.1, v, P), ValueError,
     "active_sectors must be an integer", "need 1 <= M <= 4", True),
    ("reception_prob_far M", lambda v: analytic.reception_prob_far(v, P), ValueError,
     "active_sectors must be an integer", "need 0 <= M <= 4", True),
    ("gain M", lambda v: analytic.gain(v, 4), ValueError,
     "active_sectors must be an integer", "need 0 <= M <= 4", True),
    ("with_ sectors", lambda v: scenario.validate(P.with_(sectors=v)), ParameterError,
     "sectors must be an integer", "need 1 <= sectors <= 64", True),
]


@pytest.mark.parametrize(
    "call, error, not_count, outside, huge",
    [row[1:] for row in COUNT_BOUNDARIES],
    ids=[row[0] for row in COUNT_BOUNDARIES],
)
def test_count_boundary_verdicts(call, error, not_count, outside, huge, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # run_figure writes into the working directory
    cases = {"1": (1, None), "-1": (-1, outside)}
    cases |= {label: (v, not_count) for label, v in NOT_COUNT.items()}
    if huge:
        cases["10**400"] = (10**400, outside)
    assert _mismatches(call, error, cases) == []


def test_trial_counts_stop_at_the_longest_sample_array_numpy_describes(tmp_path):
    # one past the bound is refused by NumPy before any allocation is tried
    with pytest.raises(ValueError, match="array is too big"):
        np.empty(mcsim._TRIALS_MAX + 1)
    for trials in (mcsim._TRIALS_MAX + 1, 2**62):
        with pytest.raises(ConfigError, match=f"of at most {mcsim._TRIALS_MAX}"):
            mcsim.run_trials(P, SimConfig(trials, 1))
        with pytest.raises(ConfigError, match=f"of at most {mcsim._TRIALS_MAX}"):
            benchcli.run_figure(ExperimentSpec(FigureId.FIG2, output_dir=tmp_path, trials=trials))


def test_numpy_reals_are_held_as_floats_and_round_trip_to_json():
    """A scenario and window given NumPy reals run and serialize exactly as
    the same values given as Python floats; ints and floats are held as
    given, and a NumPy integer is no sector count."""
    given = ScenarioParams(
        pb_power=np.float64(5.0), pb_density=np.float64(0.1), sn_density=np.int64(1),
        sectors=4, charging_radius=np.float64(0.5), path_loss_exp=np.int64(3),
        wavelength=np.float64(0.1), power_threshold=np.int64(0),
    )
    plain = ScenarioParams(5.0, 0.1, 1.0, 4, 0.5, 3.0, wavelength=0.1, power_threshold=0.0)
    assert given == plain
    assert all(type(getattr(given, f)) is float for f in ("pb_power", "sn_density", "attenuation"))
    assert type(P.with_(pb_power=5).pb_power) is int
    assert type(P.with_(pb_power=np.int64(5)).pb_power) is float
    with pytest.raises(ParameterError, match="sectors must be an integer"):
        scenario.validate(P.with_(sectors=np.int64(4)))
    texts = []
    for params, window in ((given, np.int64(6)), (plain, 6.0)):
        config = SimConfig(trials=40, master_seed=5, window_radius=window)
        summary = mcsim.run_trials(params, config)
        texts.append(mcsim.summary_to_json(summary, params, config))
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["params"]["power_threshold_w"] == 0.0
