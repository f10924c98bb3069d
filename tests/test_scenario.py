"""Scenario parameter validation, the key=value config text and the key mapping."""

import contextlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamharvest import radopt, scenario
from beamharvest.benchcli import _read_config
from beamharvest.scenario import (
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
    ConfigError,
    ParameterError,
    ScenarioParams,
    params_from_mapping,
    params_to_mapping,
    sigma_from_wavelength,
    validate,
    validation_errors,
)


def make_params(**overrides):
    base = dict(
        pb_power=5.0,
        pb_density=0.1,
        sn_density=0.2,
        sectors=4,
        charging_radius=2.0,
        path_loss_exp=3.0,
        wavelength=0.1,
    )
    base.update(overrides)
    return ScenarioParams(**base)


def test_sigma_from_wavelength_value():
    # 0.1 m carrier: (0.1 / 4 pi)^2, about -41.98 dB
    sigma = sigma_from_wavelength(0.1)
    assert sigma == pytest.approx(6.332573977646111e-05, rel=1e-12)
    assert 20 * math.log10(0.1 / (4 * math.pi)) == pytest.approx(-41.98, abs=0.01)


def test_sigma_requires_positive():
    with pytest.raises(ParameterError):
        sigma_from_wavelength(0.0)
    with pytest.raises(ParameterError):
        sigma_from_wavelength(float("inf"))


def test_wavelength_whose_attenuation_overflows_is_invalid():
    message = "wavelength too large: attenuation overflows"
    with pytest.raises(ParameterError, match=message):
        sigma_from_wavelength(1e300)
    # derived on construction, or checked against a given attenuation
    with pytest.raises(ParameterError, match=message):
        make_params(wavelength=1e300)
    assert validation_errors(make_params(wavelength=1e300, attenuation=1e-4)) == [
        message
    ]
    big = 1e154  # its square is finite
    assert sigma_from_wavelength(big) == (big / (4.0 * math.pi)) ** 2


def test_wavelength_is_judged_by_its_field_rule():
    # sigma_from_wavelength and the constructor read the wavelength rule, so
    # a bool or text is no wavelength and derives no attenuation
    for wavelength, message in (
        (True, "wavelength must be a number"),
        ("0.1", "wavelength must be a number"),
        (None, "wavelength must be a number"),
        (math.inf, "wavelength must be finite"),
        (-0.1, "wavelength must be positive"),
    ):
        with pytest.raises(ParameterError, match=message):
            sigma_from_wavelength(wavelength)
        if wavelength is not None:
            p = make_params(wavelength=wavelength)
            assert p.attenuation is None
            assert message in validation_errors(p)


def test_attenuation_derived_from_wavelength():
    p = make_params()
    assert p.attenuation == pytest.approx(sigma_from_wavelength(0.1), rel=0)
    assert validation_errors(p) == []


def test_explicit_attenuation_kept():
    p = make_params(wavelength=None, attenuation=1.0e-4)
    assert p.attenuation == 1.0e-4
    assert validation_errors(p) == []


def test_inconsistent_sigma_and_wavelength():
    p = make_params(attenuation=7.0e-5)  # wavelength says 6.33e-5
    errs = validation_errors(p)
    assert any("inconsistent" in e for e in errs)
    with pytest.raises(ParameterError):
        validate(p)


def test_consistent_sigma_and_wavelength():
    p = make_params(attenuation=sigma_from_wavelength(0.1))
    assert validation_errors(p) == []


def test_mean_divergence_guard():
    # alpha <= 2 makes the far-field mean integral diverge
    assert "mean diverges" in validation_errors(make_params(path_loss_exp=2.0))
    assert "mean diverges" in validation_errors(make_params(path_loss_exp=1.5))
    assert validation_errors(make_params(path_loss_exp=2.0001)) == []


def test_sector_count_guard():
    assert any(
        "invalid sector count" in e
        for e in validation_errors(make_params(sectors=0))
    )
    assert any(
        "sector" in e for e in validation_errors(make_params(sectors=2.0))
    )
    assert validation_errors(make_params(sectors=1)) == []
    # the closed forms' cap is a scenario rule, so every entry point shares it
    assert validation_errors(make_params(sectors=64)) == []
    assert any(
        "invalid sector count" in e
        for e in validation_errors(make_params(sectors=65))
    )


def test_validation_collects_all_errors():
    p = make_params(pb_power=-1.0, sn_density=0.0, path_loss_exp=2.0)
    errs = validation_errors(p)
    assert len(errs) >= 3


def test_validate_passthrough():
    p = make_params()
    assert validate(p) is p


def test_missing_attenuation():
    p = make_params(wavelength=None, attenuation=None)
    assert any("attenuation" in e for e in validation_errors(p))


def test_with_rederives_attenuation():
    p = make_params()
    q = p.with_(wavelength=0.2)
    assert q.attenuation == pytest.approx(sigma_from_wavelength(0.2), rel=0)
    r = p.with_(charging_radius=7.5)
    assert r.charging_radius == 7.5
    assert r.attenuation == p.attenuation


def test_power_threshold_nonnegative():
    assert validation_errors(make_params(power_threshold=0.0)) == []
    assert any(
        "power_threshold" in e
        for e in validation_errors(make_params(power_threshold=-1e-6))
    )


# --- config text ---


def parse_config_text(text, tmp_path):
    """Scenario values read from text by the one key=value config parser."""
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    values: dict = {}
    _read_config(values, path=path)
    return values


def test_parse_minimal_config(tmp_path):
    values = parse_config_text("sn_density_per_m2 = 0.5\n", tmp_path)
    assert values == {"sn_density_per_m2": 0.5}
    params = params_from_mapping(values)
    assert params.sn_density == 0.5
    # everything else fell back to defaults
    assert params.pb_power == CONFIG_DEFAULTS["pb_power_w"]
    assert params.sectors == CONFIG_DEFAULTS["sectors"]


def test_parse_comments_and_blanks(tmp_path):
    text = "\n# comment\npb_power_w = 2.5  # trailing\n\nsectors=8\n"
    values = parse_config_text(text, tmp_path)
    assert values == {"pb_power_w": 2.5, "sectors": 8}


def test_parse_unknown_key_names_it(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        parse_config_text("bogus = 1\n", tmp_path)


def test_parse_error_carries_line_number(tmp_path):
    with pytest.raises(ConfigError, match=":3:"):
        parse_config_text("pb_power_w = 1\n\nnot a pair\n", tmp_path)


def test_parse_duplicate_key(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("sectors = 4\nsectors = 8\n", tmp_path)


def test_parse_bad_value(tmp_path):
    with pytest.raises(ConfigError, match="pb_power_w"):
        parse_config_text("pb_power_w = banana\n", tmp_path)


# --- config keys ---


def test_mapping_round_trip():
    p = params_from_mapping({"pb_power_w": 3.0, "sectors": 6})
    again = params_from_mapping(params_to_mapping(p))
    assert again == p


def test_sigma_only_config_suppresses_default_wavelength():
    p = params_from_mapping({"sigma_linear": 1.0e-4})
    assert p.attenuation == 1.0e-4
    assert p.wavelength is None


def test_sigma_and_wavelength_must_agree():
    with pytest.raises(ParameterError):
        params_from_mapping({"sigma_linear": 1.0e-4, "wavelength_m": 0.1})
    consistent = params_from_mapping(
        {"sigma_linear": sigma_from_wavelength(0.1), "wavelength_m": 0.1}
    )
    assert consistent.attenuation == pytest.approx(6.332573977646111e-05)


def test_every_config_key_sets_its_own_field():
    # distinct values, so two keys sharing or swapping fields would show
    values = {
        "pb_power_w": 7.5, "pb_density_per_m2": 0.15, "sn_density_per_m2": 0.35,
        "sectors": 7, "charging_radius_m": 2.5, "path_loss_exp": 3.5,
        "power_threshold_w": 2e-4, "wavelength_m": 0.2,
        "sigma_linear": sigma_from_wavelength(0.2),
    }
    assert set(values) == set(CONFIG_KEYS)
    p = params_from_mapping(values)
    fields = (p.pb_power, p.pb_density, p.sn_density, p.sectors, p.charging_radius,
              p.path_loss_exp, p.power_threshold, p.wavelength, p.attenuation)
    assert fields == tuple(values.values())
    assert type(p.sectors) is int
    assert params_to_mapping(p) == values


def test_mapping_values_meet_the_field_rules_uncast():
    # params_from_mapping casts nothing the rules would refuse: no rounding
    # of a fractional sector count, no bool as 1, no text as a number
    for values, message in (
        ({"sectors": 4.7}, "sectors must be an integer"),
        ({"sectors": 4.0}, "sectors must be an integer"),
        ({"sectors": True}, "sectors must be an integer"),
        ({"pb_power_w": True}, "pb_power must be a number"),
        ({"charging_radius_m": "2"}, "charging_radius must be a number"),
        ({"wavelength_m": "0.1"}, "wavelength must be a number"),
    ):
        with pytest.raises(ParameterError, match=message):
            params_from_mapping(values)
    # a Python int for a real-valued key widens to float
    p = params_from_mapping({"pb_power_w": 5, "charging_radius_m": 2, "sectors": 6})
    assert (p.pb_power, p.charging_radius, p.sectors) == (5.0, 2.0, 6)
    assert type(p.pb_power) is float and type(p.charging_radius) is float


def test_config_keys_spelled_with_units():
    for key in ("pb_power_w", "charging_radius_m", "sn_density_per_m2"):
        assert key in CONFIG_KEYS


@settings(max_examples=60, deadline=None)
@given(
    power=st.floats(min_value=1e-3, max_value=1e3),
    rho=st.floats(min_value=1e-3, max_value=50.0),
    alpha=st.floats(min_value=2.01, max_value=6.0),
    sectors=st.integers(min_value=1, max_value=64),
)
def test_valid_params_round_trip_mapping(power, rho, alpha, sectors):
    p = make_params(
        pb_power=power, charging_radius=rho, path_loss_exp=alpha, sectors=sectors
    )
    assert validation_errors(p) == []
    assert params_from_mapping(params_to_mapping(p)) == p


# --- one check per instance ---


def test_validation_runs_once_per_instance_during_an_optimization(monkeypatch):
    checked = []  # holds each instance, so no id is reused while counting
    uncached = scenario.validation_errors

    def counting(params):
        checked.append(params)
        return uncached(params)

    monkeypatch.setattr(scenario, "validation_errors", counting)
    validates = []
    for module in (scenario, radopt.analytic):
        def counting_validate(params, inner=module.validate):
            validates.append(params)
            return inner(params)

        monkeypatch.setattr(module, "validate", counting_validate)
    params = params_from_mapping({})  # validates it once
    before = len(validates)
    result = radopt.optimal_radius_active(params, 1e-4)
    # the counts the radius_design benchmark pins, caught here first
    assert (len(validates) - before, result.evaluations) == (1717, 561)
    # only the source is checked in full, and once: each with_ copy of a
    # valid instance gets its verdict from the rule of the one field it
    # changes, so no instance's verdict is computed twice
    assert [id(p) for p in checked] == [id(params)]
    assert len(validates) > len(checked)
    # every instance validated carries the verdict the full check gives it
    for p in validates:
        assert p.__dict__["_errors"] == tuple(uncached(p))


def test_invalid_instance_raises_on_every_validate():
    p = make_params(pb_power=-1.0)
    for _ in range(3):
        with pytest.raises(ParameterError, match="pb_power must be positive"):
            validate(p)


def test_copy_of_a_validated_instance_is_checked_afresh():
    p = validate(make_params())
    bad = p.with_(charging_radius=-1.0)
    with pytest.raises(ParameterError, match="charging_radius must be positive"):
        validate(bad)
    assert validate(p) is p
    assert validate(bad.with_(charging_radius=2.0)) == p


def test_validated_instance_survives_pickle():
    p = validate(make_params())
    again = pickle.loads(pickle.dumps(p))
    assert again == p and hash(again) == hash(p)
    assert validate(again) is again


def test_with_rejects_unknown_field():
    with pytest.raises(TypeError, match="bogus"):
        validate(make_params()).with_(bogus=1)
    # the kept check outcome is not a field either: a copy cannot be handed one
    with pytest.raises(TypeError, match="_errors"):
        validate(make_params()).with_(_errors=())


# --- with_ copies are constructor-built instances ---

_NUMBER = st.one_of(
    st.floats(),
    st.integers(min_value=-3, max_value=70),
    st.booleans(),
    st.just("x"),
)
_FIELD_VALUES = {
    "pb_power": _NUMBER,
    "pb_density": _NUMBER,
    "sn_density": _NUMBER,
    "sectors": _NUMBER,
    "charging_radius": _NUMBER,
    "path_loss_exp": _NUMBER,
    "attenuation": st.one_of(st.none(), _NUMBER),
    "wavelength": st.one_of(st.none(), st.floats()),
    "power_threshold": _NUMBER,
}
# copy sources: unchecked or checked, with and without a wavelength, invalid,
# and a copy that got its verdict from its checked source
_SOURCES = {
    "wavelength": make_params,
    "attenuation alone": lambda: make_params(wavelength=None, attenuation=1e-4),
    "invalid": lambda: make_params(pb_power=-1.0),
    "copy": lambda: validate(make_params()).with_(charging_radius=0.5),
}


def _outcome(build):
    """What building and then validating an instance gives: the instance's
    fields, repr and check messages, or the exception raised."""
    try:
        p = build()
    except Exception as exc:  # the constructor's own errors count too
        return "build", type(exc), str(exc)
    fields = tuple(getattr(p, name) for name in _FIELD_VALUES)
    try:
        validate(p)
        errors = []
    except ParameterError as exc:
        errors = exc.errors
    return p, fields, repr(p), errors


@settings(max_examples=400, deadline=None)
@given(
    changes=st.fixed_dictionaries({}, optional=_FIELD_VALUES),
    source=st.sampled_from(sorted(_SOURCES)),
    checked_first=st.booleans(),
)
def test_with_copy_matches_the_constructor(changes, source, checked_first):
    base = _SOURCES[source]()
    if checked_first:
        with contextlib.suppress(ParameterError):
            validate(base)
    fields = {name: getattr(base, name) for name in _FIELD_VALUES}
    direct = dict(fields, **changes)
    if "wavelength" in changes and "attenuation" not in changes:
        direct["attenuation"] = None  # with_ re-derives it, as documented
    got = _outcome(lambda: base.with_(**changes))
    want = _outcome(lambda: ScenarioParams(**direct))
    if got[0] == "build":
        assert got == want
        return
    assert type(got[0]) is ScenarioParams
    assert got[2:] == want[2:]  # the fields' reprs and the check messages
    if all(value == value for value in want[1]):  # NaN equals nothing
        assert got[:2] == want[:2] and hash(got[0]) == hash(want[0])


#: A valid and an invalid value of each field a with_ copy of a checked
#: instance is judged on alone (scenario._SELF_CHECKED)
_SELF_CHECKED_VALUES = {
    "pb_power": (2.0, -1.0),
    "pb_density": (np.float64(0.3), math.inf),
    "sn_density": (1, 0),
    "sectors": (8, 65),
    "charging_radius": (0.5, "x"),
    "path_loss_exp": (3.5, 2.0),
    "power_threshold": (np.int64(0), -1.0),
}


def _checked_outcome(p):
    """The instance's state once validate() has run, and what it raised."""
    try:
        validate(p)
        raised = None
    except ParameterError as exc:
        raised = exc.errors
    return p.__dict__, raised


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
@pytest.mark.parametrize("name", sorted(scenario._SELF_CHECKED))
def test_one_field_copy_matches_a_several_field_copy_and_a_full_check(name, valid):
    base = validate(make_params(power_threshold=1e-4))
    value = _SELF_CHECKED_VALUES[name][0 if valid else 1]
    other = "sn_density" if name == "pb_power" else "pb_power"
    one = base.with_(**{name: value})
    verdict = one.__dict__["_errors"]  # given by with_, before any validate()
    several = base.with_(**{name: value, other: getattr(base, other)})
    fresh = ScenarioParams(**{field: getattr(one, field) for field in _FIELD_VALUES})
    assert verdict == tuple(validation_errors(fresh))
    assert (verdict == ()) is valid
    assert _checked_outcome(one) == _checked_outcome(several) == _checked_outcome(fresh)


def test_wavelength_change_rederives_attenuation():
    p = validate(make_params())
    q = p.with_(wavelength=0.25)
    assert q.attenuation == sigma_from_wavelength(0.25)
    assert validate(q) is q


def test_attenuation_only_change_keeps_wavelength_and_is_checked():
    p = validate(make_params())
    q = p.with_(attenuation=2.0 * p.attenuation)
    assert q.wavelength == p.wavelength == 0.1
    with pytest.raises(ParameterError, match="inconsistent with wavelength"):
        validate(q)
    agreeing = p.with_(attenuation=p.attenuation * (1.0 + 1e-12))
    assert validate(agreeing) is agreeing


def test_copy_of_a_validated_instance_survives_pickle_with_its_verdict():
    p = validate(make_params())
    q = p.with_(charging_radius=0.5)
    again = pickle.loads(pickle.dumps(q))
    assert again == q and hash(again) == hash(q) and repr(again) == repr(q)
    assert validate(again) is again
    bad = pickle.loads(pickle.dumps(p.with_(sn_density=-1.0)))
    with pytest.raises(ParameterError, match="sn_density must be positive"):
        validate(bad)
    assert bad.__dict__["_errors"] == tuple(validation_errors(bad))


def test_validation_messages_keep_their_order():
    p = make_params(
        pb_power="x",
        pb_density=math.inf,
        sn_density=0,
        charging_radius=True,
        sectors=65,
        path_loss_exp=math.nan,
        power_threshold=-1.0,
        attenuation=-1.0,
        wavelength=0.0,
    )
    assert validation_errors(p) == [
        "pb_power must be a number",
        "pb_density must be finite",
        "sn_density must be positive",
        "charging_radius must be a number",
        "invalid sector count: need 1 <= sectors <= 64",
        "path_loss_exp must be finite",
        "power_threshold must be nonnegative and finite",
        "attenuation must be positive",
        "wavelength must be positive",
    ]
    # ints pass where floats do, bools never do
    assert validation_errors(make_params(pb_power=5, charging_radius=2)) == []
    assert validation_errors(make_params(sectors=True)) == [
        "invalid sector count: sectors must be an integer"
    ]
    assert validation_errors(make_params(path_loss_exp=True)) == [
        "path_loss_exp must be a number"
    ]
