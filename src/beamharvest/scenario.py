"""Physical scenario parameters shared by every other module.

A scenario is one deployment: beacon transmit power and density, sensor
density, the sectored-antenna count, the charging radius, and the path-loss
law. All units are SI (watts, meters); decibels only ever appear in display
code. Instances are immutable and safe to share across threads once
validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._args import is_count, real

__all__ = [
    "MAX_SECTORS",
    "ScenarioParams",
    "ParameterError",
    "ConfigError",
    "sigma_from_wavelength",
    "validation_errors",
    "validate",
    "CONFIG_KEYS",
    "CONFIG_DEFAULTS",
    "params_from_mapping",
    "params_to_mapping",
]

#: Sector counts above this are rejected: the closed forms' binomial sums
#: would need more than double precision to keep the identity tolerances.
MAX_SECTORS = 64

# Relative tolerance for agreement between a directly-given attenuation and
# one derived from the wavelength.
_SIGMA_AGREEMENT_RTOL = 1.0e-9


class ParameterError(ValueError):
    """Raised by validate(); carries the list of violated invariants."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(errors))


class ConfigError(ValueError):
    """Malformed or inconsistent config file content."""


def sigma_from_wavelength(wavelength: float) -> float:
    """Linear free-space attenuation at the 1 m reference: (wavelength/4pi)^2.

    The dB value is 20*log10(wavelength/4pi); e.g. 0.1 m gives -41.98 dB.
    A wavelength the wavelength field's rule refuses raises its message.
    """
    message = _finite_positive(wavelength, "wavelength")
    if message:
        raise ParameterError([message])
    try:
        return (real(wavelength) / (4.0 * math.pi)) ** 2
    except OverflowError:
        raise ParameterError(["wavelength too large: attenuation overflows"]) from None


@dataclass(frozen=True)
class ScenarioParams:
    """All physical and network constants of one deployment scenario.

    attenuation may be given directly or derived from wavelength; when both
    are present they must agree to 1e-9 relative. power_threshold is the
    sensor's activation threshold used by the CCDF objective. A field given
    a real other than an int or a float holds it as a Python float.
    """

    pb_power: float
    pb_density: float
    sn_density: float
    sectors: int
    charging_radius: float
    path_loss_exp: float
    attenuation: float | None = None
    wavelength: float | None = None
    power_threshold: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            self.__dict__[name] = _held(value)
        # a wavelength its rule refuses derives nothing; validate reports it
        if self.attenuation is None and not _finite_positive(self.wavelength, "wavelength"):
            object.__setattr__(self, "attenuation", sigma_from_wavelength(self.wavelength))

    def with_(self, **changes) -> "ScenarioParams":
        """Copy with fields replaced (attenuation re-derived if wavelength moves).

        An unknown field name raises TypeError. A copy of an instance that
        validate() has passed, changing one field other than attenuation and
        wavelength, gets its verdict here from that field's rule alone: every
        other check gives what it gave the source. Any other copy is checked
        in full on its first validate().
        """
        state = self.__dict__
        if len(changes) == 1 and state.get("_errors") == ():
            # the optimizers' copy, one per objective evaluation
            ((name, value),) = changes.items()
            rule = _SELF_CHECKED.get(name)
            if rule is not None:
                if type(value) is not float:
                    value = _held(value)
                values = state.copy()
                values[name] = value
                message = rule(value, name)
                values["_errors"] = (message,) if message else ()
                copy = object.__new__(ScenarioParams)
                object.__setattr__(copy, "__dict__", values)
                return copy
        if "wavelength" in changes and "attenuation" not in changes:
            changes["attenuation"] = None
        values = state.copy()  # the fields, and _errors once checked
        values.pop("_errors", None)  # the copy is checked in full
        values.update(changes)
        if len(values) != _N_FIELDS:
            unknown = sorted(set(changes) - set(_FIELDS))
            raise TypeError(f"ScenarioParams has no field {', '.join(unknown)}")
        # the fields dataclass __init__ would set, without its nine
        # object.__setattr__ calls; __post_init__ runs as it would there
        copy = object.__new__(ScenarioParams)
        copy.__dict__.update(values)
        copy.__post_init__()
        return copy


_FIELDS = tuple(ScenarioParams.__dataclass_fields__)
_N_FIELDS = len(_FIELDS)


def _held(value):
    # a real other than an int or a float is held as a float, which outputs serialize
    x = real(value)
    return value if x is None or type(value) is int else x


def _finite_positive(value, name: str) -> str | None:
    if type(value) is float and 0.0 < value < math.inf:
        return None  # the common case, settled by one comparison chain
    x = real(value)
    if x is None:
        return f"{name} must be a number"
    if not -math.inf < x < math.inf:
        return f"{name} must be finite"
    return None if x > 0 else f"{name} must be positive"


def _sector_count(sectors, name: str) -> str | None:
    if not is_count(sectors):
        return "invalid sector count: sectors must be an integer"
    if not 1 <= sectors <= MAX_SECTORS:
        return f"invalid sector count: need 1 <= sectors <= {MAX_SECTORS}"
    return None


def _path_loss_exp(alpha, name: str) -> str | None:
    x = real(alpha)
    if x is None:
        return "path_loss_exp must be a number"
    if not -math.inf < x < math.inf:
        return "path_loss_exp must be finite"
    return None if x > 2 else "mean diverges"  # closed forms divide by alpha - 2


def _power_threshold(threshold, name: str) -> str | None:
    x = real(threshold)
    if x is None:
        return "power_threshold must be a number"
    return None if 0 <= x < math.inf else "power_threshold must be nonnegative and finite"


def _attenuation(attenuation, name: str) -> str | None:
    if attenuation is None:
        return "attenuation unspecified (give attenuation or wavelength)"
    return _finite_positive(attenuation, name)


def _wavelength(wavelength, name: str) -> str | None:
    return None if wavelength is None else _finite_positive(wavelength, name)


#: Each field's rule, in the order validation_errors reports them: it gives
#: the field's message, or None, from the field's value alone. Once every
#: field passes, the agreement of attenuation and wavelength is checked.
_RULES = {
    "pb_power": _finite_positive,
    "pb_density": _finite_positive,
    "sn_density": _finite_positive,
    "charging_radius": _finite_positive,
    "sectors": _sector_count,
    "path_loss_exp": _path_loss_exp,
    "power_threshold": _power_threshold,
    "attenuation": _attenuation,
    "wavelength": _wavelength,
}
#: The fields a copy of a valid instance is judged on alone (with_), with
#: their rules: every field but the two whose agreement is checked.
_SELF_CHECKED = {
    name: rule for name, rule in _RULES.items() if name not in ("attenuation", "wavelength")
}


def validation_errors(params: ScenarioParams) -> list[str]:
    """Names of every violated invariant; empty list when valid.

    Not cached: validate() keeps this result once per instance, and
    ScenarioParams.with_ runs the changed field's rule of it for a copy.
    """
    errors: list[str] = []
    for name, rule in _RULES.items():
        message = rule(getattr(params, name), name)
        if message:
            errors.append(message)
    if not errors and params.wavelength is not None:
        attenuation = params.attenuation
        try:
            derived = sigma_from_wavelength(params.wavelength)
        except ParameterError as exc:
            return exc.errors
        if abs(attenuation - derived) > _SIGMA_AGREEMENT_RTOL * derived:
            errors.append(
                "attenuation inconsistent with wavelength "
                f"(given {attenuation!r}, derived {derived!r})"
            )
    return errors


def validate(params: ScenarioParams) -> ScenarioParams:
    """Return params unchanged if every invariant holds, else ParameterError.

    Idempotent: a valid instance passes through untouched. The check runs
    at most once per instance and its outcome is kept in the instance's
    __dict__ (validity is a pure function of the frozen fields); later
    calls on it cost one dict lookup. A with_ copy of a valid instance may
    already hold the outcome, from the rules of the fields it changed.
    """
    state = params.__dict__
    errors = state.get("_errors")
    if errors is None:
        errors = state["_errors"] = tuple(validation_errors(params))
    if errors:
        raise ParameterError(errors)
    return params


# ---------------------------------------------------------------------------
# Scenario config keys (benchcli reads the key=value text that carries them)
# ---------------------------------------------------------------------------

#: Each recognized scenario config key and the ScenarioParams field it
#: sets. Anything else is an error.
_KEY_FIELDS = {
    "pb_power_w": "pb_power",
    "pb_density_per_m2": "pb_density",
    "sn_density_per_m2": "sn_density",
    "sectors": "sectors",
    "charging_radius_m": "charging_radius",
    "path_loss_exp": "path_loss_exp",
    "power_threshold_w": "power_threshold",
    "sigma_linear": "attenuation",
    "wavelength_m": "wavelength",
}
CONFIG_KEYS = tuple(_KEY_FIELDS)

#: Baseline scenario used when a config omits keys: 5 W beacons at 0.1 /m^2,
#: sensors at 0.2 /m^2, four sectors, 2 m charging radius, alpha = 3,
#: 0.1 m wavelength, 0.1 mW activation threshold.
CONFIG_DEFAULTS: dict[str, float | int] = {
    "pb_power_w": 5.0,
    "pb_density_per_m2": 0.1,
    "sn_density_per_m2": 0.2,
    "sectors": 4,
    "charging_radius_m": 2.0,
    "path_loss_exp": 3.0,
    "wavelength_m": 0.1,
    "power_threshold_w": 1.0e-4,
}


def params_from_mapping(values: dict[str, float | int]) -> ScenarioParams:
    """Build validated ScenarioParams from config-key values plus defaults.

    sigma_linear, when present, takes the attenuation slot; wavelength_m may
    accompany it only if consistent (validate enforces the 1e-9 agreement).
    A config giving sigma_linear alone suppresses the default wavelength.
    Values go to the field rules as given, a Python int for a real-valued
    key widened to float, so a value its rule refuses raises ParameterError.
    """
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    merged = dict(CONFIG_DEFAULTS)
    if "sigma_linear" in values and "wavelength_m" not in values:
        merged.pop("wavelength_m", None)
    merged.update(values)
    params = ScenarioParams(**{
        _KEY_FIELDS[key]: real(value) if type(value) is int and key != "sectors" else value
        for key, value in merged.items()
    })
    return validate(params)


def params_to_mapping(params: ScenarioParams) -> dict[str, float | int]:
    """Config-key view of a scenario (for manifests and config echo)."""
    return {
        key: getattr(params, field)
        for key, field in _KEY_FIELDS.items()
        if field != "wavelength" or params.wavelength is not None
    }
