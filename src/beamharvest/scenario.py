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
    """
    if not (isinstance(wavelength, (int, float)) and math.isfinite(wavelength)):
        raise ParameterError(["wavelength must be a finite number"])
    if wavelength <= 0:
        raise ParameterError(["wavelength must be positive"])
    try:
        return (wavelength / (4.0 * math.pi)) ** 2
    except OverflowError:
        raise ParameterError(["wavelength too large: attenuation overflows"]) from None


@dataclass(frozen=True)
class ScenarioParams:
    """All physical and network constants of one deployment scenario.

    attenuation may be given directly or derived from wavelength; when both
    are present they must agree to 1e-9 relative. power_threshold is the
    sensor's activation threshold used by the CCDF objective.
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
        if self.attenuation is None and (
            isinstance(self.wavelength, (int, float)) and self.wavelength > 0
        ):
            object.__setattr__(self, "attenuation", sigma_from_wavelength(self.wavelength))

    def with_(self, **changes) -> "ScenarioParams":
        """Copy with fields replaced (attenuation re-derived if wavelength moves).

        The copy is a new instance, so validate() checks it afresh; an
        unknown field name raises TypeError.
        """
        if "wavelength" in changes and "attenuation" not in changes:
            changes["attenuation"] = None
        values = self.__dict__.copy()  # the fields, and _errors once checked
        values.pop("_errors", None)  # the copy is checked afresh
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


def _finite_positive(value, name: str, errors: list[str]) -> None:
    if type(value) is float and 0.0 < value < math.inf:
        return  # the common case, settled by one comparison chain
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        errors.append(f"{name} must be a number")
    elif not math.isfinite(value):
        errors.append(f"{name} must be finite")
    elif value <= 0:
        errors.append(f"{name} must be positive")


def validation_errors(params: ScenarioParams) -> list[str]:
    """Names of every violated invariant; empty list when valid.

    Not cached: validate() keeps this result once per instance.
    """
    errors: list[str] = []
    _finite_positive(params.pb_power, "pb_power", errors)
    _finite_positive(params.pb_density, "pb_density", errors)
    _finite_positive(params.sn_density, "sn_density", errors)
    _finite_positive(params.charging_radius, "charging_radius", errors)

    sectors = params.sectors
    if not isinstance(sectors, int) or isinstance(sectors, bool):
        errors.append("invalid sector count: sectors must be an integer")
    elif not 1 <= sectors <= MAX_SECTORS:
        errors.append(f"invalid sector count: need 1 <= sectors <= {MAX_SECTORS}")

    alpha = params.path_loss_exp
    if not isinstance(alpha, (int, float)):
        errors.append("path_loss_exp must be a number")
    elif not math.isfinite(alpha):
        errors.append("path_loss_exp must be finite")
    elif alpha <= 2:
        errors.append("mean diverges")  # closed forms divide by alpha - 2

    threshold = params.power_threshold
    if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
        errors.append("power_threshold must be a number")
    elif not math.isfinite(threshold) or threshold < 0:
        errors.append("power_threshold must be nonnegative and finite")

    attenuation = params.attenuation
    if attenuation is None:
        errors.append("attenuation unspecified (give attenuation or wavelength)")
    else:
        _finite_positive(attenuation, "attenuation", errors)

    wavelength = params.wavelength
    if wavelength is not None:
        _finite_positive(wavelength, "wavelength", errors)
        if not errors and attenuation is not None and wavelength > 0:
            try:
                derived = sigma_from_wavelength(wavelength)
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
    once per instance and its outcome is kept in the instance's __dict__
    (validity is a pure function of the frozen fields); later calls on it
    cost one dict lookup.
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
    """
    unknown = sorted(set(values) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    merged = dict(CONFIG_DEFAULTS)
    if "sigma_linear" in values and "wavelength_m" not in values:
        merged.pop("wavelength_m", None)
    merged.update(values)
    params = ScenarioParams(**{
        field: int(merged[key]) if key == "sectors" else float(merged[key])
        for key, field in _KEY_FIELDS.items()
        if key in merged
    })
    return validate(params)


def params_to_mapping(params: ScenarioParams) -> dict[str, float | int]:
    """Config-key view of a scenario (for manifests and config echo)."""
    return {
        key: getattr(params, field)
        for key, field in _KEY_FIELDS.items()
        if field != "wavelength" or params.wavelength is not None
    }
