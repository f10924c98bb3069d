"""Sectored-beam wireless power transfer in Poisson beacon networks.

Closed-form statistics, Monte Carlo simulation, and charging-radius
optimization for sensors harvesting energy from a random field of power
beacons that steer beams toward nearby devices.

Modules:
    scenario  parameter records, validation, config keys
    specfun   incomplete-gamma kernels the closed forms depend on
    analytic  exact moments, Laplace transforms, Gamma-matched CCDF
    mcsim     reproducible network simulation and allocation schemes
    radopt    charging-radius optimizers for mean and threshold objectives
    benchcli  experiment runner and command-line interface
"""

from .scenario import ScenarioParams, sigma_from_wavelength, validate

__version__ = "0.1.0"

__all__ = ["ScenarioParams", "sigma_from_wavelength", "validate", "__version__"]
