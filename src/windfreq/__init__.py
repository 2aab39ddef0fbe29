"""Nadir-optimal supplementary active power control of wind turbine fleets.

Solve the frequency-support trajectory optimization on an average-system
frequency model, turn the optimum into a deployable feedback controller, and
validate the loop in time-domain simulation against a virtual-inertia
baseline.
"""

__version__ = "0.1.0"
__all__ = ["backend_name", "__version__"]


def backend_name() -> str:
    """The numeric backend: the package is pure numpy."""
    return "numpy"
