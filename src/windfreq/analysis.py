"""Verification instruments over frequency trajectories.

The integrated swing equation ties the terminal frequency, the frequency
integral and the governor regulation energy together for any trajectory with
a net-zero turbine energy exchange. The checks run on plain traces
(trapezoidal quadrature), so externally produced data works too. The
constant-hold optimum itself has a closed form, ``trajopt.step_hold_optimum``.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import GridParameters, energy_residual
from .trajopt import TrajectorySolution

__all__ = [
    "AnalysisReport",
    "energy_identity",
    "theorem_checks",
]

IDENTITY_TOL = 1e-6         # largest energy-identity residual theorem_checks accepts
TERMINAL_TOL_REL = 0.01     # largest relative terminal-vs-nadir gap it accepts


@dataclass
class AnalysisReport:
    s_df: float                 # integral of the frequency deviation, pu s
    e_m: float                  # governor regulation energy, pu s
    identity_residual: float
    terminal_gap_rel: float     # |df(t_f) - nadir| / |nadir|
    min_integral_gap_rel: float | None = None
    violations: list = field(default_factory=list)


def energy_identity(t, df_pu, dpm_pu, grid: GridParameters, p_d_pu: float) -> float:
    """Residual of the integrated swing equation over the trace:
    ``grid.energy_residual`` with trapezoidal integrals of df and dPm."""
    t = np.asarray(t, dtype=float)
    df = np.asarray(df_pu, dtype=float)
    if dpm_pu is None:
        raise ValueError("the governor power trace is required for the identity")
    dpm = np.asarray(dpm_pu, dtype=float)
    if not (t.shape == df.shape == dpm.shape):
        raise ValueError("t, df and dPm traces must have matching lengths")
    s_df = float(np.trapezoid(df, t))
    e_m = float(np.trapezoid(dpm, t))
    return energy_residual(grid, df[-1], s_df, e_m, p_d_pu, float(t[-1] - t[0]))


def theorem_checks(
    solution: TrajectorySolution,
    grid: GridParameters,
    min_integral_solution: TrajectorySolution | None = None,
) -> AnalysisReport:
    """Bundle the trajectory-level checks for a solved optimum.

    Evaluates the energy identity on a fine re-interpolated trace, the
    terminal-equals-nadir property, and (when provided) the agreement of the
    integral-minimizing solution's nadir.
    """
    t = np.arange(0.0, solution.t_f + 5e-4, 1e-3)
    df = np.asarray(solution.df_at(t), dtype=float)
    dpm = np.asarray(solution.dpm_at(t), dtype=float)
    residual = energy_identity(t, df, dpm, grid, solution.p_d_pu)

    violations = []
    terminal_gap = abs(solution.terminal_df_pu - solution.nadir_pu) / abs(solution.nadir_pu)
    if abs(residual) > IDENTITY_TOL:
        violations.append(f"energy identity residual {residual:.3e} above {IDENTITY_TOL:.0e}")
    if terminal_gap > TERMINAL_TOL_REL:
        violations.append(f"terminal-vs-nadir gap {terminal_gap:.3%} above {TERMINAL_TOL_REL:.0%}")

    gap = None
    if min_integral_solution is not None:
        gap = abs(min_integral_solution.nadir_pu - solution.nadir_pu) / abs(solution.nadir_pu)
        if gap > 0.005:
            violations.append(f"integral-objective nadir differs by {gap:.3%}")

    return AnalysisReport(
        s_df=float(np.trapezoid(df, t)),
        e_m=float(np.trapezoid(dpm, t)),
        identity_residual=residual,
        terminal_gap_rel=terminal_gap,
        min_integral_gap_rel=gap,
        violations=violations,
    )
