"""Verification instruments over frequency trajectories.

The integrated swing equation ties the terminal frequency, the frequency
integral and the governor regulation energy together for any trajectory with
a net-zero turbine energy exchange; the envelope scale factor bounds how much
a constant-hold trajectory can improve on a sagging one. These run on plain
traces (trapezoidal quadrature), so externally produced data works too.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridParameters, energy_residual
from .trajopt import TrajectorySolution

__all__ = [
    "AnalysisReport",
    "energy_identity",
    "envelope_mu",
    "theorem_checks",
]


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


def envelope_mu(inertia_s: float, damping: float, t_f: float, t_c: float, eta: float) -> float:
    """Scale factor between a sagging trajectory's nadir and the constant-hold
    nadir achievable within its envelope; lies in (0, 1) for eta in (0, 1).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not 0.0 <= t_c < t_f:
        raise ValueError(f"need 0 <= t_c < t_f, got t_c={t_c}, t_f={t_f}")
    if inertia_s <= 0:
        raise ValueError(f"inertia must be positive, got {inertia_s}")
    if damping <= 0:
        raise ZeroDivisionError("the scale factor is damping-normalized; D = 0 is out of model")
    h2 = 2.0 * inertia_s
    x_term = eta * damping ** 2 * (t_f ** 2 - t_c ** 2) \
        + 4.0 * eta * inertia_s * damping * (t_f - t_c)
    y_term = (1.0 - eta) * damping ** 2 * (t_f ** 2 - t_c ** 2) \
        + 4.0 * (1.0 - eta) * damping * inertia_s * (t_f - t_c)
    if x_term <= 0 or y_term <= 0:
        raise ArithmeticError(f"bound terms must be positive, got X={x_term}, Y={y_term}")
    radicand = (h2 + damping * t_f) ** 2 - x_term
    mu = (h2 + damping * t_f - math.sqrt(radicand)) / (damping * (t_f - t_c))
    return mu


def theorem_checks(
    solution: TrajectorySolution,
    grid: GridParameters,
    min_integral_solution: TrajectorySolution | None = None,
    identity_tol: float = 1e-6,
    terminal_tol_rel: float = 0.01,
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
    if abs(residual) > identity_tol:
        violations.append(f"energy identity residual {residual:.3e} above {identity_tol:.0e}")
    if terminal_gap > terminal_tol_rel:
        violations.append(f"terminal-vs-nadir gap {terminal_gap:.3%} above {terminal_tol_rel:.0%}")

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
