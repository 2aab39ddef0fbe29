"""References that the tests compare the package against.

None of them runs in a pipeline: each is an independent or a slower
computation of what the package computes, or a law as a plain callable.

- ``solve_lti_collocation``: the collocated states of x' = A x + g, solved
  on their own from ``collocation.collocation_matrix``.
- ``min_integral_variant``: the integral-minimizing LP over the same
  feasible set as the nadir LP (criterion 3).
- ``node_trace``: the frequency and governor-power traces of an LP optimum
  at any times, interpolated from its node states.
- ``energy_identity`` and ``theorem_checks``: the integrated swing equation
  by trapezoids over plain traces, and the terminal-equals-nadir check.
- ``nadir_for`` and ``target_response``: the first-order response that the
  synthesis embeds (criterion 5).
- ``mirror_output``, ``command_pu``, ``arms_power_cross``,
  ``vic_filter_rate`` and ``vic_command_mw``: the controller laws, which
  the closed-loop kernel writes inline, as functions compiled from the same
  templates with ``codegen.law_function``.
"""

from dataclasses import dataclass, field

import numpy as np

from windfreq import collocation as coll
from windfreq import trajopt as to
from windfreq.aapc import ARMING_LAW, COMMAND_LAW, VIC_COMMAND_LAW, VIC_FILTER_RATE_LAW
from windfreq.codegen import law_function
from windfreq.grid import GridParameters, energy_residual
from windfreq.lp import solve_lp


# ---------------------------------------------------------------------------
# collocation and trajectory optimization
# ---------------------------------------------------------------------------

def solve_lti_collocation(a_matrix, x_0, grid: coll.CollocationGrid, forcing=None):
    """Collocate x' = A x + g on the grid and solve for the node states.

    ``forcing`` g is either constant (n values) or given per node (K x n).
    Returns (node_states, terminal) where node_states has shape (K, n) and
    terminal is the quadrature estimate of x(t_f). The trajectory optimizer
    condenses its LP with the same collocation block.
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    n = a_matrix.shape[0]
    k_ord = grid.order
    x_0 = np.asarray(x_0, dtype=float).reshape(n)
    g = np.zeros(n) if forcing is None else np.asarray(forcing, dtype=float)
    g = g.reshape(n) if g.size == n else g.reshape(k_ord, n)
    rhs = grid.half_span * np.broadcast_to(g, (k_ord, n)) \
        - np.outer(grid.diff_matrix[:, 0], x_0)
    states = np.linalg.solve(coll.collocation_matrix(a_matrix, grid), rhs.ravel())
    states = states.reshape(k_ord, n)
    f_nodes = states @ a_matrix.T + g
    terminal = coll.terminal_state(x_0, f_nodes, grid)
    return states, terminal


def min_integral_variant(
    problem: to.TrajOptProblem, grid: coll.CollocationGrid, nadir_floor: float
) -> to.TrajectorySolution:
    """Minimize the magnitude of the frequency integral over the same set.

    The nadir-maximization and integral-minimization objectives pick the same
    trajectory only on the energy-optimal family, so the check anchors the
    path constraint at a fixed nadir floor (the max-nadir LP's own optimum)
    instead of carrying a free nadir variable. The reported nadir is the
    minimum of the frequency over the path constraint's points. The LP has
    another shape than the nadir LP's, so it starts cold.
    """
    lp = to.transcribe(problem, grid)
    floor = nadir_floor * (1.0 + 1e-9)  # hair of slack keeps the anchored LP feasible
    k_ord = grid.order
    # drop the nadir column; the path rows then read -df(tau) <= -floor
    a_eq = lp.a_eq[:, :k_ord]
    a_ub = lp.a_ub[:, :k_ord]
    b_ub = lp.b_ub - floor
    # Gauss quadrature of df over the nodes; its constant part h does not
    # move the optimum
    c = grid.half_span * grid.weights @ lp.state_gain[0::problem.n_states]
    res = solve_lp(c, a_eq, lp.b_eq, a_ub, b_ub)
    optimum = to.NadirOptimum(
        problem=problem,
        nadir_pu=float(np.min(lp.b_ub - a_ub @ res.x)),  # df at the path points
        u_nodes=res.x,
        diagnostics={**res.diagnostics, "nadir_floor": nadir_floor},
        lp=lp,
        grid=grid,
    )
    return to.extract_solution(optimum)


def node_trace(optimum: to.NadirOptimum, t) -> tuple:
    """(df, dPm) of an LP optimum at the times t, pu: the interpolating
    polynomial of its node states, and the aggregate governor output of it."""
    states = optimum.node_states
    df = coll.interpolate(optimum.grid, states[:, 0], t, "state")
    x = coll.interpolate(optimum.grid, states, t, "state")
    return df, to._governor_output(optimum.problem.gov, x[..., 1:], x[..., 0])


# ---------------------------------------------------------------------------
# checks over traces
# ---------------------------------------------------------------------------

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


def theorem_checks(t, df_pu, dpm_pu, grid: GridParameters, p_d_pu: float,
                   nadir_pu: float, terminal_df_pu: float,
                   min_integral_nadir_pu: float | None = None) -> AnalysisReport:
    """Bundle the trajectory-level checks over a trace.

    Evaluates the energy identity over the trace (t, df, dPm), the gap
    between the terminal frequency and the nadir, and (when given) the
    agreement of the integral-minimizing solution's nadir.
    """
    df = np.asarray(df_pu, dtype=float)
    dpm = np.asarray(dpm_pu, dtype=float)
    residual = energy_identity(t, df, dpm, grid, p_d_pu)

    violations = []
    terminal_gap = abs(terminal_df_pu - nadir_pu) / abs(nadir_pu)
    if abs(residual) > IDENTITY_TOL:
        violations.append(f"energy identity residual {residual:.3e} above {IDENTITY_TOL:.0e}")
    if terminal_gap > TERMINAL_TOL_REL:
        violations.append(f"terminal-vs-nadir gap {terminal_gap:.3%} above {TERMINAL_TOL_REL:.0%}")

    gap = None
    if min_integral_nadir_pu is not None:
        gap = abs(min_integral_nadir_pu - nadir_pu) / abs(nadir_pu)
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


# ---------------------------------------------------------------------------
# controller laws
# ---------------------------------------------------------------------------

def nadir_for(ctrl, p_d_pu: float) -> float:
    """Settling level of the controller's target response for a deficit, pu."""
    return -ctrl.alpha * p_d_pu / (ctrl.damping + ctrl.k_g)


def target_response(ctrl, t, p_d_pu: float):
    """The exponential-decay frequency trajectory the synthesis embeds."""
    t = np.asarray(t, dtype=float)
    return nadir_for(ctrl, p_d_pu) * (1.0 - np.exp(-ctrl.response_rate * t))


def mirror_output(mirror_d: float, mirror_c, x_gov, df: float) -> float:
    """Output of the mirror -G_g(s) read off the governor state, pu.

    The mirror is driven by the same deviation as the governors and starts
    from the same zero state, so its state is the governor state ``x_gov``;
    ``mirror_d`` and ``mirror_c`` are its negated feedthrough and output row.
    The closed-loop kernel writes this sum out term by term, in this order.
    """
    out = mirror_d * df
    for s in range(len(mirror_c)):
        out += mirror_c[s] * x_gov[s]
    return out


command_pu = law_function(
    __name__, "command_pu", ("share", "mirror_pu", "gain_kw", "df"),
    COMMAND_LAW.format(share="share", mirror="mirror_pu", gain_kw="gain_kw", df="df"),
    doc="One turbine's power command deviation: its share of mirror plus gain, pu.")
arms_power_cross = law_function(
    __name__, "arms_power_cross", ("p_command_w", "p_mppt_w"),
    ARMING_LAW.format(p_command="p_command_w", p_mppt="p_mppt_w"),
    doc="Whether the command arms the power-cross trigger of ``aapc.check_exit`` "
        "(``ARMING_LAW``), powers in W.")
vic_filter_rate = law_function(
    __name__, "vic_filter_rate", ("vic", "df", "z"),
    VIC_FILTER_RATE_LAW.format(df="df", z="z", filter_s="vic.filter_s"),
    doc="dz/dt of the lag z of the deviation; also the VIC derivative estimate.")
vic_command_mw = law_function(
    __name__, "vic_command_mw", ("vic", "df_pu", "z_pu", "f_base_hz"),
    VIC_COMMAND_LAW.format(k_f="vic.k_f", k_in="vic.k_in", df="df_pu", rate="deriv",
                           f_base="f_base_hz"),
    "deriv = " + VIC_FILTER_RATE_LAW.format(df="df_pu", z="z_pu", filter_s="vic.filter_s")
    + "\n",
    "Classic VIC command -k_f df - k_in d(df)/dt, MW, from the filter state z.\n\n"
    "The deviation and the filter state are in pu; ``f_base_hz`` turns them into\n"
    "the Hz the gains act on.")
