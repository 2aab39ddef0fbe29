"""Frequency-nadir trajectory optimization.

The continuous problem (swing equation + governor dynamics, zero initial
conditions, nadir path constraint, the highest nadir) is linear end to end,
and so is its one constraint on the control: the turbines release net-zero
energy over the horizon. The Gauss pseudospectral transcription is therefore
a plain LP, condensed onto the node controls. Its simplex starts from a
crash basis that depends on K alone (``contact_crash``).

Every nadir solve returns one ``NadirOptimum``: the nadir, and alpha with
it. An LP optimum also keeps its node controls, from which its node states
follow (``NadirOptimum.node_states``), and ``extract_solution`` turns it
into the ``TrajectorySolution``: the traces on a uniform grid and the
certificates, which only the offline ``solve`` study writes. Alpha on-line
needs the optimum alone.

Two references need no LP. While the governor step response s_g stays at
or below the damping D over the horizon, the optimum of the continuous
program is step-and-hold: df jumps to the nadir at t = 0+ and holds there,
and the integrated swing equation gives the nadir in closed form
(``step_hold_optimum``, with S_g(t_f) from one matrix exponential). A
forward-Euler transcription of the same program, condensed onto the
frequency samples, is its discrete twin: its nadir is one division
(``euler_oracle``), independent of the collocation machinery; it returns
the nadir without a trajectory.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import collocation as coll
from .grid import (
    GovernorSpec,
    GridParameters,
    StateSpace,
    aggregate_governors,
    energy_residual,
    governor_dc_gain_total,
    rebase_governors,
    steady_state_deviation,
)
from .lp import UnboundedError, solve_lp

__all__ = [
    "TrajOptProblem",
    "LinearProgram",
    "TrajectorySolution",
    "NadirOptimum",
    "build_problem",
    "transcribe",
    "extract_solution",
    "contact_crash",
    "solve_max_nadir",
    "euler_oracle",
    "StepHoldOptimum",
    "step_hold_optimum",
]

TRACE_DT = 0.01


@dataclass(frozen=True)
class TrajOptProblem:
    """x' = a x + b_ctrl (u - P_d) for x = [df, x_g...] and u = dP_e.

    x_g holds one state block per distinct governor dynamics
    (``grid.group_governors``): 3 entries on ``multi_machine``'s ten units.
    """

    a: np.ndarray
    b_ctrl: np.ndarray
    p_d: float
    t_f: float
    grid_params: GridParameters
    k_g: float
    gov: StateSpace  # system-base aggregate governor, for trace reconstruction

    @property
    def n_states(self) -> int:
        return self.a.shape[0]


def _governor_output(gov: StateSpace, x_g, df):
    """Aggregate governor power x_g . C + D df; rows of x_g pair with df."""
    return x_g @ gov.c[0, :] + gov.d[0, 0] * df


def build_problem(
    grid_params: GridParameters,
    governors: list[GovernorSpec],
    p_d_pu: float,
    t_f: float = 30.0,
) -> TrajOptProblem:
    """Assemble the LTI dynamics of the decoupled frequency plant.

    The frequency row carries the aggregate governor feedthrough and output
    coupling; the governor rows are driven by the frequency. Units with the
    same dynamics share one governor state, which the LP condenses once.
    """
    # alpha is a nadir per unit deficit: a zero deficit leaves it undefined
    if not p_d_pu > 0:
        raise ValueError(f"disturbance must be positive, got {p_d_pu}")
    if t_f <= 0:
        raise ValueError(f"horizon must be positive, got {t_f}")
    gov = aggregate_governors(rebase_governors(governors, grid_params.s_base_mva))
    two_h = 2.0 * grid_params.inertia_s
    a = np.block([[(gov.d - grid_params.damping) / two_h, gov.c / two_h],
                  [gov.b, gov.a]])
    b_ctrl = np.zeros(gov.order + 1)
    b_ctrl[0] = 1.0 / two_h
    return TrajOptProblem(
        a=a,
        b_ctrl=b_ctrl,
        p_d=float(p_d_pu),
        t_f=float(t_f),
        grid_params=grid_params,
        k_g=governor_dc_gain_total(governors, grid_params.s_base_mva),
        gov=gov,
    )


@dataclass
class LinearProgram:
    """Condensed LP over [controls at the K nodes; nadir], whose objective c'v is the nadir.

    The node states are not decision variables: the interior ones are
    ``(state_gain @ u + state_offset).reshape(K, n)`` and the one at tau = -1
    is the pre-event equilibrium, zero.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    state_gain: np.ndarray
    state_offset: np.ndarray
    meta: dict = field(default_factory=dict)


def _path_taus(grid: coll.CollocationGrid) -> np.ndarray:
    """Constraint locations: nodes, every inter-point midpoint, and tau = +1.

    Constraining only the nodes leaves the interpolating polynomial free to
    dive between the last node and the horizon end, which lets the optimizer
    bank unbounded credit on the unobserved terminal frequency. Midpoints and
    the endpoint close that hole.
    """
    pts = np.concatenate([grid.basis, [1.0]])
    mids = 0.5 * (pts[:-1] + pts[1:])
    return np.concatenate([grid.nodes, mids, [1.0]])


def transcribe(problem: TrajOptProblem, grid: coll.CollocationGrid) -> LinearProgram:
    """Collocate the dynamics, condense them onto the controls, and
    discretize the nadir path constraint.

    The dynamics are linear and start from the pre-event equilibrium x = 0,
    so the K collocation rows per state fix the node states as an affine map
    X = G u + h of the node controls. One solve of the collocation block
    against [control columns | deficit forcing] yields G and h (condensing,
    as in Bock & Plitt 1984). What is left is an LP over the controls and the
    nadir. Equality: the Gauss quadrature of the control, the released
    energy, is zero at t_f. Inequalities: the nadir variable lower-bounds the
    frequency polynomial at nodes, gap midpoints and the horizon end.
    Objective: the highest nadir.
    """
    n = problem.n_states
    k_ord = grid.order
    hs = grid.half_span
    n_vars = k_ord + 1

    forcing = np.empty((n * k_ord, k_ord + 1))
    forcing[:, :k_ord] = hs * np.kron(np.eye(k_ord), problem.b_ctrl[:, None])
    forcing[:, k_ord] = hs * np.tile(-problem.p_d * problem.b_ctrl, k_ord)
    gain_offset = np.linalg.solve(coll.collocation_matrix(problem.a, grid), forcing)
    gain, offset = gain_offset[:, :k_ord], gain_offset[:, k_ord]

    a_eq = np.zeros((1, n_vars))
    a_eq[0, :k_ord] = hs * grid.weights
    b_eq = np.zeros(1)

    # nadir <= df(tau), with df(-1) = 0 and df at the nodes G[0::n] u + h[0::n]
    taus = _path_taus(grid)
    coeff = coll.lagrange_coefficients(grid, taus, "state")[:, 1:]
    a_ub = np.zeros((taus.size, n_vars))
    a_ub[:, :k_ord] = -coeff @ gain[0::n]
    a_ub[:, k_ord] = 1.0
    b_ub = coeff @ offset[0::n]

    c = np.zeros(n_vars)
    c[k_ord] = 1.0
    meta = {
        "n_vars": n_vars,
        "n_eq_terminal": 1,
        "n_path_node": k_ord,
        "n_path_aux": taus.size - k_ord,
        "n_ineq": taus.size,
        "n_states_eliminated": n * k_ord,
    }
    return LinearProgram(
        c=c,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ub=a_ub,
        b_ub=b_ub,
        state_gain=gain,
        state_offset=offset,
        meta=meta,
    )


@dataclass
class TrajectorySolution:
    """Optimal traces on a uniform grid plus node-level certificates."""

    t: np.ndarray
    df_pu: np.ndarray
    dpe_pu: np.ndarray
    denergy_pu_s: np.ndarray
    dpm_pu: np.ndarray
    nadir_pu: float
    ss_deviation_pu: float
    terminal_df_pu: float
    terminal_denergy: float
    s_quad: float
    em_quad: float
    eq25_residual: float
    ringing_rel: float
    p_d_pu: float
    t_f: float
    f_base_hz: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def nadir_hz(self) -> float:
        return self.nadir_pu * self.f_base_hz

    @property
    def alpha(self) -> float:
        """Nadir over the settling deviation."""
        return self.nadir_pu / self.ss_deviation_pu

    def metrics_dict(self) -> dict:
        return {
            "nadir_pu": self.nadir_pu,
            "nadir_hz": self.nadir_hz,
            "alpha": self.alpha,
            "steady_state_pu": self.ss_deviation_pu,
            "terminal_df_pu": self.terminal_df_pu,
            "terminal_denergy_pu_s": self.terminal_denergy,
            "frequency_integral_pu_s": self.s_quad,
            "governor_energy_pu_s": self.em_quad,
            "energy_identity_residual": self.eq25_residual,
            "ringing_rel": self.ringing_rel,
            "p_d_pu": self.p_d_pu,
            "horizon_s": self.t_f,
            "method": "collocation",
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class NadirOptimum:
    """The optimum of one nadir solve: the nadir, and alpha with it.

    An LP optimum also keeps its node controls, the LP's diagnostics, the LP
    and the grid, from which ``extract_solution`` builds the trajectory. The
    Euler reference solves no LP and keeps none of them; ``step_hold`` is
    the closed-form optimum of the same problem, when the caller computed it.
    """

    problem: TrajOptProblem = field(repr=False)
    nadir_pu: float
    step_hold: "StepHoldOptimum | None" = field(default=None, repr=False)
    u_nodes: np.ndarray | None = field(default=None, repr=False)
    diagnostics: dict = field(default_factory=dict, repr=False)
    lp: LinearProgram | None = field(default=None, repr=False)
    grid: coll.CollocationGrid | None = field(default=None, repr=False)

    @property
    def p_d_pu(self) -> float:
        return self.problem.p_d

    @property
    def ss_deviation_pu(self) -> float:
        problem = self.problem
        return steady_state_deviation(problem.p_d, problem.grid_params, problem.k_g)

    @property
    def alpha(self) -> float:
        """Nadir over the settling deviation, as ``TrajectorySolution.alpha``."""
        return self.nadir_pu / self.ss_deviation_pu

    @property
    def node_states(self) -> np.ndarray:
        """An LP optimum's states at the K + 1 basis points, one row each: row
        0 is the pre-event equilibrium, zero, and the others follow from the
        node controls by the condensed map of ``LinearProgram``."""
        lp, k_ord, n = self.lp, self.grid.order, self.problem.n_states
        states = np.zeros((k_ord + 1, n))
        states[1:] = (lp.state_gain @ self.u_nodes + lp.state_offset).reshape(k_ord, n)
        return states


def extract_solution(optimum: NadirOptimum) -> TrajectorySolution:
    """Re-embed an LP optimum's node states, interpolate to a uniform grid, certify.

    ``primal_eq_residual`` in the diagnostics is the larger of the condensed
    LP's own residual and that of the full collocated system (initial state,
    collocation rows, released energy at t_f) on the re-embedded states;
    ``lp_meta`` is the LP's shape (``LinearProgram.meta``).
    """
    problem, grid, u_nodes = optimum.problem, optimum.grid, optimum.u_nodes
    k_ord = grid.order
    hs = grid.half_span
    nadir = optimum.nadir_pu
    states = optimum.node_states

    f_nodes = states[1:] @ problem.a.T + np.outer(u_nodes, problem.b_ctrl) \
        - problem.p_d * problem.b_ctrl
    terminal = coll.terminal_state(states[0], f_nodes, grid)
    terminal_energy = coll.quadrature(grid, u_nodes)
    dynamics_residual = np.concatenate([
        states[0],
        (grid.diff_matrix @ states - hs * f_nodes).ravel(),
        [terminal_energy],
    ])
    diagnostics = dict(optimum.diagnostics)
    diagnostics["primal_eq_residual"] = max(
        diagnostics.get("primal_eq_residual", 0.0),
        float(np.max(np.abs(dynamics_residual))))
    diagnostics["lp_meta"] = optimum.lp.meta

    # released energy at the nodes by the same collocation, E(-1) = 0
    energy = np.zeros((k_ord + 1, 1))
    energy[1:, 0] = np.linalg.solve(grid.diff_matrix[:, 1:], hs * u_nodes)
    t = np.arange(0.0, problem.t_f + TRACE_DT / 2, TRACE_DT)
    x_t = coll.interpolate(grid, np.hstack([states, energy]), t, "state")
    df = x_t[:, 0]
    gov = problem.gov

    s_quad = coll.quadrature(grid, states[1:, 0])
    em_quad = coll.quadrature(grid, _governor_output(gov, states[1:, 1:], states[1:, 0]))
    gp = problem.grid_params

    return TrajectorySolution(
        t=t,
        df_pu=df,
        dpe_pu=coll.interpolate(grid, u_nodes, t, "control"),
        denergy_pu_s=x_t[:, -1],
        dpm_pu=_governor_output(gov, x_t[:, 1:-1], df),
        nadir_pu=nadir,
        ss_deviation_pu=optimum.ss_deviation_pu,
        terminal_df_pu=float(terminal[0]),
        terminal_denergy=terminal_energy,
        s_quad=s_quad,
        em_quad=em_quad,
        eq25_residual=energy_residual(gp, terminal[0], s_quad, em_quad,
                                      problem.p_d, problem.t_f),
        ringing_rel=max(0.0, (nadir - float(df.min())) / abs(nadir)),
        p_d_pu=problem.p_d,
        t_f=problem.t_f,
        f_base_hz=gp.f_base_hz,
        diagnostics=diagnostics,
    )


def contact_crash(grid: coll.CollocationGrid) -> np.ndarray:
    """Path rows predicted tight at the nadir optimum, from K alone.

    The optimal frequency touches the nadir in adjacent node-midpoint pairs
    that alternate with free pairs. The crash marks every odd-indexed node
    with its midpoint on the side facing tau = 0 (the following one for
    tau < 0, the preceding one otherwise) and, for odd K, the row at
    tau = +1: K rows, which with the energy row fix the K + 1 variables.
    """
    k_ord = grid.order
    odd = np.arange(1, k_ord, 2)
    active = np.zeros(2 * k_ord + 2, dtype=bool)  # rows of _path_taus
    active[odd] = True
    # node j lies between midpoints j and j + 1, the rows K + j and K + j + 1;
    # the nodes are symmetric, so node j has tau < 0 exactly when 2j + 1 < K
    active[k_ord + odd + (2 * odd + 1 < k_ord)] = True
    active[-1] = k_ord % 2 == 1
    return active


def solve_max_nadir(problem: TrajOptProblem, grid: coll.CollocationGrid) -> NadirOptimum:
    """Transcribe the program and solve its LP from the contact crash.

    The optimum's nadir is the LP's last variable, after the K node
    controls; ``extract_solution`` builds the trajectory from it.
    """
    lp = transcribe(problem, grid)
    res = solve_lp(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, active=contact_crash(grid))
    return NadirOptimum(problem=problem, nadir_pu=float(res.x[grid.order]),
                        u_nodes=res.x[:grid.order], diagnostics=res.diagnostics,
                        lp=lp, grid=grid)


# diagonal Pade [6/6] coefficients of e^x: c_k = (12 - k)! 6! / (12! k! (6 - k)!)
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def _expm(m: np.ndarray) -> np.ndarray:
    """e^m by the diagonal [6/6] Pade approximant with scaling and squaring.

    m is scaled by 2^-s to a 1-norm of at most 1/2, where the approximant's
    truncation error, about 1.7e-13 |x|^13, lies below the unit roundoff,
    and the approximant is squared s times (Higham, *SIMAX* 26(4), 2005).
    """
    norm = float(np.max(np.sum(np.abs(m), axis=0), initial=0.0))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    x = m / 2.0 ** squarings
    c = _PADE6
    x2 = x @ x
    x4 = x2 @ x2
    eye = np.eye(m.shape[0])
    even = c[0] * eye + c[2] * x2 + c[4] * x4 + c[6] * (x4 @ x2)
    odd = x @ (c[1] * eye + c[3] * x2 + c[5] * x4)
    e = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        e = e @ e
    return e


@dataclass(frozen=True)
class StepHoldOptimum:
    """The continuous program's optimum, df stepped to the nadir at t = 0+ and held.

    Holding df one unit higher than the nadir on an instant tau before the
    horizon end costs w(tau) = D - s_g(tau) of released energy, s_g being the
    step response of the aggregate governor. The step-and-hold trajectory is
    optimal when w >= 0 on [0, t_f]; ``min_w`` is the least w over the
    ``TRACE_DT`` samples of that interval, reached at ``tau_min_w_s``, and a
    negative one means the program is unbounded.
    """

    nadir_pu: float
    alpha: float
    s_g: float           # S_g(t_f): the integral of s_g over [0, t_f], pu s
    min_w: float
    tau_min_w_s: float


def step_hold_optimum(problem: TrajOptProblem) -> StepHoldOptimum:
    """Closed-form optimum of the program that ``transcribe`` discretizes.

    The integrated swing equation of the step-and-hold trajectory reads
    nadir (2H + D t_f - S_g(t_f)) = -P_d t_f, so alpha = (D + K_g) t_f /
    (2H + D t_f - S_g(t_f)) does not depend on P_d. S_g(t_f) and s_g(tau)
    are entries of z(t) = e^{M t} e_last for the augmented matrix
    M = [[A, 0, B], [C, 0, D], [0, 0, 0]] of the governor (Van Loan, *IEEE
    TAC* 23(3), 1978): z = [x_g, S_g, 1] under a unit step. S_g(t_f) comes
    from one exponential; the samples of s_g from the powers of
    e^{M t_f / N}, built by doubling.
    """
    gov = problem.gov
    gp = problem.grid_params
    n = gov.order
    m = np.zeros((n + 2, n + 2))
    m[:n, :n] = gov.a
    m[:n, -1] = gov.b[:, 0]
    m[n, :n] = gov.c[0]
    m[n, -1] = gov.d[0, 0]
    t_f = problem.t_f
    s_g = float(_expm(m * t_f)[n, -1])

    n_samples = max(1, round(t_f / TRACE_DT))
    z = np.eye(1, n + 2, n + 1)  # rows z(k t_f / N) for k < 2^j
    power = _expm(m * (t_f / n_samples))  # e^{M t_f / N} to the 2^j
    while z.shape[0] <= n_samples:
        z = np.vstack([z, z @ power.T])
        power = power @ power
    w = gp.damping - z[:n_samples + 1] @ m[n]  # D - (C x_g + D_g)
    k = int(np.argmin(w))
    denom = 2.0 * gp.inertia_s + gp.damping * t_f - s_g
    return StepHoldOptimum(
        nadir_pu=-problem.p_d * t_f / denom,
        alpha=(gp.damping + problem.k_g) * t_f / denom,
        s_g=s_g,
        min_w=float(w[k]),
        tau_min_w_s=k * t_f / n_samples,
    )


def euler_oracle(problem: TrajOptProblem, n_steps: int = 3000) -> NadirOptimum:
    """Forward-Euler transcription of the same program, condensed and solved.

    States are eliminated exactly: with the frequency samples as decision
    variables, governor states and controls follow from the Euler recursions,
    and the net-zero released energy becomes a single equality w . df = rhs.
    With every sample written as the nadir plus a nonnegative slack, the
    optimum holds every sample at the nadir, rhs / sum(w), when every weight
    w_i is nonnegative, and is unbounded (``UnboundedError``) otherwise: the
    discrete twin of ``step_hold_optimum``. Completely independent of the
    collocation machinery and of the matrix exponential. The result carries
    the nadir alone, no trajectory.
    """
    if n_steps < 1000:
        raise ValueError(f"the Euler reference needs >= 1000 steps, got {n_steps}")
    gov = problem.gov
    gp = problem.grid_params
    h = problem.t_f / n_steps
    b_g = gov.b[:, 0]
    c_g = gov.c[0, :]
    d_g = float(gov.d[0, 0])

    # w . phi = r  <=>  sum of h u_i = 0 after eliminating states
    trans = np.eye(gov.order) + h * gov.a
    gv = np.zeros(gov.order)
    cgb = np.zeros(n_steps)  # cgb[j] = C_g G_j B_g, j = 1 .. n-2
    for j in range(n_steps - 2, 0, -1):
        gv = b_g + trans @ gv
        cgb[j] = c_g @ gv
    w = np.empty(n_steps)
    w[:-1] = h * (gp.damping - d_g) - h * h * cgb[1:]
    w[-1] = 2.0 * gp.inertia_s
    rhs = -problem.t_f * problem.p_d

    # the program is max nadir subject to w . s + (sum w) nadir = rhs over
    # slacks s >= 0 of the samples above the nadir: any w_i < 0 is an
    # improving ray, and otherwise every slack is zero at the optimum
    if w.min() < 0:
        i = int(np.argmin(w))
        raise UnboundedError(f"Euler program unbounded: weight {w[i]:.3e} < 0 at sample {i}")
    return NadirOptimum(problem=problem, nadir_pu=float(rhs / w.sum()))
