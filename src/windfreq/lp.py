"""Two-phase revised simplex for the transcribed trajectory programs.

Every variable is free and is split into positive and negative parts, and
inequality rows receive slacks. The standard form min c'x, A x = b, x >= 0 is
equilibrated once, and every pivot re-solves its basis from that scaled data,
so no rounding carries over between pivots. Basic unit columns (slacks and
artificials) are eliminated first, leaving a dense solve over the structural
basic columns only. Entering columns follow Dantzig's rule (lowest index on
ties), the leaving row Harris' two-pass ratio test; after a run of pivots that
set no new best objective, Bland's rule with the exact minimum ratio takes over
until one does, which guards against cycling. The method is fully
deterministic.

A caller that can predict which inequality rows are tight at the optimum
passes them as the ``active`` mask. The vertex where those rows and the
equalities hold is mapped to a standard-form basis (a crash basis, Bixby,
*Oper. Res.* 50(1), 2002), and when that basis is primal feasible on the
equilibrated data, phase 2 starts from it and phase 1 is skipped. Otherwise,
and when the mask has the wrong size or its rows are singular, the two-phase
path runs unchanged, to the same bits as without a mask.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LpResult", "solve_lp", "InfeasibleError", "UnboundedError", "SimplexError"]

MAX_PIVOTS = 200000  # per phase
BLAND_AFTER = 300    # pivots without a new best objective before Bland's rule takes over
DUAL_TOL = 1e-10     # reduced costs above -DUAL_TOL count as optimal
PRIMAL_TOL = 1e-12   # Harris bound slack; basic values below it are degenerate


class InfeasibleError(RuntimeError):
    """The constraint set admits no solution."""


class UnboundedError(RuntimeError):
    """The objective is unbounded over the feasible set."""


class SimplexError(RuntimeError):
    """The simplex stopped without a verdict: pivot cap reached or basis singular."""


@dataclass
class LpResult:
    x: np.ndarray
    objective: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _unit_rows(a):
    """Row of the one nonzero entry of each column; -1 for the other columns."""
    nonzero = a != 0
    return np.where(nonzero.sum(axis=0) == 1, np.arange(a.shape[0]) @ nonzero, -1)


def _dense_solve(mat, rhs):
    try:
        z = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"singular basis: {exc}") from exc
    if not np.isfinite(z).all():
        raise SimplexError("singular basis: the solve overflowed")
    return z


class _Basis:
    """The basis matrix B = a[:, basis] with its unit columns eliminated.

    A basic unit column val * e_r fixes its variable from row r alone once the
    structural basics are known, so only the structural columns on the rows
    no basic unit column covers need a dense solve.
    """

    def __init__(self, a, unit_row, basis):
        rows = unit_row[basis]
        self.pos_u, self.pos_s = np.flatnonzero(rows >= 0), np.flatnonzero(rows < 0)
        self.rows_u = rows[self.pos_u]
        self.val_u = a[self.rows_u, basis[self.pos_u]]
        covered = np.zeros(a.shape[0], dtype=bool)
        covered[self.rows_u] = True
        self.rows_s = np.flatnonzero(~covered)
        if self.rows_s.size != self.pos_s.size:
            raise SimplexError("singular basis: two basic unit columns share a row")
        a_s = a[:, basis[self.pos_s]]
        self.block, self.a_us = a_s[self.rows_s], a_s[self.rows_u]

    def solve(self, rhs):
        """z with B z = rhs (rhs one or more columns of length m)."""
        z_s = _dense_solve(self.block, rhs[self.rows_s])
        z = np.empty_like(rhs)
        z[self.pos_s] = z_s
        z[self.pos_u] = ((rhs[self.rows_u] - self.a_us @ z_s).T / self.val_u).T
        return z

    def solve_t(self, c_b):
        """y with B' y = c_b."""
        y = np.empty(self.rows_s.size + self.rows_u.size)
        y[self.rows_u] = c_b[self.pos_u] / self.val_u
        y[self.rows_s] = _dense_solve(self.block.T, c_b[self.pos_s] - self.a_us.T @ y[self.rows_u])
        return y


def _simplex(a, b, c, basis, n_enter):
    """Pivot from a primal feasible basis until optimal.

    Returns (x_B, pivots) and updates ``basis`` in place. Only the first
    ``n_enter`` columns may enter. Raises UnboundedError on an improving ray.
    """
    unit_row = _unit_rows(a)
    rhs = np.stack([b, b], axis=1)  # [b | entering column]
    streak = 0  # pivots since the objective last fell below its best
    best = np.inf
    pivots = 0
    while True:
        fac = _Basis(a, unit_row, basis)
        d = c[:n_enter] - fac.solve_t(c[basis]) @ a[:, :n_enter]
        d[basis[basis < n_enter]] = 0.0
        bland = streak > BLAND_AFTER
        q = int(np.argmax(d < -DUAL_TOL) if bland else np.argmin(d))
        if d[q] >= -DUAL_TOL:
            return np.maximum(fac.solve(b), 0.0), pivots
        if pivots == MAX_PIVOTS:
            raise SimplexError(f"simplex pivot cap reached ({MAX_PIVOTS})")
        rhs[:, 1] = a[:, q]
        x_b, w = fac.solve(rhs).T
        rows = np.nonzero(w > max(1e-11, 1e-9 * np.max(np.abs(w), initial=0.0)))[0]
        if not rows.size:
            raise UnboundedError(f"LP unbounded after {pivots} pivots")
        # Harris' steps can be tiny or negative, so only a new best
        # objective counts as progress
        objective = c[basis] @ x_b
        streak = 0 if objective < best - 1e-12 * max(1.0, abs(best)) else streak + 1
        best = min(best, objective)
        if bland:
            # Bland's guarantee needs the exact minimum ratio, lowest index on ties
            ratio = np.maximum(x_b[rows], 0.0) / w[rows]
            ties = rows[ratio <= np.min(ratio)]
            p = ties[np.argmin(basis[ties])]
        else:
            # Harris: widen the bound by the primal tolerance, then take the
            # largest pivot element among the rows whose ratio stays under it
            bound = np.min((x_b[rows] + PRIMAL_TOL) / w[rows])
            ties = rows[x_b[rows] / w[rows] <= bound]
            p = ties[np.argmax(w[ties])]
        basis[p] = q
        pivots += 1


def _solve_standard(a, b, c, slack_of_row):
    """min c'x s.t. a x = b, x >= 0, by the two-phase method.

    Rows whose slack column survives sign normalization seed the starting
    basis directly; only the rest receive artificial variables. Returns
    (x, basis, (phase-1 pivots, phase-2 pivots)).
    """
    m, n = a.shape
    art_rows = np.nonzero((slack_of_row < 0) | (b < 0))[0]
    a = np.where((b < 0)[:, None], -a, a)
    b = np.abs(b)
    basis = slack_of_row.copy()
    basis[art_rows] = n + np.arange(art_rows.size)
    a_full = np.hstack([a, np.eye(m)[:, art_rows]])
    c_phase1 = np.concatenate([np.zeros(n), np.ones(art_rows.size)])

    try:
        x_b, pivots1 = _simplex(a_full, b, c_phase1, basis, n)
    except UnboundedError as exc:
        raise SimplexError("phase-1 simplex found an improving ray (numerical breakdown)") from exc
    infeasibility = float(np.sum(x_b[basis >= n]))
    if infeasibility > 1e-7:
        raise InfeasibleError(
            f"LP infeasible: phase-1 objective {infeasibility:.3e} > 0 after {pivots1} pivots")

    # drive leftover artificials out of the basis; fully redundant rows go away
    keep = np.ones(m, dtype=bool)
    unit_row = _unit_rows(a_full)
    for i in np.nonzero(basis >= n)[0]:
        row = _Basis(a_full, unit_row, basis).solve_t(np.eye(m)[i]) @ a
        row[basis[basis < n]] = 0.0
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > 1e-8:
            basis[i] = j
        else:
            keep[i] = False
    basis = basis[keep]
    a, b = a[keep], b[keep]

    x_b, pivots2 = _simplex(a, b, c, basis, n)
    x = np.zeros(n)
    x[basis] = x_b
    return x, basis, (pivots1, pivots2)


def _crash_basis(a_var, b_var, m_eq, active, a_scaled, b_scaled):
    """Standard-form basis of the vertex where the equality rows and the
    ``active`` inequality rows are tight, or None when it is no primal
    feasible basis.

    The vertex v solves the square system of those rows. Each variable
    contributes its positive or negative copy, by the sign of its value, and
    every inequality row left inactive its slack. The basis must solve the
    equilibrated data to values no lower than -PRIMAL_TOL. A mask of the
    wrong size or count, or a singular system, gives None too.
    """
    nv = a_var.shape[1]
    active = np.asarray(active, dtype=bool)
    if active.shape != (a_var.shape[0] - m_eq,) or m_eq + np.count_nonzero(active) != nv:
        return None
    tight = np.concatenate([np.ones(m_eq, dtype=bool), active])
    try:
        v = np.linalg.solve(a_var[tight], b_var[tight])
    except np.linalg.LinAlgError:
        return None
    columns = np.arange(nv) + nv * (v < 0)
    slacks = 2 * nv + np.flatnonzero(~active)
    basis = np.concatenate([columns, slacks])
    try:
        x_b = _Basis(a_scaled, _unit_rows(a_scaled), basis).solve(b_scaled)
    except SimplexError:
        return None
    return basis if x_b.min(initial=0.0) >= -PRIMAL_TOL else None


def solve_lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, active=None) -> LpResult:
    """Solve max c'v over free v subject to a_eq v = b_eq and a_ub v <= b_ub.

    A bound v_i >= 0 is an a_ub row. ``active`` optionally flags the a_ub
    rows predicted tight at the optimum; see ``_crash_basis``. Raises
    InfeasibleError / UnboundedError on those outcomes, and SimplexError
    when the pivot cap is reached or the basis turns singular. Besides the
    optimality certificates, ``diagnostics`` reports the pivots of each phase
    and their sum, ``iterations``, and ``warm_start``: "hit" when phase 2
    started from the crash basis, "infeasible" when the crash gave no primal
    feasible basis and the two-phase path ran, "none" without a mask.
    """
    c = np.asarray(c, dtype=float)
    nv = c.size
    a_eq = np.zeros((0, nv)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    a_ub = np.zeros((0, nv)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    if not all(np.all(np.isfinite(v)) for v in (c, a_eq, b_eq, a_ub, b_ub)):
        raise ValueError("LP data must be finite")

    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]

    # column layout: one column per variable, a negated copy of each, then one
    # slack per inequality row
    a_var = np.vstack([a_eq, a_ub])
    slacks = np.vstack([np.zeros((m_eq, m_ub)), np.eye(m_ub)])
    a_std = np.hstack([a_var, -a_var, slacks])
    b_std = np.concatenate([b_eq, b_ub])
    c_std = np.concatenate([-c, c, np.zeros(m_ub)])  # the standard form minimizes

    # row+column equilibration: scale-free for the solution, kinder to pivoting
    row_scale = np.maximum(np.max(np.abs(a_std), axis=1, initial=0.0), 1e-30)
    a_scaled = a_std / row_scale[:, None]
    col_scale = np.maximum(np.max(np.abs(a_scaled), axis=0, initial=0.0), 1e-12)
    a_scaled = a_scaled / col_scale

    slack_of_row = np.concatenate([np.full(m_eq, -1), 2 * nv + np.arange(m_ub)])
    b_scaled, c_scaled = b_std / row_scale, c_std / col_scale

    basis = None if active is None else _crash_basis(
        a_var, b_std, m_eq, active, a_scaled, b_scaled)
    if basis is None:
        x_scaled, basis, pivots = _solve_standard(a_scaled, b_scaled, c_scaled, slack_of_row)
        warm_start = "none" if active is None else "infeasible"
    else:
        x_b, pivots2 = _simplex(a_scaled, b_scaled, c_scaled, basis, a_scaled.shape[1])
        x_scaled = np.zeros(a_scaled.shape[1])
        x_scaled[basis] = x_b
        pivots = (0, pivots2)
        warm_start = "hit"
    x_std = x_scaled / col_scale
    x = x_std[:nv] - x_std[nv:2 * nv]

    diag = _diagnostics(a_std, b_std, c_std, x_std, basis, x, a_eq, b_eq, a_ub, b_ub)
    diag.update(phase1_pivots=pivots[0], phase2_pivots=pivots[1], iterations=sum(pivots),
                warm_start=warm_start)
    return LpResult(x=x, objective=float(c @ x), iterations=sum(pivots), diagnostics=diag)


def _diagnostics(a_std, b_std, c_std, x_std, basis, x, a_eq, b_eq, a_ub, b_ub):
    """Optimality certificates on the original (unscaled) data."""
    primal_eq = float(np.max(np.abs(a_eq @ x - b_eq))) if b_eq.size else 0.0
    primal_ub = float(np.max(a_ub @ x - b_ub)) if b_ub.size else 0.0

    # duals from the final basis (redundant rows may have been dropped,
    # leaving a rectangular basis matrix -> least squares)
    try:
        y = np.linalg.lstsq(a_std[:, basis].T, c_std[basis], rcond=None)[0]
        reduced = c_std - a_std.T @ y
        dual_feas = float(min(0.0, reduced.min()))
        compl = float(np.max(np.abs(x_std * reduced[: x_std.size])))
    except np.linalg.LinAlgError:
        dual_feas = np.nan
        compl = np.nan
    return {
        "primal_eq_residual": primal_eq,
        "primal_ub_residual": max(0.0, primal_ub),
        "dual_feasibility": dual_feas,
        "complementarity": compl,
    }
