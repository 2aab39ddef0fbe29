"""Dense two-phase simplex solver for the transcribed trajectory programs.

The solver operates on the classic full tableau. Entering columns follow
Dantzig's rule (most negative reduced cost, lowest index on ties) and fall
back to Bland's rule after a run of degenerate pivots, which keeps the method
anti-cycling while staying fully deterministic. All decision variables are
free and get split into positive/negative parts internally.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LpResult", "solve_lp", "InfeasibleError", "UnboundedError"]

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2


class InfeasibleError(RuntimeError):
    """The constraint set admits no solution."""


class UnboundedError(RuntimeError):
    """The objective is unbounded over the feasible set."""


@dataclass
class LpResult:
    x: np.ndarray
    objective: float
    iterations: int
    status: str = "optimal"
    diagnostics: dict = field(default_factory=dict)


def _simplex_run(tableau, basis, n_enterable, tol, max_iter, bland_after,
                 streak_in, bland_left_in):
    """Pivot until optimal. Returns (status, iterations, streak, bland_left).

    Mutates the tableau and basis in place. Dantzig entering with a
    largest-pivot leaving rule is the numerically stable default; a long run
    of degenerate pivots triggers a bounded burst of Bland's rule to break
    cycles, after which the stable rule resumes. State is threaded through so
    chunked runs behave like one long run.
    """
    m = tableau.shape[0] - 1
    iterations = 0
    degenerate_streak = streak_in
    bland_left = bland_left_in
    marked = np.zeros(n_enterable, dtype=np.bool_)
    while iterations < max_iter:
        use_bland = bland_left > 0
        cost = tableau[m, :n_enterable]

        # entering candidates in rule order; columns whose best available
        # pivot is small against the column scale get passed over while a
        # cleaner improving column exists
        q = -1
        marked[:] = False
        for _attempt in range(8):
            cand = -1
            if use_bland:
                for j in range(n_enterable):
                    if cost[j] < -tol and not marked[j]:
                        cand = j
                        break
            else:
                best = -tol
                for j in range(n_enterable):
                    if cost[j] < best and not marked[j]:
                        best = cost[j]
                        cand = j
            if cand < 0:
                break
            col_max = 0.0
            for i in range(m):
                a = abs(tableau[i, cand])
                if a > col_max:
                    col_max = a
            good = False
            for i in range(m):
                if tableau[i, cand] > 1e-4 * col_max and tableau[i, cand] > tol:
                    good = True
                    break
            if good:
                q = cand
                break
            marked[cand] = True
            if q < 0:
                q = cand  # remember the first candidate as the fallback
        if q < 0:
            return STATUS_OPTIMAL, iterations, degenerate_streak, bland_left

        # pivot elements far below the column scale are numerically unusable;
        # fall back to any entry above the hard tolerance before declaring a ray
        col_max = 0.0
        for i in range(m):
            a = abs(tableau[i, q])
            if a > col_max:
                col_max = a
        piv_tol = max(tol, 1e-7 * col_max)

        best_ratio = np.inf
        for i in range(m):
            a_iq = tableau[i, q]
            if a_iq > piv_tol:
                ratio = tableau[i, -1] / a_iq
                if ratio < best_ratio:
                    best_ratio = ratio
        if best_ratio == np.inf:
            piv_tol = tol
            for i in range(m):
                a_iq = tableau[i, q]
                if a_iq > piv_tol:
                    ratio = tableau[i, -1] / a_iq
                    if ratio < best_ratio:
                        best_ratio = ratio
            if best_ratio == np.inf:
                return STATUS_UNBOUNDED, iterations, degenerate_streak, bland_left

        # among near-ties take the largest pivot element for stability
        # (Bland burst: smallest basis index, the classic anti-cycling rule)
        ratio_band = best_ratio + 1e-9 * (1.0 + abs(best_ratio))
        p = -1
        best_piv = 0.0
        for i in range(m):
            a_iq = tableau[i, q]
            if a_iq > piv_tol and tableau[i, -1] / a_iq <= ratio_band:
                if use_bland:
                    if p < 0 or basis[i] < basis[p]:
                        p = i
                elif a_iq > best_piv:
                    best_piv = a_iq
                    p = i

        if tableau[p, -1] <= tol:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        if bland_left > 0:
            bland_left -= 1
        elif degenerate_streak > bland_after:
            bland_left = 64
            degenerate_streak = 0

        _pivot(tableau, basis, p, q)
        iterations += 1
    return STATUS_ITER_LIMIT, iterations, degenerate_streak, bland_left


def _pivot(tableau, basis, p, q):
    """Pivot on (p, q): column q enters the basis in row p."""
    piv = tableau[p, q]
    tableau[p, :] /= piv
    col = tableau[:, q].copy()
    col[p] = 0.0
    tableau -= np.outer(col, tableau[p, :])
    tableau[:, q] = 0.0
    tableau[p, q] = 1.0
    basis[p] = q


def _rebuild_tableau(a_cur, b_cur, c_cur, basis):
    """Reinversion: recompute the canonical tableau for the given basis.

    Bounds the error a long pivot sequence accumulates in the dense tableau.
    """
    m = a_cur.shape[0]
    b_mat = a_cur[:, basis]
    try:
        body = np.linalg.solve(b_mat, a_cur)
        rhs = np.linalg.solve(b_mat, b_cur)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular working basis during reinversion: {exc}") from exc
    if np.min(rhs) < -1e-6:
        raise RuntimeError(
            f"basis lost primal feasibility during reinversion (min rhs {np.min(rhs):.3e})"
        )
    np.clip(rhs, 0.0, None, out=rhs)
    tableau = np.empty((m + 1, a_cur.shape[1] + 1))
    tableau[:m, :-1] = body
    tableau[:m, -1] = rhs
    c_b = c_cur[basis]
    tableau[m, :-1] = c_cur - c_b @ body
    tableau[m, -1] = -(c_b @ rhs)
    return tableau


def _run_with_refresh(tableau, basis, a_cur, b_cur, c_cur, n_enterable,
                      tol, max_iter, bland_after, refresh_every, counts):
    """Chunked pivoting with periodic reinversion. Returns (status, iters, tableau).

    Adds every tableau rebuild from the working basis to
    ``counts["reinversions"]``.
    """
    total = 0
    streak = 0
    bland_left = 0
    ray_retries = 0
    while True:
        chunk = min(refresh_every, max_iter - total)
        if chunk <= 0:
            return STATUS_ITER_LIMIT, total, tableau
        status, it, streak, bland_left = _simplex_run(
            tableau, basis, n_enterable, tol, chunk, bland_after, streak, bland_left)
        total += it
        if status == STATUS_UNBOUNDED:
            # verify the ray on a freshly rebuilt tableau before believing it
            ray_retries += 1
            if ray_retries > 3:
                return status, total, tableau
            tableau = _rebuild_tableau(a_cur, b_cur, c_cur, basis)
            counts["reinversions"] += 1
            bland_left = 64
            continue
        if status == STATUS_OPTIMAL:
            # re-derive the final tableau so the answer comes from a fresh basis
            tableau = _rebuild_tableau(a_cur, b_cur, c_cur, basis)
            counts["reinversions"] += 1
            # roundoff may re-open a cost entry; resume if the fresh view disagrees
            if np.min(tableau[-1, :n_enterable]) >= -1e-9:
                return status, total, tableau
            continue
        if total >= max_iter:
            return STATUS_ITER_LIMIT, total, tableau
        tableau = _rebuild_tableau(a_cur, b_cur, c_cur, basis)
        counts["reinversions"] += 1


def _solve_standard(a_std, b_std, c_std, slack_of_row, tol, max_iter,
                    bland_after, counts, refresh_every=200):
    """min c'x s.t. a_std x = b_std, x >= 0, by the two-phase tableau method.

    Rows whose slack column survives sign normalization seed the starting
    basis directly; only the rest receive artificial variables. Pivots per
    phase and reinversions are recorded in ``counts``.
    """
    m, n = a_std.shape
    a = a_std.copy()
    b = b_std.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    basis = np.empty(m, dtype=np.int64)
    art_rows = []
    for i in range(m):
        j = slack_of_row[i]
        if j >= 0 and a[i, j] > 0.5:
            basis[i] = j
        else:
            art_rows.append(i)
    n_art = len(art_rows)
    a_full = np.zeros((m, n + n_art))
    a_full[:, :n] = a
    c_phase1 = np.zeros(n + n_art)
    for k, i in enumerate(art_rows):
        a_full[i, n + k] = 1.0
        basis[i] = n + k
        c_phase1[n + k] = 1.0

    tableau = _rebuild_tableau(a_full, b, c_phase1, basis)
    status, it1, tableau = _run_with_refresh(
        tableau, basis, a_full, b, c_phase1, n, tol, max_iter, bland_after,
        refresh_every, counts)
    counts["phase1_pivots"] = it1
    if status == STATUS_ITER_LIMIT:
        return None, "iteration_limit", it1, basis, tableau, n
    if status == STATUS_UNBOUNDED:
        raise RuntimeError("phase-1 simplex lost feasibility (numerical breakdown)")
    phase1_obj = -tableau[m, -1]
    if phase1_obj > 1e-7:
        return None, "infeasible", it1, basis, tableau, n

    # drive leftover artificials out of the basis; fully redundant rows go away
    # (a basic artificial left in place could drift off zero during phase 2)
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            row = tableau[i, :n]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > 1e-8:
                _pivot(tableau, basis, i, j)
            else:
                drop_rows.append(i)
    if drop_rows:
        keep = np.setdiff1d(np.arange(m), drop_rows)
        basis = basis[keep]
        m = keep.size
        a_full = a_full[keep]
        a = a[keep]
        b = b[keep]

    # artificial columns have served their purpose
    tableau = _rebuild_tableau(a, b, c_std, basis)
    status, it2, tableau = _run_with_refresh(
        tableau, basis, a, b, c_std, n, tol, max_iter, bland_after, refresh_every,
        counts)
    counts["phase2_pivots"] = it2
    if status == STATUS_UNBOUNDED:
        return None, "unbounded", it1 + it2, basis, tableau, n
    if status == STATUS_ITER_LIMIT:
        return None, "iteration_limit", it1 + it2, basis, tableau, n

    x = np.zeros(n)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    return x, "optimal", it1 + it2, basis, tableau, n


def solve_lp(
    c,
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
    maximize=False,
    nonneg=None,
    tol=1e-10,
    max_iter=200000,
    bland_after=300,
) -> LpResult:
    """Solve min (or max) c'v subject to a_eq v = b_eq and a_ub v <= b_ub.

    Variables are free unless flagged in the ``nonneg`` boolean mask; free
    variables get split into nonnegative pairs and inequality rows receive
    slacks. Raises InfeasibleError / UnboundedError on those outcomes.

    Besides the optimality certificates, ``diagnostics`` reports the pivots
    of each phase, the tableau reinversions, and ``retried``: whether a
    numerical breakdown forced the second attempt with reinversion every 50
    pivots. The counts describe the attempt that produced the answer.
    """
    c = np.asarray(c, dtype=float)
    nv = c.size
    a_eq = np.zeros((0, nv)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    a_ub = np.zeros((0, nv)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    if not (np.all(np.isfinite(a_eq)) and np.all(np.isfinite(a_ub))
            and np.all(np.isfinite(b_eq)) and np.all(np.isfinite(b_ub)) and np.all(np.isfinite(c))):
        raise ValueError("LP data must be finite")
    nonneg = np.zeros(nv, dtype=bool) if nonneg is None else np.asarray(nonneg, dtype=bool)

    obj = -c if maximize else c
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub

    # column layout: one column per variable, plus a negated copy of the free ones
    free_idx = np.nonzero(~nonneg)[0]
    n_struct = nv + free_idx.size + m_ub
    a_var = np.vstack([a_eq, a_ub]) if m else np.zeros((0, nv))
    a_std = np.zeros((m, n_struct))
    a_std[:, :nv] = a_var
    a_std[:, nv:nv + free_idx.size] = -a_var[:, free_idx]
    a_std[m_eq:, nv + free_idx.size:] = np.eye(m_ub)
    b_std = np.concatenate([b_eq, b_ub])
    c_std = np.zeros(n_struct)
    c_std[:nv] = obj
    c_std[nv:nv + free_idx.size] = -obj[free_idx]

    # row+column equilibration: scale-free for the solution, kinder to pivoting
    if m:
        row_scale = np.maximum(np.max(np.abs(a_std), axis=1), 1e-30)
        a_scaled = a_std / row_scale[:, None]
        b_scaled = b_std / row_scale
        col_scale = np.maximum(np.max(np.abs(a_scaled), axis=0), 1e-12)
        a_scaled = a_scaled / col_scale
        c_scaled = c_std / col_scale
    else:
        a_scaled, b_scaled, c_scaled = a_std, b_std, c_std
        col_scale = np.ones(n_struct)

    slack_of_row = np.full(m, -1, dtype=np.int64)
    for i in range(m_ub):
        slack_of_row[m_eq + i] = nv + free_idx.size + i

    counts = {"phase1_pivots": 0, "phase2_pivots": 0, "reinversions": 0}
    retried = False
    try:
        x_solved, status, iterations, basis, tableau, n_cols = _solve_standard(
            a_scaled, b_scaled, c_scaled, slack_of_row, tol, max_iter, bland_after,
            counts,
        )
    except RuntimeError:
        # numerical breakdown: retry once with much more frequent reinversion
        retried = True
        counts = {"phase1_pivots": 0, "phase2_pivots": 0, "reinversions": 0}
        x_solved, status, iterations, basis, tableau, n_cols = _solve_standard(
            a_scaled, b_scaled, c_scaled, slack_of_row, tol, max_iter, bland_after,
            counts, refresh_every=50,
        )
    x_std = x_solved / col_scale if x_solved is not None else None
    if status == "infeasible":
        raise InfeasibleError(
            f"LP infeasible: phase-1 objective {-tableau[-1, -1]:.3e} > 0 after {iterations} pivots"
        )
    if status == "unbounded":
        raise UnboundedError(f"LP unbounded after {iterations} pivots")
    if status == "iteration_limit":
        raise RuntimeError(f"simplex iteration limit reached ({iterations})")

    x = x_std[:nv].copy()
    x[free_idx] -= x_std[nv:nv + free_idx.size]
    objective = float(c @ x)

    diag = _diagnostics(a_std, b_std, c_std, x_std, basis, x, a_eq, b_eq, a_ub, b_ub)
    diag["iterations"] = iterations
    diag.update(counts, retried=retried)
    return LpResult(x=x, objective=objective, iterations=iterations, diagnostics=diag)


def _diagnostics(a_std, b_std, c_std, x_std, basis, x, a_eq, b_eq, a_ub, b_ub):
    """Optimality certificates on the original (unscaled) data."""
    m = a_std.shape[0]
    primal_eq = float(np.max(np.abs(a_eq @ x - b_eq))) if b_eq.size else 0.0
    primal_ub = float(np.max(a_ub @ x - b_ub)) if b_ub.size else 0.0

    # duals from the final basis (redundant rows may have been dropped,
    # leaving a rectangular basis matrix -> least squares)
    b_mat = a_std[:, basis]
    c_b = c_std[basis]
    try:
        y = np.linalg.lstsq(b_mat.T, c_b, rcond=None)[0]
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
