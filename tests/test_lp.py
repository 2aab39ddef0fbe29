import itertools

import numpy as np
import pytest

from windfreq import lp as lp_mod
from windfreq.cli import main
from windfreq.lp import InfeasibleError, SimplexError, UnboundedError, solve_lp


def test_single_bound():
    res = solve_lp(np.array([1.0]), a_ub=[[1.0]], b_ub=[3.0])
    assert res.x[0] == pytest.approx(3.0)
    assert res.objective == pytest.approx(3.0)


def test_deterministic_repeat():
    rng = np.random.default_rng(11)
    a_ub = rng.normal(size=(8, 4))
    b_ub = rng.uniform(1.0, 2.0, size=8)
    c = rng.normal(size=4)
    first = solve_lp(-c, a_ub=np.vstack([a_ub, np.eye(4), -np.eye(4)]),
                     b_ub=np.concatenate([b_ub, np.full(8, 5.0)]))
    second = solve_lp(-c, a_ub=np.vstack([a_ub, np.eye(4), -np.eye(4)]),
                      b_ub=np.concatenate([b_ub, np.full(8, 5.0)]))
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def test_infeasible_reported():
    with pytest.raises(InfeasibleError):
        solve_lp(np.array([1.0]), a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0])


def test_unbounded_reported():
    with pytest.raises(UnboundedError):
        solve_lp(np.array([1.0]), a_ub=[[-1.0]], b_ub=[0.0])


def test_equality_and_nonneg():
    # min x0 + x1, that is max -(x0 + x1), s.t. x0 + 2 x1 = 4, x >= 0  -> x = (0, 2)
    res = solve_lp(-np.array([1.0, 1.0]), a_eq=[[1.0, 2.0]], b_eq=[4.0],
                   a_ub=-np.eye(2), b_ub=np.zeros(2))
    assert res.x == pytest.approx([0.0, 2.0], abs=1e-12)


def _vertex_enumeration_optimum(c, a_ub, b_ub):
    """Best objective over all basic feasible points of a_ub x <= b_ub."""
    m, n = a_ub.shape
    best = None
    for rows in itertools.combinations(range(m), n):
        sub = a_ub[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, b_ub[list(rows)])
        if np.all(a_ub @ x <= b_ub + 1e-9):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


@pytest.mark.parametrize("seed", range(8))
def test_random_lps_match_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n + 1, 9))
    a_ub = rng.normal(size=(m, n))
    b_ub = rng.uniform(0.5, 2.0, size=m)      # origin feasible
    box = np.vstack([np.eye(n), -np.eye(n)])  # keep the polytope bounded
    a_full = np.vstack([a_ub, box])
    b_full = np.concatenate([b_ub, np.full(2 * n, 4.0)])
    c = rng.normal(size=n)
    res = solve_lp(c, a_ub=a_full, b_ub=b_full)
    expected = _vertex_enumeration_optimum(c, a_full, b_full)
    assert res.objective == pytest.approx(expected, abs=1e-9)
    assert np.all(a_full @ res.x <= b_full + 1e-9)


def test_degenerate_ties_resolve_consistently():
    # square pyramid: four faces meet the optimum vertex (degenerate)
    a_ub = np.array([
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0],
        [-1.0, -1.0, 1.0],
        [0.0, 0.0, -1.0],
    ])
    b_ub = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])
    runs = [solve_lp(c, a_ub=a_ub, b_ub=b_ub) for _ in range(3)]
    for res in runs:
        assert res.objective == pytest.approx(1.0, abs=1e-10)
        assert np.array_equal(res.x, runs[0].x)


def test_optimality_certificates():
    rng = np.random.default_rng(42)
    a_ub = np.vstack([rng.normal(size=(6, 3)), np.eye(3), -np.eye(3)])
    b_ub = np.concatenate([rng.uniform(1.0, 3.0, size=6), np.full(6, 5.0)])
    c = rng.normal(size=3)
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
    d = res.diagnostics
    assert d["primal_ub_residual"] <= 1e-9
    assert d["dual_feasibility"] >= -1e-8
    assert d["complementarity"] <= 1e-8


def test_pivot_telemetry():
    # x0 + 2 x1 = 4 has no slack to seed the basis, so phase 1 must pivot
    res = solve_lp(-np.array([1.0, 1.0]), a_eq=[[1.0, 2.0]], b_eq=[4.0],
                   a_ub=-np.eye(2), b_ub=np.zeros(2))
    d = res.diagnostics
    assert d["phase1_pivots"] >= 1
    assert d["phase1_pivots"] + d["phase2_pivots"] == res.iterations == d["iterations"]


def test_pivot_cap_is_a_named_error(monkeypatch, tmp_path, capsys):
    # each of the two free variables must enter the basis: two pivots
    monkeypatch.setattr(lp_mod, "MAX_PIVOTS", 1)
    with pytest.raises(SimplexError, match="pivot cap"):
        solve_lp(np.array([1.0, 1.0]), a_ub=np.eye(2), b_ub=[1.0, 1.0])
    # the contact crash leaves phase 2 four pivots at K = 40
    rc = main(["solve", "--preset", "two_machine", "--nodes", "40", "--out", str(tmp_path)])
    assert rc == 3
    assert "pivot cap" in capsys.readouterr().err


def test_crash_basis_start():
    # max x0 + x1 s.t. x0 <= 1, x1 <= 1, x0 + x1 <= 3: the crash on the first
    # two rows is the optimal vertex (1, 1)
    c, a_ub, b_ub = [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 3.0]
    cold = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
    assert cold.diagnostics["warm_start"] == "none"
    hit = solve_lp(c, a_ub=a_ub, b_ub=b_ub, active=[True, True, False])
    assert (hit.diagnostics["warm_start"], hit.iterations) == ("hit", 0)
    assert hit.x == pytest.approx([1.0, 1.0], abs=1e-15)
    # (1, 2) violates x1 <= 1; a wrong count and a wrong size are no basis
    for active in ([True, False, True], [True, False, False], [True, True]):
        miss = solve_lp(c, a_ub=a_ub, b_ub=b_ub, active=active)
        assert miss.diagnostics["warm_start"] == "infeasible"
        assert np.array_equal(miss.x, cold.x) and miss.iterations == cold.iterations
    # parallel rows are singular
    miss = solve_lp(c, a_ub=[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 2.0, 1.0],
                    active=[True, True, False])
    assert miss.diagnostics["warm_start"] == "infeasible"
    # a variable at a negative value enters by its negated copy
    neg = solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[2.0], active=[True])
    assert (neg.diagnostics["warm_start"], neg.iterations) == ("hit", 0)
    assert neg.x == pytest.approx([-2.0])


def test_redundant_equality_row_dropped():
    # the second row doubles the first, so its artificial cannot leave the
    # basis at the end of phase 1 and the row goes away
    res = solve_lp(-np.array([1.0, 2.0]), a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 4.0],
                   a_ub=-np.eye(2), b_ub=np.zeros(2))
    assert res.x == pytest.approx([2.0, 0.0], abs=1e-12)
    assert res.diagnostics["primal_eq_residual"] <= 1e-12
