import json
from dataclasses import replace

import numpy as np
import pytest

from windfreq import collocation as coll
from windfreq import trajopt as to
from windfreq.cli import main
from windfreq.grid import (GovernorSpec, GridParameters, StateSpace, energy_residual,
                           governor_dc_gain_total, rebase_governors)
from windfreq.lp import UnboundedError, solve_lp
from windfreq.presets import load_preset
from windfreq.scenario import scenario_from_dict
from windfreq.simulator import solve_hypothetical

from reference import min_integral_variant, solve_lti_collocation
from test_lp import certificate_failures


def _at_nodes(sc, nodes):
    """The scenario at collocation order ``nodes``."""
    return replace(sc, solver=replace(sc.solver, nodes=nodes))


@pytest.fixture(scope="module")
def grid_k30():
    return coll.make_grid(30, 30.0)


class TestBuildProblem:
    def test_no_governors_matrices(self):
        grid = GridParameters(4.0, 0.0, 50.0, 100.0, 0.5)
        prob = to.build_problem(grid, [], p_d_pu=0.1)
        # the frequency is the only state; the deficit enters through b_ctrl
        np.testing.assert_allclose(prob.a, np.zeros((1, 1)))
        np.testing.assert_allclose(prob.b_ctrl, [1.0 / 8.0])

    def test_single_state_governor_dimension(self, two_machine_problem):
        assert two_machine_problem.n_states == 2
        assert two_machine_problem.gov.order == 1

    def test_frequency_row_couplings(self, two_machine_problem, two_machine_grid):
        a = two_machine_problem.a
        two_h = 2.0 * two_machine_grid.inertia_s
        gov = two_machine_problem.gov
        assert a[0, 0] == pytest.approx((gov.d[0, 0] - two_machine_grid.damping) / two_h)
        assert a[0, 1] == pytest.approx(gov.c[0, 0] / two_h)
        assert a[1, :] == pytest.approx([gov.b[0, 0], gov.a[0, 0]])

    def test_autonomous_response_matches_rk4_oracle(self, two_machine_problem):
        # no turbine action: integrate the built matrices against a hand RK4
        a = two_machine_problem.a
        forcing = -two_machine_problem.p_d * two_machine_problem.b_ctrl
        dt, t_end = 0.001, 10.0
        x = np.zeros(2)
        for _ in range(int(t_end / dt)):
            k1 = a @ x + forcing
            k2 = a @ (x + 0.5 * dt * k1) + forcing
            k3 = a @ (x + 0.5 * dt * k2) + forcing
            k4 = a @ (x + dt * k3) + forcing
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        # matrix-exponential reference via fine collocation on the same LTI
        g = coll.make_grid(40, t_end)
        states, terminal = solve_lti_collocation(a, np.zeros(2), g, forcing)
        assert x == pytest.approx(terminal, abs=1e-8)

    def test_validation(self, two_machine_grid, reheat_g1):
        with pytest.raises(ValueError):
            to.build_problem(two_machine_grid, [reheat_g1], p_d_pu=-0.1)
        with pytest.raises(ValueError, match="disturbance must be positive"):
            to.build_problem(two_machine_grid, [reheat_g1], p_d_pu=0.0)
        with pytest.raises(ValueError):
            to.build_problem(two_machine_grid, [reheat_g1], p_d_pu=0.1, t_f=-1.0)


class TestTranscription:
    def test_row_and_variable_counts(self, two_machine_problem):
        # condensed onto [K controls; nadir]; the n*K node states are eliminated
        # path rows: K nodes + K+1 gap midpoints + the horizon end = 2K + 2
        g = coll.make_grid(10, 30.0)
        lp = to.transcribe(two_machine_problem, g)
        n, k = 2, 10
        assert lp.meta["n_vars"] == k + 1
        assert lp.meta["n_eq_terminal"] == 1
        assert lp.meta["n_states_eliminated"] == n * k
        assert lp.a_eq.shape == (1, k + 1)
        assert lp.meta["n_path_node"] == k
        assert lp.meta["n_ineq"] == 2 * k + 2
        assert lp.a_ub.shape == (2 * k + 2, k + 1)
        assert lp.state_gain.shape == (n * k, k)
        assert lp.state_offset.shape == (n * k,)

    def test_homogeneity_in_disturbance(self, two_machine_grid, reheat_g1, grid_k30):
        sol1, sol2 = (to.extract_solution(to.solve_max_nadir(
            to.build_problem(two_machine_grid, [reheat_g1], p_d), grid_k30))
            for p_d in (0.075, 0.0375))
        assert sol2.nadir_pu / sol1.nadir_pu == pytest.approx(0.5, rel=1e-8)
        assert sol2.alpha == pytest.approx(sol1.alpha, rel=1e-8)
        mask = np.abs(sol1.df_pu) > 1e-6
        ratio = sol2.df_pu[mask] / sol1.df_pu[mask]
        assert np.max(np.abs(ratio - 0.5)) < 1e-6


class TestSolutionCertificates:
    def test_terminal_energy_neutral(self, two_machine_solution):
        assert abs(two_machine_solution.terminal_denergy) <= 1e-8

    def test_nadir_floor_at_nodes(self, two_machine_optimum, two_machine_solution):
        df_nodes = two_machine_optimum.node_states[1:, 0]
        assert np.all(df_nodes >= two_machine_solution.nadir_pu - 1e-9)

    def test_alpha_at_least_one(self, two_machine_solution):
        assert two_machine_solution.alpha >= 1.0

    def test_reported_nadir_is_lp_variable(self, two_machine_problem, grid_k60,
                                           two_machine_optimum, two_machine_solution):
        lp = to.transcribe(two_machine_problem, grid_k60)
        res = solve_lp(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub,
                       active=to.contact_crash(grid_k60))
        # the nadir is the last LP variable, after the K node controls
        assert two_machine_optimum.nadir_pu == res.x[-1]
        assert np.array_equal(two_machine_optimum.u_nodes, res.x[:-1])
        assert two_machine_solution.nadir_pu == two_machine_optimum.nadir_pu

    def test_hold_shape_and_terminal(self, two_machine_solution):
        sol = two_machine_solution
        # terminal frequency pinned at the nadir
        assert abs(sol.terminal_df_pu - sol.nadir_pu) <= 0.01 * abs(sol.nadir_pu)
        # within 2% of the nadir over the final 80% of the horizon
        band = sol.t >= 0.2 * sol.t_f
        dev = np.abs(sol.df_pu[band] - sol.nadir_pu) / abs(sol.nadir_pu)
        assert dev.max() <= 0.02
        # inter-node ringing stays inside the documented allowance
        assert sol.ringing_rel <= 0.005

    def test_energy_identity_quadrature(self, two_machine_solution):
        assert abs(two_machine_solution.eq25_residual) <= 1e-6

    def test_lp_optimality_certificates(self, two_machine_solution):
        d = two_machine_solution.diagnostics
        assert d["primal_eq_residual"] <= 1e-8
        assert d["dual_feasibility"] >= -1e-8
        assert d["complementarity"] <= 1e-8

    def test_reembedded_states_match_forced_collocation(self, two_machine_problem, grid_k60,
                                                        two_machine_optimum,
                                                        two_machine_solution):
        # the node states implied by the optimal controls, solved independently
        prob = two_machine_problem
        u = two_machine_optimum.u_nodes
        forcing = np.outer(u, prob.b_ctrl) - prob.p_d * prob.b_ctrl
        states, terminal = solve_lti_collocation(prob.a, np.zeros(2), grid_k60, forcing)
        embedded = two_machine_optimum.node_states
        assert np.array_equal(embedded[0], np.zeros(2))
        assert np.max(np.abs(embedded[1:] - states)) <= 1e-10
        assert terminal[0] == pytest.approx(two_machine_solution.terminal_df_pu, abs=1e-12)
        # the released energy E' = u, collocated on its own, ends where the
        # interpolated energy trace ends
        _, energy = solve_lti_collocation([[0.0]], [0.0], grid_k60, u[:, None])
        assert energy[0] == pytest.approx(two_machine_solution.terminal_denergy, abs=1e-12)
        assert two_machine_solution.denergy_pu_s[-1] == pytest.approx(energy[0], abs=1e-10)

    def test_eq_residual_certifies_full_dynamics(self, two_machine_problem):
        # controls that break the terminal-energy row must show up in the
        # residual even when the LP's own diagnostics claim zero
        opt = to.solve_max_nadir(two_machine_problem, coll.make_grid(12, 30.0))
        u = opt.u_nodes.copy()
        u[0] += 1e-3
        bad = to.extract_solution(replace(opt, u_nodes=u,
                                          diagnostics={"primal_eq_residual": 0.0}))
        violation = abs(opt.lp.a_eq[0, :-1] @ u - opt.lp.b_eq[0])
        assert violation > 1e-6
        assert bad.diagnostics["primal_eq_residual"] == pytest.approx(violation, rel=1e-6)


class TestRegression:
    """Nadirs of the shipped presets, pinned before the LP was condensed."""

    @pytest.mark.parametrize("preset,nodes,nadir", [
        ("two_machine", 60, -4.946103811337e-03),
        ("multi_machine", 40, -2.919742154929e-03),
    ])
    def test_golden_nadir(self, preset, nodes, nadir):
        sc = scenario_from_dict(load_preset(preset))
        sol = to.extract_solution(solve_hypothetical(_at_nodes(sc, nodes)))
        assert sol.p_d_pu == sc.solver.hypothetical_p_d_pu
        assert sol.nadir_pu == pytest.approx(nadir, rel=1e-9)
        assert sol.diagnostics["primal_eq_residual"] <= 1e-8
        assert sol.diagnostics["primal_ub_residual"] <= 1e-8

    def test_multi_machine_k60_matches_oracle(self, multi_machine_scenario):
        # the uncondensed 12-state LP lost primal feasibility at K = 60
        sc = multi_machine_scenario
        sol = to.extract_solution(solve_hypothetical(_at_nodes(sc, 60)))
        prob = to.build_problem(sc.grid, list(sc.governors),
                                sc.solver.hypothetical_p_d_pu, sc.solver.t_f)
        euler = to.euler_oracle(prob, 3000)
        assert abs(sol.nadir_pu - euler.nadir_pu) / abs(euler.nadir_pu) <= 0.005
        d = sol.diagnostics
        assert d["primal_eq_residual"] <= 1e-8
        assert d["primal_ub_residual"] <= 1e-8
        # frequency and one state per distinct governor dynamics (reheat,
        # hydro, gas) at each of the 60 nodes
        assert d["lp_meta"]["n_states_eliminated"] == 4 * 60

    # phase-1 and phase-2 pivots and nadirs of the LP that carried the
    # released energy as a third kind of state: dropping that state, whose
    # row of the dynamics was zero, must change neither. The cold pins hold
    # for solve_lp without a crash; the pipeline starts phase 2 from the
    # contact crash instead and reaches the same nadir in `warm` pivots.
    @pytest.mark.parametrize("preset,nodes,pivots,nadir,warm", [
        ("two_machine", 10, (23, 33), -0.005085457699909248, 0),
        ("two_machine", 20, (43, 120), -0.00498389115005557, 2),
        ("two_machine", 40, (83, 291), -0.004952940903313898, 4),
        ("two_machine", 60, (123, 479), -0.004946103811336963, 11),
        ("two_machine", 100, (203, 993), -0.004942424883756862, 26),
        ("multi_machine", 10, (23, 27), -0.0029987418871985786, 0),
        ("multi_machine", 20, (43, 118), -0.0029381773459434667, 2),
        ("multi_machine", 40, (83, 230), -0.002919742154928857, 4),
        ("multi_machine", 60, (123, 493), -0.002915674282994506, 11),
        ("multi_machine", 100, (203, 520), -0.00291347935891713, 23),
    ])
    def test_pivots_and_nadir_of_energy_state_lp(self, preset, nodes, pivots, nadir, warm,
                                                 dual_objectives):
        lp, _ = _crash_lp(_crash_plant(preset), nodes)
        cold = _solve(lp)
        d = cold.diagnostics
        assert (d["phase1_pivots"], d["phase2_pivots"]) == pivots
        assert cold.x[-1] == pytest.approx(nadir, rel=1e-14)
        assert not certificate_failures(d)
        sol = solve_hypothetical(_at_nodes(scenario_from_dict(load_preset(preset)), nodes))
        d = sol.diagnostics
        assert (d["warm_start"], d["phase1_pivots"], d["phase2_pivots"]) == ("hit", 0, warm)
        assert sol.nadir_pu == pytest.approx(nadir, rel=1e-14)
        assert not certificate_failures(d)
        ref = _highs(lp)
        for dual in dual_objectives:  # cold, then from the crash
            assert abs(dual - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))


def _single_governor_problem(num, den, inertia_s=4.0):
    grid = GridParameters(inertia_s=inertia_s, damping=1.0, f_base_hz=50.0,
                          s_base_mva=200.0, load_pu=0.75)
    gov = GovernorSpec(name="G", rated_mva=200.0, num=num, den=den)
    return to.build_problem(grid, [gov], p_d_pu=0.075, t_f=30.0)


class TestGovernorProbes:
    """Governors the schema accepts beyond the presets' reheat, hydro and gas units."""

    @pytest.fixture(scope="class")
    def underdamped(self):
        problem = _single_governor_problem((-20.0,), (1.0, 0.4, 1.0))
        return problem, to.euler_oracle(problem, 12000).nadir_pu

    @pytest.mark.parametrize("nodes", [10, 40, 50, 80, 100])
    def test_underdamped_governor_solves(self, underdamped, nodes):
        # the dense tableau lost primal feasibility here at K = 40, 50, 80, 100
        problem, euler_nadir = underdamped
        sol = to.solve_max_nadir(problem, coll.make_grid(nodes, 30.0))
        assert sol.diagnostics["primal_ub_residual"] <= 1e-9
        assert abs(sol.nadir_pu - euler_nadir) / abs(euler_nadir) <= 5.0 / nodes**2

    @pytest.mark.parametrize("nodes", [20, 40, 60])
    def test_non_minimum_phase_governor_is_unbounded(self, nodes):
        # -20 (1 - 2s) / ((1 + 0.2s)(1 + s)): the right-half-plane zero sends the
        # step response above the damping D first, where raising df lowers the
        # energy cost
        problem = _single_governor_problem((40.0, -20.0), (0.2, 1.2, 1.0))
        with pytest.raises(UnboundedError):
            to.solve_max_nadir(problem, coll.make_grid(nodes, 30.0))

    def test_non_minimum_phase_governor_cli_exit_code(self, tmp_path, capsys):
        doc = load_preset("two_machine")
        doc["governors"] = [{"name": "H1", "rated_mva": 200.0, "kind": "transfer_function",
                             "params": {"num": [40.0, -20.0], "den": [0.2, 1.2, 1.0]}}]
        path = tmp_path / "nmp.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")])
        # the sign check of the step-and-hold optimum names the input before
        # any LP runs; the LP alone exited 3 "LP unbounded" here
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: $.governors: ")
        assert "is -22.36 pu at tau = 0.32 s" in err and "$.solver.t_f_s (30.0 s)" in err
        assert not (tmp_path / "o" / "solve_metrics.json").exists()


# both presets, and three transfer-function governors on a grid of inertia 2 s
# and 8 s: underdamped, overdamped second order, and first order
CRASH_PLANTS = ["two_machine", "multi_machine"] + [
    f"{shape}_H{h}" for shape in ("underdamped", "overdamped", "first_order") for h in (2, 8)]
CRASH_DENS = {"underdamped": (1.0, 0.4, 1.0), "overdamped": (0.2, 1.2, 1.0),
              "first_order": (0.1, 1.0)}


def _crash_plant(name):
    if name in ("two_machine", "multi_machine"):
        sc = scenario_from_dict(load_preset(name))
        return to.build_problem(sc.grid, list(sc.governors),
                                sc.solver.hypothetical_p_d_pu, sc.solver.t_f)
    shape, h = name.rsplit("_H", 1)
    return _single_governor_problem((-20.0,), CRASH_DENS[shape], inertia_s=float(h))


@pytest.fixture(scope="module")
def crash_plants():
    return {name: _crash_plant(name) for name in CRASH_PLANTS}


def _crash_lp(problem, nodes):
    grid = coll.make_grid(nodes, problem.t_f)
    return to.transcribe(problem, grid), to.contact_crash(grid)


def _solve(lp, active=None):
    return solve_lp(lp.c, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, active=active)


def _highs(lp):
    """HiGHS' dual simplex on the LP at tolerances 1e-10; skips without scipy."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    ref = linprog(-lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                  bounds=(None, None), method="highs-ds", options=tight)
    assert ref.status == 0
    return ref


class TestContactCrash:
    """solve_max_nadir starts phase 2 from a crash that depends on K alone."""

    @pytest.mark.parametrize("nodes", [10, 11, 31, 40, 63, 100])
    def test_crash_is_a_feasible_start_on_every_plant(self, crash_plants, nodes,
                                                       dual_objectives):
        highs = []
        for name, problem in crash_plants.items():
            lp, active = _crash_lp(problem, nodes)
            warm = _solve(lp, active)
            d = warm.diagnostics
            assert d["warm_start"] == "hit", name
            assert d["phase1_pivots"] == 0 and d["phase2_pivots"] <= 2 * nodes, name
            assert d["primal_ub_residual"] <= 1e-9, name
            assert not certificate_failures(d), name
            highs.append((name, lp, warm.x[-1], dual_objectives[-1]))
            # the cold K = 63 and 100 solves take seconds; K = 63 has its own
            # test below
            if nodes > 40:
                continue
            cold = _solve(lp)
            assert not certificate_failures(cold.diagnostics), name
            if cold.diagnostics["primal_ub_residual"] <= 1e-8:
                assert warm.x[-1] == pytest.approx(cold.x[-1], abs=1e-12), name
        for name, lp, nadir, dual in highs:
            ref = _highs(lp)
            assert nadir == pytest.approx(-ref.fun, abs=1e-9), name
            # the standard form minimizes -nadir, so its dual objective is -nadir too
            assert abs(dual - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), name

    @pytest.mark.xfail(strict=True, reason="known defect, ROADMAP item 3: the simplex "
                       "clips negative basic values and reports an infeasible point optimal")
    @pytest.mark.parametrize("start, nodes", [("crash", 96), ("cold", 30)])
    def test_optimum_is_primal_feasible(self, crash_plants, start, nodes):
        # residuals 1.3e-7 from the crash that solve_max_nadir takes, and
        # 8.6e-7 cold; HiGHS puts the nadirs 1.2e-8 and 1.6e-6 relative away
        problem = crash_plants["underdamped_H2"]
        if start == "crash":
            d = to.solve_max_nadir(problem, coll.make_grid(nodes, problem.t_f)).diagnostics
        else:
            d = _solve(_crash_lp(problem, nodes)[0]).diagnostics
        assert d["primal_ub_residual"] <= 1e-9

    def test_crash_marks_k_contact_rows(self):
        # rows: K nodes, K + 1 midpoints, tau = +1. K = 8: nodes 1, 3 with
        # the following midpoints (tau < 0), nodes 5, 7 with the preceding
        # ones. K = 7: node 3 sits at tau = 0 and takes the preceding
        # midpoint, and the row at tau = +1 completes the count
        active = to.contact_crash(coll.make_grid(8, 30.0))
        assert np.flatnonzero(active).tolist() == [1, 3, 5, 7, 10, 12, 13, 15]
        active = to.contact_crash(coll.make_grid(7, 30.0))
        assert np.flatnonzero(active).tolist() == [1, 3, 5, 9, 10, 12, 15]

    @pytest.mark.parametrize("name", ["two_machine", "underdamped_H2", "first_order_H8"])
    @pytest.mark.parametrize("nodes", [10, 40])
    def test_infeasible_crash_falls_back_to_the_cold_path(self, crash_plants, name, nodes):
        # even-indexed nodes with their midpoints facing tau = 0: K rows,
        # but their vertex violates other path rows
        lp, _ = _crash_lp(crash_plants[name], nodes)
        even = np.arange(0, nodes, 2)
        active = np.zeros(2 * nodes + 2, dtype=bool)
        active[even] = True
        active[nodes + even + (2 * even + 1 < nodes)] = True
        cold = _solve(lp)
        assert cold.diagnostics["warm_start"] == "none"
        for mask in (active, active[:-1]):  # infeasible, then the wrong size
            res = _solve(lp, mask)
            assert res.diagnostics["warm_start"] == "infeasible"
            assert np.array_equal(res.x, cold.x)
            assert res.diagnostics["phase1_pivots"] == cold.diagnostics["phase1_pivots"]
            assert res.diagnostics["phase2_pivots"] == cold.diagnostics["phase2_pivots"]

    @pytest.mark.parametrize("nodes", [63, 64])
    def test_cold_path_does_not_cycle_on_first_order_governor(self, crash_plants, nodes):
        # phase 2 cycles here through Harris' steps of ~1e-11 and below zero;
        # unless those count as stalls, Bland's rule never takes over and the
        # simplex runs to its pivot cap
        lp, active = _crash_lp(crash_plants["first_order_H8"], nodes)
        cold, warm = _solve(lp), _solve(lp, active)
        assert cold.iterations < 2000
        assert cold.x[-1] == pytest.approx(warm.x[-1], abs=1e-12)

    def test_first_order_governor_cli_k63(self, tmp_path, crash_plants):
        doc = load_preset("two_machine")
        doc["grid"]["inertia_s"] = 8.0
        doc["governors"] = [{"name": "G1", "rated_mva": 200.0, "kind": "transfer_function",
                             "params": {"num": [-20.0], "den": [0.1, 1.0]}}]
        path = tmp_path / "first_order.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["solve", "--scenario", str(path), "--nodes", "63", "--out", str(out)]) == 0
        nadir = json.loads((out / "solve_metrics.json").read_text())["nadir_pu"]
        euler = to.euler_oracle(crash_plants["first_order_H8"], 3000).nadir_pu
        assert abs(nadir - euler) / abs(euler) <= 0.005


def _unlumped_problem(sc):
    """``build_problem``'s plant for the scenario with one state per unit.

    The governor block is the block diagonal of the per-unit realizations,
    in unit order, as the aggregation built it before units with the same
    dynamics shared a state.
    """
    gp = sc.grid
    parts = rebase_governors(sc.governors, gp.s_base_mva)
    m = sum(p.order for p in parts)
    a_g, b_g, c_g, d_g = np.zeros((m, m)), np.zeros((m, 1)), np.zeros((1, m)), 0.0
    pos = 0
    for p in parts:
        a_g[pos:pos + p.order, pos:pos + p.order] = p.a
        b_g[pos:pos + p.order] = p.b
        c_g[:, pos:pos + p.order] = p.c
        d_g += float(p.d[0, 0])
        pos += p.order
    two_h = 2.0 * gp.inertia_s
    b_ctrl = np.zeros(m + 1)
    b_ctrl[0] = 1.0 / two_h
    return to.TrajOptProblem(
        a=np.block([[np.array([[(d_g - gp.damping) / two_h]]), c_g / two_h], [b_g, a_g]]),
        b_ctrl=b_ctrl, p_d=sc.solver.hypothetical_p_d_pu, t_f=sc.solver.t_f,
        grid_params=gp, k_g=governor_dc_gain_total(sc.governors, gp.s_base_mva),
        gov=StateSpace(a=a_g, b=b_g, c=c_g, d=[[d_g]]))


class TestLumpedGovernors:
    """One state per distinct governor dynamics gives the per-unit plant's optimum."""

    @pytest.mark.parametrize("nodes", [10, 40, 100])
    def test_lumped_matches_unlumped(self, multi_machine_scenario, nodes):
        lumped = _crash_plant("multi_machine")
        unlumped = _unlumped_problem(multi_machine_scenario)
        assert (lumped.n_states, unlumped.n_states) == (4, 11)
        grid = coll.make_grid(nodes, lumped.t_f)
        one, ref = (to.extract_solution(to.solve_max_nadir(p, grid))
                    for p in (lumped, unlumped))
        assert one.nadir_pu == pytest.approx(ref.nadir_pu, rel=1e-14)
        assert one.alpha == pytest.approx(ref.alpha, rel=1e-14)
        for key in ("warm_start", "phase1_pivots", "phase2_pivots"):
            assert one.diagnostics[key] == ref.diagnostics[key], key
        assert one.diagnostics["lp_meta"]["n_states_eliminated"] == 4 * nodes
        # the traces go through the collocation solve and the interpolation,
        # whose rounding grows with K: 4e-16 pu at K = 100
        for name in ("df_pu", "dpm_pu"):
            assert np.max(np.abs(getattr(one, name) - getattr(ref, name))) <= 1e-14, name


class TestMinIntegralVariant:
    def test_agrees_with_max_nadir(self, two_machine_problem, grid_k60,
                                   two_machine_solution):
        mi = min_integral_variant(two_machine_problem, grid_k60,
                                  nadir_floor=two_machine_solution.nadir_pu)
        rel = abs(mi.nadir_pu - two_machine_solution.nadir_pu) / abs(
            two_machine_solution.nadir_pu)
        assert rel <= 0.005

    def test_terminal_matches_nadir(self, two_machine_problem, grid_k60,
                                    two_machine_solution):
        mi = min_integral_variant(two_machine_problem, grid_k60,
                                  nadir_floor=two_machine_solution.nadir_pu)
        assert abs(mi.terminal_df_pu - mi.nadir_pu) <= 0.01 * abs(mi.nadir_pu)


class TestEulerOracle:
    def test_minimum_steps_enforced(self, two_machine_problem):
        with pytest.raises(ValueError):
            to.euler_oracle(two_machine_problem, 500)

    def test_grid_independence(self, two_machine_problem):
        coarse = to.euler_oracle(two_machine_problem, 1500)
        fine = to.euler_oracle(two_machine_problem, 3000)
        assert abs(fine.nadir_pu - coarse.nadir_pu) / abs(fine.nadir_pu) < 1e-3

    def test_agrees_with_collocation(self, two_machine_solution, two_machine_problem):
        euler = to.euler_oracle(two_machine_problem, 3000)
        rel = abs(two_machine_solution.nadir_pu - euler.nadir_pu) / abs(euler.nadir_pu)
        assert rel <= 0.005


def _non_minimum_phase_problem():
    return _single_governor_problem((40.0, -20.0), (0.2, 1.2, 1.0))


class TestStepHoldOptimum:
    """The closed-form optimum of the program that the LP transcribes."""

    @pytest.mark.parametrize("preset,nadir,alpha", [
        ("two_machine", -4.940290e-3, 1.185669),
        ("multi_machine", -2.912205e-3, 1.305396),
    ])
    def test_presets_against_scalar_step_responses(self, crash_plants, preset, nadir, alpha):
        # every preset group is first order, so A_g is diagonal and
        # S_g(t_f) = sum c b / a (expm1(a t_f) / a - t_f) + D t_f
        problem = crash_plants[preset]
        gov, t_f = problem.gov, problem.t_f
        a = np.diag(gov.a)
        assert np.array_equal(gov.a, np.diag(a))
        s_g = float(np.sum(gov.c[0] * gov.b[:, 0] / a * (np.expm1(a * t_f) / a - t_f))
                    + gov.d[0, 0] * t_f)
        opt = to.step_hold_optimum(problem)
        assert opt.s_g == pytest.approx(s_g, rel=1e-13)
        assert opt.nadir_pu == pytest.approx(nadir, rel=1e-6)
        assert opt.alpha == pytest.approx(alpha, rel=1e-6)
        # the step response only falls from D_g, so w is least at tau = 0
        assert opt.min_w == pytest.approx(problem.grid_params.damping - gov.d[0, 0], rel=1e-14)
        assert opt.tau_min_w_s == 0.0

    @pytest.mark.parametrize("name", CRASH_PLANTS + ["non_minimum_phase"])
    def test_s_g_against_collocation_and_scipy(self, crash_plants, name):
        problem = (_non_minimum_phase_problem() if name == "non_minimum_phase"
                   else crash_plants[name])
        s_g = to.step_hold_optimum(problem).s_g
        # [x_g; S_g]' = [[A, 0], [C, 0]] [x_g; S_g] + [B; D] from zero: the
        # step response is smooth, so Gauss collocation is spectral on it
        gov = problem.gov
        n = gov.order
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = gov.a
        aug[n, :n] = gov.c[0]
        forcing = np.append(gov.b[:, 0], gov.d[0, 0])
        _, terminal = solve_lti_collocation(aug, np.zeros(n + 1),
                                                 coll.make_grid(100, problem.t_f), forcing)
        assert s_g == pytest.approx(terminal[-1], rel=1e-12)
        expm = pytest.importorskip("scipy.linalg").expm
        m = np.zeros((n + 2, n + 2))
        m[:n + 1, :n] = aug[:, :n]
        m[:n + 1, -1] = forcing
        assert to._expm(m * problem.t_f) == pytest.approx(
            expm(m * problem.t_f), rel=1e-13, abs=1e-13 * abs(s_g))
        assert s_g == pytest.approx(expm(m * problem.t_f)[n, -1], rel=1e-13)

    @pytest.mark.parametrize("name", CRASH_PLANTS)
    def test_energy_identity_holds(self, crash_plants, name):
        # the held trajectory has S = nadir t_f and E_m = nadir S_g(t_f)
        problem = crash_plants[name]
        opt = to.step_hold_optimum(problem)
        nadir, t_f, p_d = opt.nadir_pu, problem.t_f, problem.p_d
        residual = energy_residual(problem.grid_params, nadir, nadir * t_f, nadir * opt.s_g,
                                   p_d, t_f)
        assert abs(residual) <= 1e-15 * p_d * t_f

    @pytest.mark.parametrize("preset", ["two_machine", "multi_machine"])
    @pytest.mark.parametrize("nodes", [20, 40, 60, 100])
    def test_lp_converges_at_second_order(self, crash_plants, preset, nodes):
        # the optimum jumps at t = 0+, which polynomials cannot follow: the
        # gap falls as K^-2 (gap K^2 reads 3.5 to 4.4 here), not spectrally
        problem = crash_plants[preset]
        exact = to.step_hold_optimum(problem).nadir_pu
        sol = to.solve_max_nadir(problem, coll.make_grid(nodes, problem.t_f))
        assert sol.nadir_pu < exact
        assert abs(sol.nadir_pu - exact) / abs(exact) <= 5.0 / nodes**2

    @pytest.mark.parametrize("preset", ["two_machine", "multi_machine"])
    def test_euler_converges_at_first_order(self, crash_plants, preset):
        problem = crash_plants[preset]
        exact = to.step_hold_optimum(problem).nadir_pu
        gap = [abs(to.euler_oracle(problem, n).nadir_pu - exact) / abs(exact)
               for n in (3000, 12000)]
        assert gap[0] <= 5e-4
        assert gap[0] / gap[1] == pytest.approx(4.0, rel=0.02)

    def test_alpha_does_not_depend_on_the_deficit(self, two_machine_grid, reheat_g1):
        opts = [to.step_hold_optimum(to.build_problem(two_machine_grid, [reheat_g1], p_d))
                for p_d in (0.01, 0.075, 0.3)]
        assert opts[0].alpha == opts[1].alpha == opts[2].alpha
        assert opts[2].nadir_pu / opts[0].nadir_pu == pytest.approx(30.0, rel=1e-14)

    def test_non_minimum_phase_governor(self):
        # the step response rises above D first: w = D - s_g is negative
        problem = _non_minimum_phase_problem()
        opt = to.step_hold_optimum(problem)
        assert opt.min_w == pytest.approx(-22.36, abs=0.01)
        assert opt.tau_min_w_s == pytest.approx(0.32)
        with pytest.raises(UnboundedError, match="Euler program unbounded"):
            to.euler_oracle(problem, 3000)
