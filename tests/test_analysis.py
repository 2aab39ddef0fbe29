import numpy as np
import pytest

from windfreq import trajopt as to
from windfreq.analysis import energy_identity, theorem_checks
from windfreq.simulator import compare_strategies


class TestEnergyIdentity:
    def test_zero_trace(self, two_machine_grid):
        t = np.linspace(0.0, 30.0, 3001)
        z = np.zeros_like(t)
        assert energy_identity(t, z, z, two_machine_grid, 0.0) == 0.0

    def test_optimal_solution_residual(self, two_machine_solution, two_machine_grid):
        t = np.arange(0.0, 30.0 + 5e-4, 1e-3)
        df = two_machine_solution.df_at(t)
        dpm = two_machine_solution.dpm_at(t)
        res = energy_identity(t, df, dpm, two_machine_grid, 0.075)
        assert abs(res) <= 1e-6

    def test_injected_energy_violation_shows_up(self, two_machine_solution,
                                                two_machine_grid):
        # adding a constant to the turbine power leaves a net energy exchange
        # equal to offset * t_f; the identity residual exposes exactly -offset*t_f
        t = np.arange(0.0, 30.0 + 5e-4, 1e-3)
        df = np.asarray(two_machine_solution.df_at(t))
        dpm = np.asarray(two_machine_solution.dpm_at(t))
        offset = 2e-3
        # the residual is linear in the deficit: understating P_d by a constant
        # is the same trace with a net energy exchange of -offset * t_f
        res = energy_identity(t, df, dpm, two_machine_grid, 0.075 - offset)
        assert res == pytest.approx(-offset * 30.0, rel=1e-4)

    def test_scaling_linearity(self, two_machine_solution, two_machine_grid):
        t = np.arange(0.0, 30.0 + 5e-4, 1e-3)
        df = np.asarray(two_machine_solution.df_at(t))
        dpm = np.asarray(two_machine_solution.dpm_at(t))
        kappa = 0.37
        r1 = energy_identity(t, df, dpm, two_machine_grid, 0.075)
        r2 = energy_identity(t, kappa * df, kappa * dpm, two_machine_grid,
                             kappa * 0.075)
        assert r2 == pytest.approx(kappa * r1, abs=1e-9)

    def test_missing_trace_rejected(self, two_machine_grid):
        t = np.linspace(0.0, 30.0, 301)
        with pytest.raises(ValueError):
            energy_identity(t, np.zeros_like(t), None, two_machine_grid, 0.1)
        with pytest.raises(ValueError):
            energy_identity(t, np.zeros_like(t), np.zeros(5), two_machine_grid, 0.1)


class TestTheoremChecks:
    def test_optimal_solution_passes_all(self, two_machine_solution, two_machine_grid,
                                         two_machine_problem, grid_k60):
        mi = to.min_integral_variant(two_machine_problem, grid_k60,
                                     nadir_floor=two_machine_solution.nadir_pu)
        report = theorem_checks(two_machine_solution, two_machine_grid,
                                min_integral_solution=mi)
        assert report.violations == []
        assert report.terminal_gap_rel <= 0.01
        assert abs(report.identity_residual) <= 1e-6
        assert report.min_integral_gap_rel <= 0.005

    def test_vic_trace_fails_terminal_property(self, two_machine_scenario,
                                               two_machine_grid):
        out = compare_strategies(two_machine_scenario, ("classic_vic",))
        res, _rec = out["classic_vic"]
        # package the simulated trace as a pseudo-solution over the full run
        sol = to.TrajectorySolution(
            t=res.t, df_pu=res.df_pu, dpe_pu=res.dpe_pu,
            denergy_pu_s=np.zeros(res.t.size), dpm_pu=res.dpm_pu,
            nadir_pu=float(res.df_pu.min()), ss_deviation_pu=0.0,
            terminal_df_pu=float(res.df_pu[-1]),
            terminal_denergy=0.0, s_quad=0.0, em_quad=0.0, eq25_residual=0.0,
            ringing_rel=0.0, p_d_pu=0.075, t_f=float(res.t[-1]), f_base_hz=50.0,
            method="sim")
        report = theorem_checks(sol, two_machine_grid)
        # a fixed-gain response dips below where it settles
        assert report.terminal_gap_rel > 0.01
        assert any("terminal" in v for v in report.violations)
