import numpy as np
import pytest

from windfreq.simulator import compare_strategies

from reference import energy_identity, min_integral_variant, node_trace, theorem_checks

FINE_T = np.arange(0.0, 30.0 + 5e-4, 1e-3)  # the two-machine horizon at 1 ms


class TestEnergyIdentity:
    def test_zero_trace(self, two_machine_grid):
        t = np.linspace(0.0, 30.0, 3001)
        z = np.zeros_like(t)
        assert energy_identity(t, z, z, two_machine_grid, 0.0) == 0.0

    def test_optimal_solution_residual(self, two_machine_optimum, two_machine_grid):
        df, dpm = node_trace(two_machine_optimum, FINE_T)
        res = energy_identity(FINE_T, df, dpm, two_machine_grid, 0.075)
        assert abs(res) <= 1e-6

    def test_injected_energy_violation_shows_up(self, two_machine_optimum,
                                                two_machine_grid):
        # adding a constant to the turbine power leaves a net energy exchange
        # equal to offset * t_f; the identity residual exposes exactly -offset*t_f
        df, dpm = node_trace(two_machine_optimum, FINE_T)
        offset = 2e-3
        # the residual is linear in the deficit: understating P_d by a constant
        # is the same trace with a net energy exchange of -offset * t_f
        res = energy_identity(FINE_T, df, dpm, two_machine_grid, 0.075 - offset)
        assert res == pytest.approx(-offset * 30.0, rel=1e-4)

    def test_scaling_linearity(self, two_machine_optimum, two_machine_grid):
        df, dpm = node_trace(two_machine_optimum, FINE_T)
        kappa = 0.37
        r1 = energy_identity(FINE_T, df, dpm, two_machine_grid, 0.075)
        r2 = energy_identity(FINE_T, kappa * df, kappa * dpm, two_machine_grid,
                             kappa * 0.075)
        assert r2 == pytest.approx(kappa * r1, abs=1e-9)

    def test_missing_trace_rejected(self, two_machine_grid):
        t = np.linspace(0.0, 30.0, 301)
        with pytest.raises(ValueError):
            energy_identity(t, np.zeros_like(t), None, two_machine_grid, 0.1)
        with pytest.raises(ValueError):
            energy_identity(t, np.zeros_like(t), np.zeros(5), two_machine_grid, 0.1)


class TestTheoremChecks:
    def test_optimal_solution_passes_all(self, two_machine_optimum, two_machine_solution,
                                         two_machine_grid, two_machine_problem, grid_k60):
        sol = two_machine_solution
        mi = min_integral_variant(two_machine_problem, grid_k60, nadir_floor=sol.nadir_pu)
        report = theorem_checks(FINE_T, *node_trace(two_machine_optimum, FINE_T),
                                two_machine_grid, sol.p_d_pu, sol.nadir_pu,
                                sol.terminal_df_pu, min_integral_nadir_pu=mi.nadir_pu)
        assert report.violations == []
        assert report.terminal_gap_rel <= 0.01
        assert abs(report.identity_residual) <= 1e-6
        assert report.min_integral_gap_rel <= 0.005

    def test_vic_trace_fails_terminal_property(self, two_machine_scenario,
                                               two_machine_grid):
        out = compare_strategies(two_machine_scenario, ("classic_vic",))
        res, _rec = out["classic_vic"]
        # the simulated trace over the full run, at its own steps
        report = theorem_checks(res.t, res.df_pu, res.dpm_pu, two_machine_grid, 0.075,
                                float(res.df_pu.min()), float(res.df_pu[-1]))
        # a fixed-gain response dips below where it settles
        assert report.terminal_gap_rel > 0.01
        assert any("terminal" in v for v in report.violations)
