import math
from dataclasses import replace

import numpy as np
import pytest

from windfreq.aapc import BaselineVic, allocate, check_exit, exit_gamma, exit_power, synthesize
from windfreq.grid import GovernorSpec, GridParameters

from reference import (arms_power_cross, command_pu, mirror_output, nadir_for,
                       target_response, vic_command_mw, vic_filter_rate)


def _rk4_held(rate, x, dt):
    """One RK4 step of dx/dt = rate(x) with the input held over the step."""
    k1 = rate(x)
    k2 = rate(x + 0.5 * dt * k1)
    k3 = rate(x + 0.5 * dt * k2)
    k4 = rate(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class _GovernorDriven:
    """The governor state under a deviation path, read by the AAPC laws.

    The mirror shares (A, B) with the aggregate governor, so its state is the
    governor state; only the output map differs.
    """

    def __init__(self, ctrl):
        self.ctrl = ctrl
        self.x = np.zeros(ctrl.mirror.order)

    def step(self, df, dt):
        m = self.ctrl.mirror
        self.x = _rk4_held(lambda x: m.a @ x + m.b[:, 0] * df, self.x, dt)

    def mirror_pu(self, df):
        m = self.ctrl.mirror
        return mirror_output(float(m.d[0, 0]), m.c[0], self.x, df)

    def command(self, share, df):
        return command_pu(share, self.mirror_pu(df), self.ctrl.gain_kw, df)


class TestSynthesize:
    def test_two_machine_gain(self, two_machine_grid, reheat_g1, two_machine_solution):
        ctrl = synthesize(two_machine_grid, [reheat_g1], two_machine_solution.alpha)
        assert ctrl.gain_kw == pytest.approx(
            1.0 - 18.0 / two_machine_solution.alpha, rel=1e-12)
        assert -14.6 < ctrl.gain_kw < -13.6

    def test_mirror_limit_at_unit_alpha_zero_damping(self):
        grid = GridParameters(4.0, 1e-12, 50.0, 100.0, 0.5)
        gov = GovernorSpec(name="g", rated_mva=100.0, num=(-12.0,), den=(1.0, 1.0))
        ctrl = synthesize(grid, [gov], alpha=1.0)
        assert ctrl.gain_kw == pytest.approx(-12.0, abs=1e-9)

    def test_alpha_below_one_rejected(self, two_machine_grid, reheat_g1):
        with pytest.raises(ValueError):
            synthesize(two_machine_grid, [reheat_g1], alpha=0.9)

    def test_closed_loop_is_first_order(self, two_machine_grid, reheat_g1,
                                         two_machine_solution):
        # swing + governor + controller integrated directly against the
        # analytic a (1 - e^{-b t}) target
        alpha = two_machine_solution.alpha
        ctrl = synthesize(two_machine_grid, [reheat_g1], alpha)
        p_d = 0.075
        two_h = 2.0 * two_machine_grid.inertia_s
        mir = ctrl.mirror
        from windfreq.grid import rebase_governors
        [gov] = rebase_governors([reheat_g1], two_machine_grid.s_base_mva)

        def rhs(x):
            df, xg, xc = x
            pm = gov.c[0, 0] * xg + gov.d[0, 0] * df
            pe = mir.c[0, 0] * xc + mir.d[0, 0] * df + ctrl.gain_kw * df
            ddf = (pm + pe - p_d - two_machine_grid.damping * df) / two_h
            return np.array([ddf,
                             gov.a[0, 0] * xg + gov.b[0, 0] * df,
                             mir.a[0, 0] * xc + mir.b[0, 0] * df])

        dt, t_end = 0.001, 30.0
        x = np.zeros(3)
        worst = 0.0
        for i in range(int(t_end / dt)):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            ref = target_response(ctrl, (i + 1) * dt, p_d)
            worst = max(worst, abs(x[0] - ref))
        assert worst <= 0.01 * abs(nadir_for(ctrl, p_d))


class TestControllerStep:
    def test_zero_frequency_zero_command(self, two_machine_grid, reheat_g1):
        ctrl = synthesize(two_machine_grid, [reheat_g1], 1.19)
        gov = _GovernorDriven(ctrl)
        for _ in range(50):
            gov.step(0.0, 0.01)
            assert gov.command(1.0, 0.0) == 0.0

    def test_halves_sum_to_whole(self, two_machine_grid, reheat_g1):
        ctrl = synthesize(two_machine_grid, [reheat_g1], 1.19)
        gov = _GovernorDriven(ctrl)
        rng = np.random.default_rng(2)
        df_path = -0.005 * rng.uniform(0.2, 1.0, size=100)
        for df in df_path:
            gov.step(df, 0.01)
            w = gov.command(1.0, df)
            parts = gov.command(0.5, df) + gov.command(0.5, df)
            assert parts == pytest.approx(w, rel=1e-12)

    def test_branch_signs_under_drop(self, two_machine_grid, reheat_g1,
                                     two_machine_solution):
        # mirror branch releases nothing positive, gain branch nothing negative
        alpha = two_machine_solution.alpha
        ctrl = synthesize(two_machine_grid, [reheat_g1], alpha)
        gov = _GovernorDriven(ctrl)
        b = ctrl.response_rate
        nadir = nadir_for(ctrl, 0.075)
        for i in range(3000):
            t = i * 0.01
            df = nadir * (1.0 - math.exp(-b * t))
            gov.step(df, 0.01)
            assert gov.mirror_pu(df) <= 1e-12
            assert command_pu(1.0, 0.0, ctrl.gain_kw, df) >= -1e-12


class TestAllocate:
    def test_identical_turbines_equal_shares(self):
        shares = allocate([(10.0, 5.0)] * 4)
        np.testing.assert_allclose(shares, 0.25)
        assert shares.sum() == 1.0

    def test_zero_power_margin_zero_share(self):
        shares = allocate([(10.0, 0.0), (10.0, 5.0)])
        assert shares[0] == 0.0
        assert shares[1] == 1.0

    def test_study_fleet_ordering(self, multi_machine_scenario):
        # interior wind speeds carry the largest shares, the becalmed end the least
        from windfreq.simulator import run
        res = run(replace(multi_machine_scenario, alpha=1.3))
        shares = res.shares
        assert shares.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.argmax(shares) in (2, 3)
        assert np.argmin(shares) == 0

    def test_permutation_equivariance(self):
        caps = [(1.0, 4.0), (5.0, 3.0), (9.0, 2.0)]
        base = allocate(caps)
        perm = allocate([caps[2], caps[0], caps[1]])
        np.testing.assert_allclose(perm, [base[2], base[0], base[1]])

    def test_errors(self):
        with pytest.raises(ValueError):
            allocate([])
        with pytest.raises(ValueError):
            allocate([(0.0, 0.0), (0.0, 0.0)])
        with pytest.raises(ValueError):
            allocate([(-1.0, 2.0)])


class TestExitLogic:
    def test_horizon_trigger(self):
        assert check_exit(10.0, 5.0, 1.0, 0.8, t=30.0, t_f=30.0, armed=True) == "horizon"

    def test_floor_trigger_wins(self):
        kind = check_exit(10.0, 5.0, 0.8, 0.8, t=30.0, t_f=30.0, armed=True)
        assert kind == "speed_floor"

    def test_power_cross_needs_arming(self):
        assert check_exit(4.0, 5.0, 1.0, 0.8, t=1.0, t_f=30.0, armed=False) is None
        assert check_exit(4.0, 5.0, 1.0, 0.8, t=1.0, t_f=30.0, armed=True) == "power_cross"

    def test_horizon_slack(self):
        # a window end that rounding puts just after the step still closes on it
        assert check_exit(10.0, 5.0, 1.0, 0.8, t=30.0, t_f=30.0 + 5e-13, armed=True) == "horizon"
        assert check_exit(10.0, 5.0, 1.0, 0.8, t=30.0, t_f=30.0 + 2e-12, armed=True) is None

    @pytest.mark.parametrize("p_mppt_w, margin_w", [
        (0.0, 1e-3),            # the absolute margin alone
        (1e6, 2e-3),            # 1e-9 of 1 MW adds another 1 mW
        (1e9, 1.0 + 1e-3),      # the relative margin dominates
    ])
    def test_arming_margins(self, p_mppt_w, margin_w):
        # the command arms only above the tracking power plus both margins
        assert arms_power_cross(p_mppt_w + 1.1 * margin_w, p_mppt_w)
        assert not arms_power_cross(p_mppt_w + 0.9 * margin_w, p_mppt_w)
        assert not arms_power_cross(p_mppt_w, p_mppt_w)

    def test_gamma_endpoints(self):
        assert exit_gamma(8.0, 5.0, 8.0) == 1.0       # command on the tracking curve
        assert exit_gamma(5.0, 5.0, 8.0) == 0.0       # command on the turbine power
        assert exit_gamma(9.0, 5.0, 8.0) == 1.0       # clamped from above
        assert exit_gamma(4.0, 5.0, 8.0) == 0.0       # clamped from below

    def test_degenerate_denominator(self):
        assert exit_gamma(7.3, 6.0, 6.0 + 1e-12) == 1.0

    def test_blend_continuity(self):
        p_t, p_mppt = 5.0, 8.0
        for p_e in (5.0, 6.1, 7.9, 8.0):
            g = exit_gamma(p_e, p_t, p_mppt)
            assert exit_power(g, p_t, p_mppt) == pytest.approx(p_e, abs=1e-12)


def _vic_commands(vic, df_path_hz, dt):
    """VIC commands (MW) along a deviation path, the filter state RK4-stepped."""
    z = 0.0
    for df in df_path_hz:
        z = _rk4_held(lambda zz: vic_filter_rate(vic, df, zz), z, dt)
        yield vic_command_mw(vic, df, z, 1.0)


class TestClassicVic:
    def test_zero_input(self):
        assert vic_command_mw(BaselineVic(), 0.0, 0.0, 50.0) == 0.0

    def test_constant_deviation_droop_only(self):
        vic = BaselineVic(k_f=20.0, k_in=10.0, filter_s=0.1)
        # 10 s >> filter settling
        *_, cmd = _vic_commands(vic, [-0.3] * 1000, 0.01)
        assert cmd == pytest.approx(20.0 * 0.3, rel=1e-9)

    def test_ramp_recovers_slope(self):
        vic = BaselineVic(k_f=0.0, k_in=10.0, filter_s=0.1)
        slope = -0.05  # Hz per second
        # 0.6 s > 3 filter time constants
        *_, cmd = _vic_commands(vic, [slope * 0.001 * (i + 1) for i in range(600)], 0.001)
        assert cmd == pytest.approx(-10.0 * slope, rel=0.05)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            BaselineVic(k_f=-1.0)
        with pytest.raises(ValueError):
            BaselineVic(filter_s=0.0)
