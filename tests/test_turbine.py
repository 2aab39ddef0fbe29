import math
from dataclasses import replace

import numpy as np
import pytest

from windfreq import simulator as sim
from windfreq import turbine
from windfreq.scenario import SimOptions, TurbineEntry
from windfreq.simulator import run
from windfreq.turbine import (
    CP_MAX,
    TSR_OPT,
    TurbineSpec,
    TurbineState,
    capability_indices,
    dfig5mw,
    make_state,
    mppt_equilibrium_speed,
    mppt_power,
)

S_BASE = 200.0


def turbine_power_mw(omega, wind, spec, pitch=0.0):
    """Fleet turbine power, MW, from the law the closed-loop kernel calls."""
    return turbine._turbine_power_w(omega, wind, pitch, spec.rotor_radius_m,
                                    turbine._fleet_power_scale(spec)) / 1e6


def brute_force_cp_peak(step=1e-4):
    """Dense-scan reference for the efficiency peak at zero pitch."""
    grid = np.arange(1.0, 15.0, step)
    inv_lam = 1.0 / grid - 0.035
    cps = 0.22 * (116.0 * inv_lam - 5.0) * np.exp(-12.5 * inv_lam)
    i = np.argmax(cps)
    return grid[i], cps[i]


class TestPowerCoefficient:
    def test_hand_value(self):
        # 1/lambda_bar = 1/8 - 0.035 = 0.09
        expected = 0.22 * (116.0 * 0.09 - 5.0) * math.exp(-12.5 * 0.09)
        assert turbine._cp_value(8.0, 0.0) == pytest.approx(expected)
        assert turbine._cp_value(8.0, 0.0) == pytest.approx(0.3886, abs=5e-4)

    def test_clamped_to_zero(self):
        # inefficient region: 116/lambda_bar < 5
        assert turbine._cp_value(20.0, 0.0) == 0.0

    def test_domain_error(self):
        # tsr 40: 1/lambda_bar goes negative, past the model's domain edge
        # (tsr 1/0.035 at zero pitch), where C_p clamps to zero
        spec = dfig5mw(rotor_radius_m=45.0)
        assert turbine._cp_value(40.0, 0.0) == 0.0
        assert turbine._cp_value(1.0 / 0.035, 0.0) == 0.0
        assert turbine_power_mw(40.0 * 9.0 / spec.rotor_radius_m, 9.0, spec) == 0.0

    def test_peak_matches_dense_scan(self):
        tsr_ref, cp_ref = brute_force_cp_peak()
        assert TSR_OPT == pytest.approx(tsr_ref, abs=1e-4)  # within the scan step
        # no scan point beats the closed form by more than 1e-12; the best
        # one lies within half a step of it, where C_p is flat to ~5e-11
        assert cp_ref <= CP_MAX + 1e-12
        assert CP_MAX - cp_ref < 1e-10

    def test_peak_is_stationary(self):
        # the closed form 1/lambda_i = 14.28/116 is the maximum of the C_p law
        assert TSR_OPT == 1.0 / (14.28 / 116.0 + 0.035)
        assert CP_MAX == turbine._cp_value(TSR_OPT, 0.0)
        assert turbine._cp_optimum(0.0) == (TSR_OPT, CP_MAX)
        # at pitch beta, 1/lambda_i = (14.28 + 0.4 beta)/116
        assert turbine._cp_optimum(2.0)[0] == pytest.approx(7.30888, abs=1e-5)
        assert turbine._cp_optimum(2.0)[1] == pytest.approx(0.40201, abs=1e-5)
        for pitch in (0.0, 2.0, 5.0):
            tsr, cp = turbine._cp_optimum(pitch)
            for rel in (1e-6, -1e-6):
                assert turbine._cp_value(tsr * (1.0 + rel), pitch) < cp

    def test_global_bound_on_grid(self):
        rng = np.random.default_rng(5)
        tsrs = rng.uniform(0.5, 25.0, size=100)
        pitches = rng.uniform(0.0, 20.0, size=100)
        for tsr in tsrs.tolist():
            for pitch in pitches.tolist():
                # outside the model domain C_p clamps to zero
                assert turbine._cp_value(tsr, pitch) <= CP_MAX + 1e-12


class TestTurbinePower:
    def test_zero_wind(self):
        # a becalmed rotor turning at its 9 m/s speed is outside the C_p domain
        spec = dfig5mw(rotor_radius_m=45.0)
        state = make_state(spec, 9.0, S_BASE)
        assert turbine_power_mw(state.omega_rad_s, 0.05, spec) == 0.0

    def test_count_scaling(self):
        one = dfig5mw(count=1, rotor_radius_m=45.0)
        two = dfig5mw(count=2, rotor_radius_m=45.0)
        s1 = make_state(one, 9.0, S_BASE)
        s2 = make_state(two, 9.0, S_BASE)
        assert turbine_power_mw(s2.omega_rad_s, 9.0, two) == pytest.approx(
            2.0 * turbine_power_mw(s1.omega_rad_s, 9.0, one))

    def test_optimal_point_value(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        state = make_state(spec, 9.0, S_BASE)
        direct = 0.5 * 1.225 * math.pi * 45.0 ** 2 * CP_MAX * 9.0 ** 3 / 1e6
        assert turbine_power_mw(state.omega_rad_s, 9.0, spec) == pytest.approx(direct, rel=1e-9)

    def test_monotone_in_wind_at_fixed_tsr(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        tsr = 6.0
        winds = np.linspace(7.0, 12.0, 11)
        powers = []
        for v in winds:
            omega = tsr * v / spec.rotor_radius_m
            powers.append(turbine_power_mw(omega, v, spec))
        assert np.all(np.diff(powers) > 0)


class TestMpptCurve:
    def test_equilibrium_matches_turbine_power(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        for v in (7.0, 8.0, 9.0):
            omega = mppt_equilibrium_speed(v, spec)
            assert mppt_power(omega, spec) == pytest.approx(turbine_power_mw(omega, v, spec),
                                                            rel=1e-9)

    def test_cubic_scaling(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        assert mppt_power(0.8, spec) == pytest.approx(8.0 * mppt_power(0.4, spec))

    def test_vanishes_at_standstill(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        assert mppt_power(1e-6, spec) == pytest.approx(0.0, abs=1e-12)

    def test_power_clamp(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        assert mppt_power(50.0, spec) == spec.p_max_fleet_mw


def with_controller(sc, controller, duration_s=60.0):
    """The scenario with every turbine on one controller, run for duration_s."""
    return replace(sim._with_controllers(sc, controller),
                   sim=replace(sc.sim, duration_s=duration_s))


class TestStepRotor:
    """The one-mass rotor as the closed-loop kernel steps it."""

    def test_over_draw_decelerates(self, two_machine_scenario):
        # the VIC command rises above the pre-event power as soon as df falls
        res = run(with_controller(two_machine_scenario, "classic_vic", 30.0))
        assert res.wt_pe_mw[1, 0] > res.wt_p_e0_mw[0]
        assert res.wt_omega_rad_s[1, 0] < res.wt_omega0[0]

    def test_energy_bookkeeping(self, two_machine_scenario):
        # dE_k over the interval equals the trapezoid of the recorded power
        # imbalance, with the turbine power from the shared law
        entry = two_machine_scenario.turbines[0]
        dt = two_machine_scenario.sim.step_s
        for controller, alpha in (("classic_vic", None), ("optimal_aapc", 1.19)):
            res = run(replace(with_controller(two_machine_scenario, controller, 30.0),
                              alpha=alpha))
            omega = res.wt_omega_rad_s[:, 0]
            p_t = np.array([turbine_power_mw(w, entry.wind_speed_ms, entry.spec, entry.pitch_deg)
                            for w in omega.tolist()])
            imbalance_w = (p_t - res.wt_pe_mw[:, 0]) * 1e6
            for t_end in (10.0, 20.0):
                n = int(round(t_end / dt))
                d_ek = 0.5 * entry.spec.fleet_inertia * (omega[n] ** 2 - omega[0] ** 2)
                absorbed = dt * (imbalance_w[:n + 1].sum()
                                 - 0.5 * (imbalance_w[0] + imbalance_w[n]))
                assert d_ek < 0
                assert d_ek == pytest.approx(absorbed, rel=2e-5)

    def test_floor_never_crossed(self, two_machine_scenario, multi_machine_scenario):
        # classic VIC drives the slowest rotor onto its floor on both presets
        for sc in (two_machine_scenario, multi_machine_scenario):
            res = run(with_controller(sc, "classic_vic"))
            floors = np.array([t.spec.floor_speed_rad for t in sc.turbines])
            assert np.any(res.wt_flags & sim.FLAG_FLOOR)
            assert np.min(res.wt_omega_rad_s - floors) >= -1e-12


def _state(spec, omega, p_e_mw=0.0):
    """An operating point at rotor speed omega and fleet power p_e_mw."""
    return TurbineState(omega_rad_s=omega, wind_speed_ms=9.0, pitch_deg=0.0,
                        p_e_pu=p_e_mw / S_BASE,
                        energy_mj=0.5 * spec.fleet_inertia * omega ** 2 / 1e6)


class TestCapability:
    def test_zero_energy_at_floor(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        state = _state(spec, spec.floor_speed_rad)
        de, _dp = capability_indices(state, spec, S_BASE)
        assert de == pytest.approx(0.0, abs=1e-12)

    def test_zero_power_at_ceiling(self):
        spec = dfig5mw(rotor_radius_m=45.0)
        state = _state(spec, mppt_equilibrium_speed(9.0, spec), spec.p_max_fleet_mw)
        _de, dp = capability_indices(state, spec, S_BASE)
        assert dp == pytest.approx(0.0, abs=1e-12)

    def test_rated_speed_arithmetic(self):
        # 0.5 J w^2 (1 - 0.7^2) with w = 12.1 rpm in rad/s
        spec = dfig5mw()
        w = 12.1 * 2.0 * math.pi / 60.0
        state = _state(spec, w)
        de, _ = capability_indices(state, spec, S_BASE)
        expected = 0.5 * 16_801_544.0 * w ** 2 * (1.0 - 0.49) / 1e6
        assert de == pytest.approx(expected, rel=1e-12)


def test_mppt_equilibrium_attracting(two_machine_scenario):
    # the kernel starts each rotor off its tracking equilibrium and steps it
    # with no disturbance and no controller for 300 s
    spec = dfig5mw(count=1, rotor_radius_m=45.0)
    v = 8.0
    omega_eq = mppt_equilibrium_speed(v, spec)
    sc = replace(two_machine_scenario, events=(),
                 turbines=(TurbineEntry("WT", spec, v, controller="none"),),
                 sim=SimOptions(duration_s=300.0, step_s=0.01))
    for omega0 in (0.75 * omega_eq, 1.2 * omega_eq):
        asm = sim._Assembled(sc, alpha=None)
        asm.y0[asm.base_w] = max(omega0, spec.floor_speed_rad)
        tr, _ = sim._integrate(asm)
        gaps = np.abs(spec.rotor_radius_m * tr.wt_omega[1::1000, 0] / v - TSR_OPT)
        settled = gaps[2:]
        assert np.all(np.diff(settled) <= 1e-12)
        assert settled[-1] < 1e-3


@pytest.mark.parametrize("pitch", [0.0, 2.0, 5.0])
def test_pitched_turbine_starts_in_balance(two_machine_scenario, pitch):
    # the tracking curve follows the C_p optimum at the turbine's pitch, so
    # its equilibrium is one of the rotor dynamics: dw/dt = 0 before any event
    spec = dfig5mw(count=20, rotor_radius_m=45.0)
    sc = replace(two_machine_scenario, events=(), turbines=(
        TurbineEntry("WT", spec, 9.0, pitch_deg=pitch, controller="none"),))
    asm = sim._Assembled(sc, alpha=None)
    asm.advance(asm, list(asm.y0), 0.0)
    dy = asm.k1
    p_t = asm.wt_pt_w[0]
    assert asm.wt_pe_w[0] == asm.wt_mppt_w[0]
    assert abs(dy[asm.base_w]) * asm.wt[0].j_fleet * asm.omega0[0] <= 1e-12 * p_t
    assert asm.omega0[0] == mppt_equilibrium_speed(9.0, spec, pitch)
    assert mppt_power(asm.omega0[0], spec, pitch) == pytest.approx(p_t / 1e6, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        TurbineSpec(5.556, 5.0, 5.0, 5.0, 12.1, 0.7, 1e7)
    with pytest.raises(ValueError):
        TurbineSpec(5.556, 5.0, 5.0, 0.0, 12.1, 1.2, 1e7)
    with pytest.raises(ValueError):
        dfig5mw(count=0)
    with pytest.raises(ValueError):
        make_state(dfig5mw(rotor_radius_m=63.0), 5.0, S_BASE)  # below the floor
