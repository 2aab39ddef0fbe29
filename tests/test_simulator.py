import os
from dataclasses import replace

import numpy as np
import pytest

import windfreq
from windfreq import collocation as coll
from windfreq import simulator as sim
from windfreq import trajopt as to
from windfreq.grid import GovernorSpec, aggregate_governors, rebase_governors
from windfreq.presets import load_preset
from windfreq.scenario import DisturbanceEvent, ScenarioError, scenario_from_dict
from windfreq.simulator import metrics, run
from windfreq.turbine import make_state


@pytest.fixture(scope="module")
def base_result(two_machine_scenario, two_machine_solution):
    return run(replace(two_machine_scenario, alpha=two_machine_solution.alpha))


class TestRun:
    def test_no_disturbance_flat(self, two_machine_scenario):
        sc = replace(two_machine_scenario, events=(),
                     sim=replace(two_machine_scenario.sim, duration_s=40.0))
        res = run(replace(sc, alpha=1.19))
        assert np.max(np.abs(res.df_pu)) == 0.0
        assert np.max(np.abs(res.dpe_pu)) == 0.0
        for j in range(res.n_wt):
            assert np.ptp(res.wt_omega_rad_s[:, j]) == 0.0

    def test_no_support_initial_rocof(self, two_machine_scenario):
        sc = replace(
            two_machine_scenario,
            turbines=tuple(replace(t, controller="none")
                           for t in two_machine_scenario.turbines))
        res = run(sc)
        window = (res.t >= 0) & (res.t <= 0.1)
        expected = -0.075 / (2.0 * sc.grid.inertia_s)
        # peak slope in the first 100 ms is the initial rate of decline
        measured = res.dfdot_pu_s[window].min()
        assert abs(measured - expected) <= 0.005 * abs(expected)

    def test_step_halving_agreement(self, two_machine_scenario, base_result):
        fine = replace(two_machine_scenario,
                       sim=replace(two_machine_scenario.sim, step_s=0.005))
        res5 = run(replace(fine, alpha=base_result.alpha))
        n10, n5 = base_result.df_pu.min(), res5.df_pu.min()
        assert abs(n10 - n5) / abs(n10) < 1e-4

    def test_determinism(self, two_machine_scenario, base_result):
        again = run(replace(two_machine_scenario, alpha=base_result.alpha))
        assert np.array_equal(base_result.df_pu, again.df_pu)
        assert np.array_equal(base_result.wt_pe_mw, again.wt_pe_mw)
        assert base_result.exit_events == again.exit_events

    def test_swing_residual_every_step(self, two_machine_scenario, base_result):
        rec = metrics(base_result)
        assert rec.max_swing_residual <= 1e-8

    def test_validation_collects_all_problems(self, two_machine_scenario):
        bad = replace(
            two_machine_scenario,
            events=(DisturbanceEvent(time_s=0.0037, kind="load_surge", magnitude_pu=-1.0),
                    DisturbanceEvent(time_s=999.0, kind="generation_trip", unit="nope")),
            sim=replace(two_machine_scenario.sim, step_s=0.5),
        )
        with pytest.raises(ScenarioError) as err:
            run(bad)
        msg = str(err.value)
        assert "step_s" in msg
        assert "magnitude_pu" in msg
        assert "nope" in msg
        assert "outside the simulation window" in msg

    @pytest.mark.parametrize("fn", [run, sim.solve_hypothetical], ids=["run", "solve"])
    def test_zero_hypothetical_deficit_rejected(self, two_machine_scenario, fn):
        # an in-code scenario once ran on the zero-disturbance fallback (alpha 1.0)
        bad = replace(two_machine_scenario,
                      solver=replace(two_machine_scenario.solver, hypothetical_p_d_pu=0.0))
        with pytest.raises(ScenarioError, match=r"\$\.solver\.hypothetical_p_d_pu: must be > 0"):
            fn(bad)


class TestExitBehavior:
    def test_power_cross_exit_smooth(self, base_result):
        assert len(base_result.exit_events) == 1
        ev = base_result.exit_events[0]
        assert ev["kind"] == "power_cross"
        assert ev["power_step_pu"] <= 1e-6
        rec = metrics(base_result)
        assert not rec.secondary_dip

    def test_rotor_recovers_after_exit(self, two_machine_scenario, base_result):
        long = replace(two_machine_scenario,
                       sim=replace(two_machine_scenario.sim, duration_s=240.0))
        res = run(replace(long, alpha=base_result.alpha))
        t_e = res.exit_events[0]["t_e_s"]
        i = np.searchsorted(res.t, min(t_e + 200.0, res.t[-1]))
        omega_ratio = res.wt_omega_rad_s[min(i, len(res.t) - 1), 0] / res.wt_omega0[0]
        assert abs(omega_ratio - 1.0) <= 0.01

    def test_horizon_exit_blend(self, two_machine_scenario, base_result):
        # a deficit deep enough that the command never re-crosses the sagged
        # tracking curve: the window closes the support instead
        ev = (DisturbanceEvent(time_s=0.0, kind="load_surge",
                               magnitude_pu=0.15 * two_machine_scenario.grid.load_pu),)
        sc = replace(two_machine_scenario, events=ev,
                     sim=replace(two_machine_scenario.sim, duration_s=240.0))
        res = run(replace(sc, alpha=base_result.alpha))
        kinds = [e["kind"] for e in res.exit_events]
        assert kinds == ["horizon"]
        assert 0.0 < res.exit_events[0]["gamma"] < 1.0
        assert res.exit_events[0]["power_step_pu"] <= 1e-6
        rec = metrics(res)
        assert not rec.secondary_dip
        # monotone convergence back to the tracking equilibrium
        t_e = res.exit_events[0]["t_e_s"]
        post = res.wt_omega_rad_s[res.t >= t_e, 0]
        gaps = np.abs(post - res.wt_omega0[0])
        assert np.all(np.diff(gaps) <= 1e-9)

    def test_floor_exit_on_extreme_deficit(self, two_machine_scenario, base_result):
        ev = (DisturbanceEvent(time_s=0.0, kind="load_surge",
                               magnitude_pu=0.4 * two_machine_scenario.grid.load_pu),)
        sc = replace(two_machine_scenario, events=ev)
        res = run(replace(sc, alpha=base_result.alpha))
        assert any(e["kind"] == "speed_floor" for e in res.exit_events)
        floor = sc.turbines[0].spec.floor_speed_rad
        assert np.min(res.wt_omega_rad_s) >= floor - 1e-9


    def test_clipped_power_cross_is_continuous(self):
        # a trip where the command re-crosses the tracking curve while the
        # turbine power is above it, so gamma clips to 1 and any bracket
        # left by the exit bisection shows up as a power step
        doc = load_preset("two_machine")
        doc["grid"]["inertia_s"] = 4.4398402651516395
        doc["governors"][0]["params"].update(droop=0.04698636227539709,
                                              reheat_time_s=8.14102490750287)
        doc["turbines"][0]["wind_speed_ms"] = 9.063419767206682
        doc["events"] = [{"time_s": 0.0, "kind": "generation_trip", "unit": "G1",
                          "fraction": 0.11067653645161682}]
        doc["solver"].update(nodes=60, hypothetical_p_d_pu=0.08300740233871261)
        res = run(scenario_from_dict(doc))
        [ev] = res.exit_events
        assert ev["kind"] == "power_cross"
        assert ev["gamma"] == 1.0
        assert ev["power_step_pu"] <= 1e-6

    # a second surge lands on the step whose start state first shows the
    # power cross of WT1, WT2 or WT3: the checks of a step read its state
    # before its events apply, and the step that resumes after the exit
    # applies them once. Figures recorded with the exit checks evaluated
    # apart from the right-hand side and the closed-form C_p optimum.
    @pytest.mark.parametrize("t2, nadir, exits", [
        (24.41, -0.003651818364281788, [
            ("WT1", "power_cross", 24.400789794921877),
            ("WT2", "horizon", 30.0),
            ("WT3", "horizon", 30.0),
            ("WT4", "horizon", 30.0),
            ("WT5", "horizon", 30.0)]),
        (26.78, -0.00367501602221713, [
            ("WT1", "power_cross", 24.400789794921877),
            ("WT2", "power_cross", 26.771478271484373),
            ("WT3", "horizon", 30.0),
            ("WT4", "horizon", 30.0),
            ("WT5", "horizon", 30.0)]),
        (29.93, -0.0039191329311568865, [
            ("WT1", "power_cross", 24.400789794921877),
            ("WT2", "power_cross", 26.771478271484373),
            ("WT5", "power_cross", 29.2149658203125),
            ("WT4", "power_cross", 29.64748046875),
            ("WT3", "power_cross", 29.92564453125)]),
    ], ids=["WT1_cross", "WT2_cross", "WT3_cross"])
    def test_second_event_at_exit(self, t2, nadir, exits):
        sc = scenario_from_dict(load_preset("multi_machine"))
        surge = DisturbanceEvent(time_s=t2, kind="load_surge", magnitude_pu=0.01)
        res = run(replace(sc, events=sc.events + (surge,), alpha=1.3087744209468601))
        assert metrics(res).nadir_pu == pytest.approx(nadir, rel=1e-12)
        assert len(res.exit_events) == len(exits)
        for ev, (turbine, kind, t_e) in zip(res.exit_events, exits):
            assert (ev["turbine"], ev["kind"]) == (turbine, kind)
            assert ev["t_e_s"] == pytest.approx(t_e, rel=1e-12)
            assert ev["power_step_pu"] <= 1e-9


class TestStateCollapse:
    @pytest.mark.parametrize("preset, n_y", [("two_machine", 4), ("multi_machine", 10)])
    def test_state_length(self, preset, n_y):
        # df, one governor state per distinct dynamics (multi_machine: seven
        # reheat, two hydro and one gas unit), one rotor speed per turbine,
        # and one VIC filter state only if a turbine runs classic_vic
        sc = scenario_from_dict(load_preset(preset))
        m_gov = len({g.den for g in sc.governors})
        asm = sim._Assembled(sim._with_controllers(sc, "classic_vic"), alpha=None)
        assert asm.m_gov == m_gov
        assert len(asm.y0) == 1 + m_gov + len(sc.turbines) + 1 == n_y
        for strategy in ("none", "optimal_aapc"):
            asm = sim._Assembled(sim._with_controllers(sc, strategy), alpha=1.3)
            assert len(asm.y0) == len(asm.k1) == n_y - 1, strategy

    @pytest.mark.parametrize("strategy", ["none", "optimal_aapc"])
    def test_trip_of_a_lumped_unit(self, multi_machine_scenario, strategy):
        # G1 shares its state with the six other reheat units, yet the trip
        # scales only its output; the reference gives G1 a denominator one ulp
        # off, which puts it in a group of its own
        trip = DisturbanceEvent(time_s=0.0, kind="generation_trip", unit="G1", fraction=0.5)
        sc = replace(sim._with_controllers(multi_machine_scenario, strategy), events=(trip,))
        g1 = sc.governors[0]
        apart = replace(g1, den=(np.nextafter(g1.den[0], np.inf),) + g1.den[1:])
        ref_sc = replace(sc, governors=(apart,) + sc.governors[1:])
        alpha = 1.3087744209468601 if strategy == "optimal_aapc" else None
        assert (sim._Assembled(sc, alpha).m_gov, sim._Assembled(ref_sc, alpha).m_gov) == (3, 4)
        res, ref = run(replace(sc, alpha=alpha)), run(replace(ref_sc, alpha=alpha))
        assert np.max(np.abs(res.df_pu - ref.df_pu)) <= 1e-12
        assert np.max(np.abs(res.dpm_pu - ref.dpm_pu)) <= 1e-12
        assert np.max(np.abs(res.df_pu)) > 1e-3
        # the trip moved the governor response: a load surge of the same size
        # gives another
        surge = replace(sc, events=(DisturbanceEvent(
            time_s=0.0, kind="load_surge", magnitude_pu=res.p_d_pu[-1]),))
        assert np.max(np.abs(run(replace(surge, alpha=alpha)).dpm_pu - res.dpm_pu)) > 1e-4

    def test_governor_rates_match_loop(self, two_machine_scenario):
        # the governor states advance over the nonzeros of each row of A_g;
        # the dense scalar loop is the reference, here with a second-order
        # block whose A_g has off-diagonal entries
        g2 = GovernorSpec(name="G2", rated_mva=150.0, num=(-3.0, -6.0), den=(2.0, 3.0, 1.0))
        sc = replace(two_machine_scenario, governors=two_machine_scenario.governors + (g2,))
        asm = sim._Assembled(sc, alpha=1.2)
        gov = aggregate_governors(rebase_governors(sc.governors, sc.grid.s_base_mva))
        noise = 1e-3 * np.random.default_rng(4).normal(size=len(asm.y0))
        y = [a + e for a, e in zip(asm.y0, noise.tolist())]
        dy = [0.0] * len(y)
        asm.rhs(asm, y, dy)
        m = asm.m_gov
        loop = [gov.b[s, 0] * y[0] + sum(gov.a[s, s2] * y[1 + s2] for s2 in range(m))
                for s in range(m)]
        assert m == 3
        assert np.count_nonzero(gov.a - np.diag(np.diag(gov.a))) > 0
        assert all(type(v) is float for v in dy)
        np.testing.assert_allclose(dy[1:1 + m], loop, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("event", [
        DisturbanceEvent(time_s=0.0, kind="load_surge", magnitude_pu=0.075),
        DisturbanceEvent(time_s=0.0, kind="generation_trip", unit="G1", fraction=0.1),
    ], ids=["load_surge", "generation_trip"])
    def test_mirror_cancels_governor_output(self, two_machine_scenario, base_result, event):
        # the mirror reads the governor state, so before exit and inside the
        # limits the command is share (-dpm / kept fraction + K_w df) S_base
        res = run(replace(two_machine_scenario, events=(event,), alpha=base_result.alpha))
        kept = 1.0 - event.fraction if event.kind == "generation_trip" else 1.0
        window = (res.t < res.exit_events[0]["t_e_s"]) & (res.wt_flags[:, 0] == 0)
        assert window.sum() > 1000
        s_base = two_machine_scenario.grid.s_base_mva
        expected = res.shares[0] * (-res.dpm_pu / kept + res.gain_kw * res.df_pu) * s_base
        dp_mw = res.wt_pe_mw[:, 0] - res.wt_p_e0_mw[0]
        np.testing.assert_allclose(dp_mw[window], expected[window], rtol=0, atol=1e-9)
        assert np.max(np.abs(dp_mw[window])) > 1.0


class TestGoldenRegression:
    def test_two_machine_k24(self, two_machine_scenario):
        # values of the pre-refactor kernel, same scenario and options
        sc = replace(two_machine_scenario,
                     solver=replace(two_machine_scenario.solver, nodes=24),
                     sim=replace(two_machine_scenario.sim, duration_s=35.0))
        prob = to.build_problem(sc.grid, list(sc.governors), 0.075, 30.0)
        sol = to.solve_max_nadir(prob, coll.make_grid(24, 30.0))
        rec = metrics(run(replace(sc, alpha=sol.alpha)), nadir_ref_pu=sol.nadir_pu)
        assert sol.nadir_pu == pytest.approx(-0.004971844884789816, rel=1e-12)
        assert sol.alpha == pytest.approx(1.1932427723495558, rel=1e-12)
        assert rec.nadir_pu == pytest.approx(-0.004971844884789792, rel=1e-10)
        assert rec.max_swing_residual <= 1e-8

    # nadir (pu), t_nadir (s) and (turbine, cause, t_e_s, gamma) per exit,
    # recorded from the numpy-array kernel with alpha pinned at the presets'
    # own LP values and the closed-form C_p optimum
    @pytest.mark.parametrize("preset, controller, trip, nadir, t_nadir, exits", [
        ("multi_machine", "classic_vic", False, -0.004642691564154684, 2.6, []),
        ("multi_machine", "optimal_aapc", False, -0.002919742154928845, 12.35, [
            ("WT1", "power_cross", 24.400789794921877, 1.0),
            ("WT2", "power_cross", 26.771478271484373, 1.0),
            ("WT5", "power_cross", 29.2149658203125, 1.0),
            ("WT4", "power_cross", 29.64748046875, 1.0),
            ("WT3", "power_cross", 29.92564453125, 1.0)]),
        ("two_machine", "optimal_aapc", True, -0.004630598395711238, 29.17, [
            ("WF1", "power_cross", 29.156668701171878, 1.0)]),
    ], ids=["multi_machine-classic_vic", "multi_machine-optimal_aapc", "two_machine-trip"])
    def test_closed_loop_figures(self, preset, controller, trip, nadir, t_nadir, exits):
        alpha = {"two_machine": 1.1870649147208707, "multi_machine": 1.3087744209468601}
        sc = sim._with_controllers(scenario_from_dict(load_preset(preset)), controller)
        if trip:
            sc = replace(sc, events=(DisturbanceEvent(time_s=0.0, kind="generation_trip",
                                                      unit="G1", fraction=0.1),))
        res = run(replace(sc, alpha=alpha[preset] if controller == "optimal_aapc" else None))
        rec = metrics(res)
        assert rec.nadir_pu == pytest.approx(nadir, rel=1e-12)
        assert rec.t_nadir_s == pytest.approx(t_nadir, rel=1e-12)
        assert len(res.exit_events) == len(exits)
        for ev, (turbine, kind, t_e, gamma) in zip(res.exit_events, exits):
            assert (ev["turbine"], ev["kind"]) == (turbine, kind)
            assert ev["t_e_s"] == pytest.approx(t_e, rel=1e-12)
            assert ev["gamma"] == pytest.approx(gamma, rel=1e-12)

    @pytest.mark.parametrize("preset, alpha", [("two_machine", 1.1870649147208707),
                                               ("multi_machine", 1.3087744209468601)])
    def test_t_nadir_ignores_last_bit_of_alpha(self, preset, alpha):
        # the optimal-AAPC trace holds within 1e-12 of its minimum for seconds,
        # where the argmin moved by seconds for a 1-ulp change of alpha
        sc = scenario_from_dict(load_preset(preset))
        t_nadir = [metrics(run(replace(sc, alpha=a))).t_nadir_s
                   for a in (alpha, np.nextafter(alpha, 2.0))]
        assert t_nadir[0] == t_nadir[1]
        assert t_nadir[0] < 13.0


def test_backend_name():
    assert windfreq.backend_name() == "numpy"


class TestEvents:
    def test_trip_removes_governor_share(self, two_machine_scenario):
        sc = replace(
            two_machine_scenario,
            turbines=tuple(replace(t, controller="none")
                           for t in two_machine_scenario.turbines),
            events=(DisturbanceEvent(time_s=0.0, kind="generation_trip",
                                     unit="G1", fraction=0.25),),
            sim=replace(two_machine_scenario.sim, duration_s=120.0),
        )
        res = run(sc)
        # late-time deviation settles at -P_d / (D + 0.75 K_g)
        p_d = res.p_d_pu[-1]
        expected = -p_d / (1.0 + 0.75 * 17.0)
        assert res.df_pu[-1] == pytest.approx(expected, rel=0.02)

    def test_trip_magnitude_from_dispatch(self, two_machine_scenario):
        sc = replace(
            two_machine_scenario,
            events=(DisturbanceEvent(time_s=0.0, kind="generation_trip",
                                     unit="G1", fraction=0.1),))
        res = run(replace(sc, alpha=1.19))
        wind_mw = res.wt_p_e0_mw.sum()
        expected = 0.1 * (150.0 - wind_mw) / 200.0
        assert res.p_d_pu[-1] == pytest.approx(expected, rel=1e-9)

    def test_event_mid_run(self, two_machine_scenario, base_result):
        sc = replace(
            two_machine_scenario,
            events=(DisturbanceEvent(time_s=5.0, kind="load_surge",
                                     magnitude_pu=0.075),),
            sim=replace(two_machine_scenario.sim, duration_s=60.0))
        res = run(replace(sc, alpha=base_result.alpha))
        before = res.t < 5.0
        assert np.max(np.abs(res.df_pu[before])) == 0.0
        assert res.df_pu.min() == pytest.approx(base_result.df_pu.min(), rel=1e-6)


_MIXES = {
    "all_aapc": ("optimal_aapc",),
    "all_vic": ("classic_vic",),
    "all_none": ("none",),
    "cycling": ("optimal_aapc", "classic_vic", "none"),
}


class TestAllocation:
    @pytest.mark.parametrize("mix", list(_MIXES))
    @pytest.mark.parametrize("preset", ["two_machine", "multi_machine"])
    def test_default_shares_are_a_valid_override(self, preset, mix):
        # the default gave each VIC turbine share 1, which no valid override
        # could state
        sc = scenario_from_dict(load_preset(preset))
        controllers = _MIXES[mix]
        sc = replace(sc, alpha=1.2, sim=replace(sc.sim, duration_s=30.0), turbines=tuple(
            replace(t, controller=controllers[j % len(controllers)])
            for j, t in enumerate(sc.turbines)))
        shares = sim.allocation_shares(sc)
        assert all(s == 0.0 for s, t in zip(shares, sc.turbines)
                   if t.controller != "optimal_aapc")
        pinned = replace(sc, allocation=tuple(shares)).check()
        a, b = run(sc), run(pinned)
        for name in ("df_pu", "dfdot_pu_s", "dpm_pu", "dpe_pu", "wt_pe_mw",
                     "wt_omega_rad_s", "wt_flags"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.exit_events == b.exit_events


class TestMetrics:
    def test_flat_trace_degenerate(self, two_machine_scenario):
        sc = replace(two_machine_scenario, events=(),
                     sim=replace(two_machine_scenario.sim, duration_s=40.0))
        rec = metrics(run(replace(sc, alpha=1.19)), nadir_ref_pu=-0.005)
        assert rec.degenerate
        assert rec.e_r_pct == -100.0

    def test_secondary_dip_matches_loop_reference(self, base_result):
        def loop_reference(df):
            mins = [df[i] for i in range(1, len(df) - 1)
                    if df[i] < df[i - 1] and df[i] <= df[i + 1]]
            return any(abs(m) > 1.05 * abs(mins[0]) for m in mins[1:])

        t = base_result.t
        rng = np.random.default_rng(3)
        traces = [
            base_result.df_pu,
            -np.sin(t) ** 2 * (1.0 + t / 30.0),      # each dip deeper: a secondary dip
            -np.sin(t) ** 2 * (1.0 - t / 120.0),     # each dip shallower
            np.round(-np.sin(t) ** 2, 2),            # plateaus: ties on both sides
            -t,                                      # no local minimum
            np.cumsum(rng.normal(size=t.size)),
        ]
        found = []
        for df in traces:
            rec = metrics(replace(base_result, df_pu=df))
            assert rec.secondary_dip == loop_reference(df)
            found.append(rec.secondary_dip)
        assert found[1] and not found[2]

    def test_reference_match_zero_degradation(self, base_result, two_machine_solution):
        rec = metrics(base_result, nadir_ref_pu=two_machine_solution.nadir_pu)
        assert abs(rec.e_r_pct) < 0.5

    def test_strategy_ordering_two_machine(self, two_machine_scenario):
        out = sim.compare_strategies(two_machine_scenario)
        n = out["none"][1].nadir_hz
        v = out["classic_vic"][1].nadir_hz
        a = out["optimal_aapc"][1].nadir_hz
        assert abs(a) < abs(v) < abs(n)


class TestInsensitivitySweep:
    def test_in_band_and_degraded(self, two_machine_scenario, two_machine_solution):
        load = two_machine_scenario.grid.load_pu
        p_list = [0.04 * load, 0.10 * load, 0.40 * load]
        rows, p_d_max = sim.insensitivity_sweep(
            replace(two_machine_scenario, alpha=two_machine_solution.alpha), p_list,
            reference_nadir_per_pd=two_machine_solution.nadir_pu / 0.075)
        assert rows[0]["e_r_pct"] <= 2.0
        assert rows[1]["e_r_pct"] <= 2.0
        assert rows[2]["e_r_pct"] > 5.0
        assert p_d_max == pytest.approx(0.10 * load)

    def test_one_solve_gives_alpha_and_reference(self, two_machine_scenario,
                                                monkeypatch):
        # without alpha or reference, both come from the same hypothetical optimum
        sc = replace(two_machine_scenario,
                     solver=replace(two_machine_scenario.solver, nodes=20),
                     sim=replace(two_machine_scenario.sim, duration_s=30.0))
        calls = []
        real = sim.to.solve_max_nadir

        def counting(problem, grid, *args, **kwargs):
            calls.append(problem.p_d)
            return real(problem, grid, *args, **kwargs)

        monkeypatch.setattr(sim.to, "solve_max_nadir", counting)
        rows, _ = sim.insensitivity_sweep(sc, [0.075])
        assert calls == [sc.solver.hypothetical_p_d_pu]
        sol = sim.solve_hypothetical(sc)
        ref = run(replace(sc, alpha=sol.alpha))
        assert rows[0]["nadir_hz"] == pytest.approx(metrics(ref).nadir_hz, abs=0.0)
        assert rows[0]["e_r_pct"] == pytest.approx(0.0, abs=2.0)

    def test_wind_speed_raises_margin(self, two_machine_scenario, two_machine_solution):
        load = two_machine_scenario.grid.load_pu
        p_list = np.array([0.10, 0.20, 0.30, 0.40, 0.50]) * load
        ref = two_machine_solution.nadir_pu / 0.075
        maxima = []
        for v in (8.0, 10.0):
            sc = replace(two_machine_scenario,
                         turbines=(replace(two_machine_scenario.turbines[0],
                                           wind_speed_ms=v),))
            _, p_max = sim.insensitivity_sweep(
                replace(sc, alpha=two_machine_solution.alpha), p_list,
                reference_nadir_per_pd=ref)
            maxima.append(p_max)
        assert maxima[1] >= maxima[0]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_fork():
    raise AssertionError("forked with one worker")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestMapRuns:
    # every field a SimResult carries as an array
    FIELDS = ("t", "df_pu", "df_hz", "dfdot_pu_s", "dpm_pu", "dpe_pu", "p_d_pu",
              "wt_pe_mw", "wt_omega_rad_s", "wt_flags", "shares", "wt_omega0",
              "wt_p_e0_mw")

    @pytest.fixture(scope="class")
    def short_scenario(self, two_machine_scenario):
        return replace(two_machine_scenario,
                       sim=replace(two_machine_scenario.sim, duration_s=30.0))

    def test_sweep_rows_equal_serial(self, short_scenario, two_machine_solution,
                                     monkeypatch):
        load = short_scenario.grid.load_pu
        args = (replace(short_scenario, alpha=two_machine_solution.alpha),
                [0.04 * load, 0.10 * load, 0.40 * load])
        kw = dict(reference_nadir_per_pd=two_machine_solution.nadir_pu / 0.075)
        _cpus(monkeypatch, 2)
        forked = sim.insensitivity_sweep(*args, **kw)
        _assert_no_child_left()
        _cpus(monkeypatch, 1)
        monkeypatch.setattr(sim.os, "fork", _no_fork)
        assert repr(forked) == repr(sim.insensitivity_sweep(*args, **kw))

    def test_compare_traces_equal_serial(self, short_scenario, monkeypatch):
        sc = replace(short_scenario, alpha=1.1870649147208707)
        _cpus(monkeypatch, 2)
        forked = sim.compare_strategies(sc)
        _assert_no_child_left()
        _cpus(monkeypatch, 1)
        monkeypatch.setattr(sim.os, "fork", _no_fork)
        serial = sim.compare_strategies(sc)
        assert list(forked) == list(serial) == ["none", "classic_vic", "optimal_aapc"]
        for strat, (res, rec) in serial.items():
            got, got_rec = forked[strat]
            for name in self.FIELDS:
                a, b = getattr(res, name), getattr(got, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
            assert repr(got.exit_events) == repr(res.exit_events)
            assert repr(got_rec) == repr(rec)
            assert got.scenario == res.scenario

    @pytest.mark.parametrize("cpus, items", [(1, [1, 2, 3]), (4, [5])],
                             ids=["one_cpu", "one_item"])
    def test_one_worker_never_forks(self, monkeypatch, cpus, items):
        _cpus(monkeypatch, cpus)
        monkeypatch.setattr(sim.os, "fork", _no_fork)
        assert sim._map_runs(lambda x: 2 * x, items) == [2 * x for x in items]

    def test_results_in_item_order(self, monkeypatch):
        # three workers over seven items; the caller runs items 0, 3 and 6
        _cpus(monkeypatch, 3)
        got = sim._map_runs(lambda x: (x * x, os.getpid()), range(7))
        _assert_no_child_left()
        assert [v for v, _ in got] == [x * x for x in range(7)]
        pids = [pid for _, pid in got]
        assert pids[0::3] == [os.getpid()] * 3
        assert len(set(pids[1::3] + pids[2::3]) - {os.getpid()}) == 2

    def test_first_failing_item_raises(self, monkeypatch):
        # items 1 (a child's) and 2 (the caller's) raise; item 1 is first
        def fn(x):
            if x in (1, 2):
                raise ValueError(f"item {x}")
            return x

        _cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="item 1"):
            sim._map_runs(fn, range(4))
        _assert_no_child_left()

    def test_child_without_result_is_named(self, monkeypatch):
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                os._exit(7)
            return x

        _cpus(monkeypatch, 2)
        with pytest.raises(sim.WorkerError, match="exit code 7"):
            sim._map_runs(fn, [0, 1])
        _assert_no_child_left()

    @pytest.mark.parametrize("deficits", [(0.075, -0.075), (-0.075, 0.075)],
                             ids=["child_raises", "caller_raises"])
    def test_scenario_error_from_either_worker(self, short_scenario, monkeypatch, deficits):
        # the negative deficit is the second item (a child's) or the first
        # (the caller's); the CLI's --range takes positive deficits only
        _cpus(monkeypatch, 2)
        with pytest.raises(ScenarioError, match="magnitude_pu > 0"):
            sim.insensitivity_sweep(replace(short_scenario, alpha=1.19), deficits,
                                    reference_nadir_per_pd=-1.0)
        _assert_no_child_left()


class TestOnePath:
    """Alpha comes from the scenario alone, and each turbine's operating point
    is computed once per closed-loop run."""

    @pytest.fixture(scope="class")
    def short_multi(self, multi_machine_scenario):
        return replace(multi_machine_scenario,
                       sim=replace(multi_machine_scenario.sim, duration_s=30.0))

    def test_alpha_below_one_named(self, two_machine_scenario):
        with pytest.raises(ScenarioError, match=r"^\$\.controllers\.alpha: must be >= 1"):
            run(replace(two_machine_scenario, alpha=0.9))

    def test_pinned_alpha_solves_nothing(self, short_multi, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_max_nadir called")

        monkeypatch.setattr(sim.to, "solve_max_nadir", no_solve)
        sc = replace(short_multi, alpha=1.3087744209468601)
        out = sim.compare_strategies(sc)
        assert out["optimal_aapc"][0].alpha == sc.alpha
        rows, _ = sim.insensitivity_sweep(sc, [0.01, 0.02], reference_nadir_per_pd=-0.2)
        assert len(rows) == 2

    def test_one_operating_point_per_turbine(self, short_multi, two_machine_scenario,
                                             monkeypatch):
        calls = []

        def counting(spec, *args, **kwargs):
            calls.append(spec)
            return make_state(spec, *args, **kwargs)

        _cpus(monkeypatch, 1)  # every run in this process, where the count is
        monkeypatch.setattr(sim, "make_state", counting)
        sim.compare_strategies(replace(short_multi, alpha=1.3087744209468601))
        assert len(calls) == 3 * len(short_multi.turbines) == 15
        calls.clear()
        trip = DisturbanceEvent(time_s=0.0, kind="generation_trip", unit="G1", fraction=0.1)
        run(replace(two_machine_scenario, events=(trip,), alpha=1.19))
        assert len(calls) == 1
