"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (straight to the real stdout, so the
summary survives pytest's capture) and then asserts.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from windfreq import collocation as coll
from windfreq import trajopt as to
from windfreq.aapc import synthesize
from windfreq.scenario import DisturbanceEvent
from windfreq.simulator import compare_strategies, insensitivity_sweep, metrics, run

from reference import (min_integral_variant, node_trace, solve_lti_collocation,
                       target_response, theorem_checks)


RESULT_LINES: list = []


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
    if detail:
        line += f"  ({detail})"
    RESULT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def multi_solution(multi_machine_scenario):
    sc = multi_machine_scenario
    prob = to.build_problem(sc.grid, list(sc.governors),
                            sc.solver.hypothetical_p_d_pu, sc.solver.t_f)
    return to.solve_max_nadir(prob, coll.make_grid(sc.solver.nodes, sc.solver.t_f))


def test_criterion_1_collocation_correctness():
    # warm the kernels so the budget measures the method, not the JIT
    coll.make_grid(5, 1.0)
    t0 = time.perf_counter()
    errs = {}
    for order in (5, 10, 20):
        g = coll.make_grid(order, 5.0)
        states, terminal = solve_lti_collocation(np.array([[-1.0]]), [1.0], g)
        vals = np.concatenate([[1.0], states[:, 0]])
        tt = np.linspace(0.0, 5.0, 2000)
        errs[order] = max(
            float(np.max(np.abs(coll.interpolate(g, vals, tt, "state") - np.exp(-tt)))),
            abs(float(terminal[0]) - np.exp(-5.0)),
        )
    elapsed = time.perf_counter() - t0
    spectral = errs[10] < errs[5] / 10.0 and (errs[20] < errs[10] / 10.0 or errs[20] < 1e-13)
    ok = errs[20] <= 1e-8 and spectral and elapsed < 1.0
    report(1, "collocation reproduces exp(-t) to 1e-8 with spectral convergence",
           ok, f"err(K=20)={errs[20]:.2e}, errs={errs[5]:.1e}/{errs[10]:.1e}/{errs[20]:.1e}, "
               f"{elapsed*1e3:.0f} ms")


def test_criterion_2_trajopt_shape(two_machine_problem, two_machine_grid):
    to.solve_max_nadir(two_machine_problem, coll.make_grid(12, 30.0))  # warm
    t0 = time.perf_counter()
    opt = to.solve_max_nadir(two_machine_problem, coll.make_grid(60, 30.0))
    sol = to.extract_solution(opt)
    elapsed = time.perf_counter() - t0
    terminal_pinned = abs(sol.terminal_df_pu - sol.nadir_pu) <= 0.01 * abs(sol.nadir_pu)
    energy = abs(sol.terminal_denergy) <= 1e-8
    t = np.arange(0.0, sol.t_f + 5e-4, 1e-3)  # the node polynomial at 1 ms
    fine = theorem_checks(t, *node_trace(opt, t), two_machine_grid, sol.p_d_pu,
                          sol.nadir_pu, sol.terminal_df_pu)
    identity = abs(fine.identity_residual) <= 1e-6 and abs(sol.eq25_residual) <= 1e-6
    band = sol.t >= 0.2 * sol.t_f
    hold = np.max(np.abs(sol.df_pu[band] - sol.nadir_pu)) <= 0.02 * abs(sol.nadir_pu)
    ok = terminal_pinned and energy and identity and hold and elapsed < 10.0
    report(2, "optimal trajectory holds a terminal-pinned constant nadir", ok,
           f"terminal_gap={abs(sol.terminal_df_pu - sol.nadir_pu)/abs(sol.nadir_pu):.2e}, "
           f"dE(tf)={sol.terminal_denergy:.1e}, identity={fine.identity_residual:.1e}, "
           f"{elapsed:.1f} s")


def test_criterion_3_integral_equivalence(two_machine_problem, grid_k60,
                                          two_machine_solution):
    mi = min_integral_variant(two_machine_problem, grid_k60,
                              nadir_floor=two_machine_solution.nadir_pu)
    rel = abs(mi.nadir_pu - two_machine_solution.nadir_pu) / abs(two_machine_solution.nadir_pu)
    report(3, "integral-minimizing objective reaches the same nadir",
           rel <= 0.005, f"rel={rel:.2e}")


def test_criterion_4_euler_oracle(two_machine_problem, two_machine_solution):
    euler = to.euler_oracle(two_machine_problem, 3000)
    rel = abs(two_machine_solution.nadir_pu - euler.nadir_pu) / abs(euler.nadir_pu)
    report(4, "collocation (K=60) agrees with the Euler reference (N=3000)",
           rel <= 0.005, f"rel={rel:.2e}")


def test_criterion_5_synthesis_consistency(two_machine_scenario, two_machine_grid,
                                           two_machine_solution):
    sc = replace(two_machine_scenario, exit_enabled=False)
    res = run(replace(sc, alpha=two_machine_solution.alpha))
    rec = metrics(res, nadir_ref_pu=two_machine_solution.nadir_pu)
    limits_inactive = not rec.limit_events
    nadir_rel = abs(rec.nadir_pu - two_machine_solution.nadir_pu) / abs(
        two_machine_solution.nadir_pu)
    ctrl = synthesize(two_machine_grid, list(sc.governors), two_machine_solution.alpha)
    mask = res.t <= 30.0
    ref = target_response(ctrl, res.t[mask], 0.075)
    shape_rel = float(np.max(np.abs(res.df_pu[mask] - ref))) / abs(
        two_machine_solution.nadir_pu)
    ok = limits_inactive and nadir_rel <= 0.02 and shape_rel <= 0.01
    report(5, "closed loop reproduces the optimum and the first-order target", ok,
           f"nadir_rel={nadir_rel:.2e}, shape_rel={shape_rel:.2e}, "
           f"limits_inactive={limits_inactive}")


def test_criterion_6_study_constants(two_machine_scenario, two_machine_solution):
    alpha = two_machine_solution.alpha
    ctrl = synthesize(two_machine_scenario.grid, list(two_machine_scenario.governors),
                      alpha)
    ok = abs(alpha - 1.186) <= 0.05 and abs(ctrl.gain_kw - (-14.1)) <= 0.5
    report(6, "shipped calibration reproduces alpha = 1.186 and K_w = -14.1", ok,
           f"alpha={alpha:.4f}, K_w={ctrl.gain_kw:.4f}")


def test_criterion_7_event_insensitivity(two_machine_scenario, two_machine_solution):
    load = two_machine_scenario.grid.load_pu
    ref_per_pd = two_machine_solution.nadir_pu / 0.075
    fracs = np.linspace(0.02, 0.10, 9)
    rows, p_d_max = insensitivity_sweep(
        replace(two_machine_scenario, alpha=two_machine_solution.alpha),
        [f * load for f in fracs], reference_nadir_per_pd=ref_per_pd)
    in_band = all(r["e_r_pct"] <= 5.0 for r in rows)

    extreme_pd = 0.3 * load
    ev = (DisturbanceEvent(time_s=0.0, kind="load_surge", magnitude_pu=extreme_pd),)
    out = compare_strategies(replace(two_machine_scenario, events=ev),
                             ("classic_vic", "optimal_aapc"))
    rec_aapc = metrics(out["optimal_aapc"][0], nadir_ref_pu=ref_per_pd * extreme_pd)
    rec_vic = out["classic_vic"][1]
    degraded = rec_aapc.e_r_pct > 5.0
    saturated = bool(out["optimal_aapc"][0].exit_events) and any(
        e["kind"] == "speed_floor" for e in out["optimal_aapc"][0].exit_events)
    still_better = abs(rec_aapc.nadir_hz) < abs(rec_vic.nadir_hz)
    ok = in_band and degraded and saturated and still_better
    report(7, "insensitive across [0.02, 0.10] load; extreme deficit degrades "
              "yet beats the fixed-gain baseline", ok,
           f"max in-band e_r={max(r['e_r_pct'] for r in rows):.2f}%, "
           f"extreme e_r={rec_aapc.e_r_pct:.1f}%, "
           f"aapc={rec_aapc.nadir_hz:+.3f} Hz vs vic={rec_vic.nadir_hz:+.3f} Hz")


def test_criterion_8_strategy_ordering(two_machine_scenario, multi_machine_scenario,
                                       two_machine_solution, multi_solution):
    cases = {
        "two_machine/surge": (two_machine_scenario, two_machine_scenario.events,
                              two_machine_solution.alpha),
        "two_machine/trip": (
            two_machine_scenario,
            (DisturbanceEvent(time_s=0.0, kind="generation_trip", unit="G1",
                              fraction=0.12),),
            two_machine_solution.alpha),
        "multi_machine/surge": (multi_machine_scenario, multi_machine_scenario.events,
                                multi_solution.alpha),
        "multi_machine/trip": (
            multi_machine_scenario,
            (DisturbanceEvent(time_s=0.0, kind="generation_trip", unit="G7",
                              fraction=1.0),),
            multi_solution.alpha),
    }
    details = []
    ok = True
    for name, (base, events, alpha) in cases.items():
        sc = replace(base, events=tuple(events), alpha=alpha)
        out = compare_strategies(sc)
        n = out["none"][1].nadir_hz
        v = out["classic_vic"][1].nadir_hz
        a = out["optimal_aapc"][1].nadir_hz
        ordered = abs(a) < abs(v) < abs(n)
        ok = ok and ordered
        details.append(f"{name}: {a:+.3f} < {v:+.3f} < {n:+.3f} {'ok' if ordered else 'VIOLATED'}")
    report(8, "nadir ordering optimal < baseline < no-support on both systems "
              "and both event kinds", ok, "; ".join(details))


def test_criterion_9_exit_strategy(two_machine_scenario, two_machine_solution):
    checks = []
    # crossing case: command meets the sagged tracking curve inside the window
    sc_a = replace(two_machine_scenario,
                   sim=replace(two_machine_scenario.sim, duration_s=240.0))
    # no-crossing case: deeper deficit, the window closes the support instead
    ev_b = (DisturbanceEvent(time_s=0.0, kind="load_surge",
                             magnitude_pu=0.15 * two_machine_scenario.grid.load_pu),)
    sc_b = replace(sc_a, events=ev_b)
    for tag, sc in (("cross", sc_a), ("horizon", sc_b)):
        res = run(replace(sc, alpha=two_machine_solution.alpha))
        rec = metrics(res)
        ev = res.exit_events[0]
        t_e = ev["t_e_s"]
        i200 = min(np.searchsorted(res.t, t_e + 200.0), len(res.t) - 1)
        omega_ok = abs(res.wt_omega_rad_s[i200, 0] / res.wt_omega0[0] - 1.0) <= 0.01
        checks.append((tag, ev["kind"], ev["power_step_pu"] <= 1e-6,
                       not rec.secondary_dip, omega_ok))
    ok = all(c[2] and c[3] and c[4] for c in checks)
    report(9, "exit blends without a power step, no deeper second dip, rotor "
              "recovers within 200 s", ok,
           "; ".join(f"{t}:{k} step_ok={s} dip_ok={d} recover_ok={r}"
                     for t, k, s, d, r in checks))


def test_criterion_10_allocation(multi_machine_scenario, multi_solution):
    res = run(replace(multi_machine_scenario, alpha=multi_solution.alpha))
    rec = metrics(res)
    shares_sum = float(res.shares.sum())
    floors = np.array([t.spec.floor_speed_rad for t in multi_machine_scenario.turbines])
    no_floor = bool(np.all(res.wt_omega_rad_s.min(axis=0) >= floors - 1e-12)) \
        and not any(e["kind"] == "speed_floor" for e in res.exit_events)
    caps = np.array([t.spec.p_max_fleet_mw for t in multi_machine_scenario.turbines])
    no_overpower = bool(np.all(res.wt_pe_mw.max(axis=0) <= caps + 1e-9)) \
        and not rec.limit_events

    uniform = replace(multi_machine_scenario, allocation=(0.2,) * 5)
    res_u = run(replace(uniform, alpha=multi_solution.alpha))
    rec_u = metrics(res_u)
    ablation_limited = bool(rec_u.limit_events) or any(
        e["kind"] == "speed_floor" for e in res_u.exit_events)

    ok = shares_sum == 1.0 and no_floor and no_overpower and ablation_limited
    report(10, "capability allocation avoids every limit the uniform ablation hits",
           ok, f"sum={shares_sum!r}, floors_ok={no_floor}, power_ok={no_overpower}, "
               f"ablation_limited={ablation_limited}")


def test_criterion_11_energy_balance(two_machine_scenario, two_machine_solution):
    res = run(replace(two_machine_scenario, alpha=two_machine_solution.alpha))
    rec = metrics(res)
    fine = run(replace(two_machine_scenario,
                       sim=replace(two_machine_scenario.sim, step_s=0.005),
                       alpha=two_machine_solution.alpha))
    nadir_shift = abs(res.df_pu.min() - fine.df_pu.min()) / abs(res.df_pu.min())
    ok = rec.max_swing_residual <= 1e-8 and nadir_shift < 1e-4
    report(11, "swing-equation balance at every step; step halving moves "
               "the nadir < 0.01%", ok,
           f"residual={rec.max_swing_residual:.1e}, halving_shift={nadir_shift:.1e}")
