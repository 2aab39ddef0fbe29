"""The generated closed-loop kernel against the loop kernel it replaced.

``loop_rhs`` is the loop right-hand side the package ran before each
scenario's kernel was generated as straight-line code, and ``loop_step``
runs it one step at a time: with h > 0 one RK4 step of y from the
derivative in asm.k1 and the floor hold, then, for every h, the evaluation
at y into asm.k1 and the records. ``loop_advance`` runs ``loop_step`` under
the generated kernel's contract, a step loop that records, steps and checks
the exit triggers one step at a time, as the driver did before a stretch
of steps ran in one generated call. They call each law through a function
compiled from its template, as the kernel writes it inline: the package's
law functions, the controller laws of ``reference``, and ``applied_power``
and ``floor_hold`` here, which take the AAPC mode test that the package's
``turbine._applied_power_w`` leaves out. ``loop_kernel`` stands in for
``simulator._compile_kernel`` and hands them the same constants, so an
assembly (or a whole ``run``) can go through either kernel. Every comparison
is bitwise, on the ``repr`` of the floats.
"""

import gc
import inspect
import linecache
import math
import re
import textwrap
import traceback
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from windfreq import simulator as sim
from windfreq.aapc import (ARMING_LAW, COMMAND_LAW, EXIT_TRIGGER_LAW, VIC_COMMAND_LAW,
                           VIC_FILTER_RATE_LAW, check_exit, exit_power)
from windfreq.codegen import law_function
from windfreq.grid import GovernorSpec
from windfreq.presets import load_preset
from windfreq.scenario import DisturbanceEvent, scenario_from_dict
from windfreq.turbine import (APPLIED_POWER_LAW, FLOOR_HOLD_LAW, TRACKING_POWER_LAW,
                              TURBINE_POWER_LAW, _mppt_power_w, _turbine_power_w)

from reference import (arms_power_cross, command_pu, mirror_output, vic_command_mw,
                       vic_filter_rate)


# ---------------------------------------------------------------------------
# the loop kernel
# ---------------------------------------------------------------------------

# the floor laws of a turbine whose controller is the AAPC; under any other
# controller the mode is never MODE_AAPC, and the kernel drops the test
_AAPC_WAITS = f"mode != {sim.MODE_AAPC} and "
applied_power = law_function(
    __name__, "applied_power", ("p_cmd", "p_min", "p_max", "omega", "floor", "p_t", "mode"),
    "p, flags",
    APPLIED_POWER_LAW.format(p_cmd="p_cmd", p_min="p_min", p_max="p_max", p="p",
                             flags="flags", mode_test=_AAPC_WAITS, omega="omega",
                             floor="floor", p_t="p_t"),
    "(applied power, limit flags) of the command p_cmd (``APPLIED_POWER_LAW``).")
floor_hold = law_function(
    __name__, "floor_hold", ("omega", "floor", "mode"), "omega",
    FLOOR_HOLD_LAW.format(mode_test=_AAPC_WAITS, omega="omega", floor="floor"),
    "Rotor speed omega held on its floor at the end of a step (``FLOOR_HOLD_LAW``).")


def loop_rhs(asm, y, dy):
    """Closed-loop derivative of the state list y into dy, one loop per sum."""
    k = asm.loop
    base_w = asm.base_w
    vic = sim.MODE_VIC in asm.ctrl_mode  # the filter state z is last, if there is one
    df = y[0]
    z = y[-1] if vic else None
    x_gov = y[1:base_w]
    # governor rates: each row's nonzeros of A_g in column order, then B_g df
    for s, (row, b) in enumerate(zip(k.gov_rows, k.b_g), 1):
        rate = 0.0
        for col, a in row:
            rate += a * x_gov[col]
        dy[s] = rate + b * df

    # one output term per unit and state of its group, then the feedthroughs
    gov_scale = asm.gov_scale
    pm = 0.0
    for u, (first, c_u, _) in enumerate(k.units):
        for s, c in enumerate(c_u):
            pm += gov_scale[u] * c * x_gov[first + s]
    for u, (_, _, d) in enumerate(k.units):
        pm += gov_scale[u] * d * df
    mirror_pu = mirror_output(k.mirror_d, k.mirror_c, x_gov, df)

    s_base_w = asm.s_base_w
    modes = asm.modes
    pe_dev = 0.0
    for j, (v_w, pitch, radius, power_scale, k_opt_w, p_min_w, p_max_w, floor_rad,
            p_e0_w, j_fleet, share) in enumerate(asm.wt):
        omega = y[base_w + j]
        p_t = _turbine_power_w(omega, v_w, pitch, radius, power_scale)
        p_mppt = _mppt_power_w(omega, k_opt_w, p_min_w, p_max_w)
        mode = modes[j]
        if mode == sim.MODE_AAPC:
            p_cmd = p_e0_w + command_pu(share, mirror_pu, asm.kw, df) * s_base_w
        elif mode == sim.MODE_VIC:
            p_cmd = p_e0_w + vic_command_mw(asm.vic, df, z, asm.f_base) * 1e6
        elif mode == sim.MODE_EXITED:
            p_cmd = exit_power(asm.gamma[j], p_t, p_mppt)
        else:  # tracking
            p_cmd = p_mppt

        p_app, flags = applied_power(p_cmd, p_min_w, p_max_w, omega, floor_rad, p_t, mode)

        asm.wt_pe_w[j] = p_app
        asm.wt_pt_w[j] = p_t
        asm.wt_mppt_w[j] = p_mppt
        asm.wt_flags[j] = flags
        pe_dev += (p_app - p_e0_w) / s_base_w
        dy[base_w + j] = (p_t - p_app) / (j_fleet * omega)

    if vic:
        dy[-1] = vic_filter_rate(asm.vic, df, z)
    dy[0] = (pm + pe_dev - asm.p_d - asm.damping * df) / asm.two_h
    return pm, pe_dev


def loop_step(asm, y, h):
    """With h > 0, advance y by one RK4 step of size h in place from the
    derivative in asm.k1; then evaluate y into asm.k1 and the records, and
    return (pm, pe_dev)."""
    if h:
        k1 = asm.k1
        k2, k3, k4 = ([0.0] * len(y) for _ in range(3))
        half = 0.5 * h
        loop_rhs(asm, [a + half * k for a, k in zip(y, k1)], k2)
        loop_rhs(asm, [a + half * k for a, k in zip(y, k2)], k3)
        loop_rhs(asm, [a + h * k for a, k in zip(y, k3)], k4)
        sixth = h / 6.0
        y[:] = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        base_w = asm.base_w
        for j, wt in enumerate(asm.wt):
            y[base_w + j] = floor_hold(y[base_w + j], wt.floor_rad, asm.modes[j])
    dy = [0.0] * len(y)
    out = loop_rhs(asm, y, dy)
    asm.k1 = dy
    return out


def loop_advance(asm, y, h, i=0, stop=0):
    """The generated kernel's contract (``simulator._kernel_source``), one
    ``loop_step`` per step: with i < stop, record row i, step, and check the
    exit triggers of each AAPC turbine at the next step, until a trigger
    fires, step ``stop`` or the row of the last step; otherwise one
    ``loop_step``. Returns (i, exit_j, kind)."""
    if i >= stop:
        asm.pm_pe = loop_step(asm, y, h)
        return i, -1, None
    tr, base_w, n_wt = asm.traces, asm.base_w, asm.n_wt
    while True:
        tr.put(i * tr.row_bytes, y[0], *asm.pm_pe, asm.k1[0], asm.p_d,
               *y[base_w:base_w + n_wt], *asm.wt_pe_w, *asm.wt_flags)
        if i == asm.n_steps:
            return i, -1, None
        y_start, k1_start = list(y), list(asm.k1)
        asm.pm_pe = loop_step(asm, y, h)
        i += 1
        for j in range(n_wt):
            if asm.exit_enabled and asm.modes[j] == sim.MODE_AAPC:
                asm.stats["exit_checks"] += 1
                kind = check_exit(asm.wt_pe_w[j], asm.wt_mppt_w[j], y[base_w + j],
                                  asm.wt[j].floor_rad, i * asm.dt, asm.t_support_end,
                                  asm.armed[j])
                if kind is not None:
                    asm.y_snapshot, asm.k1_snapshot = y_start, k1_start
                    return i, j, kind
                asm.armed[j] = asm.armed[j] or arms_power_cross(asm.wt_pe_w[j],
                                                                asm.wt_mppt_w[j])
        if i == stop:
            return i, -1, None


def loop_kernel(asm, gov, units, mirror_d, mirror_c):
    """``simulator._compile_kernel`` with the loop kernel in place of the generated one."""
    asm.loop = SimpleNamespace(
        gov_rows=[[(c, float(row[c])) for c in np.flatnonzero(row).tolist()] for row in gov.a],
        b_g=gov.b[:, 0].tolist(), units=units, mirror_d=mirror_d, mirror_c=mirror_c)
    return loop_advance


def _loop_assembly(monkeypatch, sc, alpha):
    with monkeypatch.context() as m:
        m.setattr(sim, "_compile_kernel", loop_kernel)
        return sim._Assembled(sc, alpha)


# ---------------------------------------------------------------------------
# scenario shapes
# ---------------------------------------------------------------------------

def _preset(name):
    return scenario_from_dict(load_preset(name))


def _mixed(sc):
    """The scenario with its turbines' controllers cycling through the three."""
    controllers = ("optimal_aapc", "classic_vic", "none")
    return replace(sc, turbines=tuple(replace(t, controller=controllers[j % 3])
                                      for j, t in enumerate(sc.turbines)))


def _tripped(sc):
    """The scenario with its first governor unit tripped after its first event,
    if it has a governor: the kernel scales only the units a trip names."""
    if not sc.governors:
        return sc
    trip = DisturbanceEvent(time_s=sc.events[0].time_s + 1.0, kind="generation_trip",
                            unit=sc.governors[0].name, fraction=0.1)
    return replace(sc, events=sc.events + (trip,))


def _shape(name):
    return _tripped(_untripped_shape(name))


def _untripped_shape(name):
    sc = _preset("multi_machine" if name == "multi_machine" else "two_machine")
    if name == "second_order_governor":
        # a second-order block, whose A_g has off-diagonal entries
        g2 = GovernorSpec(name="G2", rated_mva=150.0, num=(-3.0, -6.0), den=(2.0, 3.0, 1.0))
        sc = replace(sc, governors=sc.governors + (g2,))
    elif name == "no_governors":
        sc = _mixed(_preset("multi_machine"))
        sc = replace(sc, governors=(), events=sc.events[:1])
    elif name == "no_turbines":
        sc = replace(sc, turbines=())
    elif name == "pitch":
        sc = replace(sc, turbines=tuple(replace(t, pitch_deg=2.5) for t in sc.turbines))
    elif name == "mixed_controllers":
        sc = _mixed(_preset("multi_machine"))
    elif name == "big_fleet":
        first = GovernorSpec(name="G", rated_mva=2.0, num=(-1.0,), den=(0.5, 1.0))
        second = GovernorSpec(name="G", rated_mva=2.0, num=(-3.0, -6.0), den=(2.0, 3.0, 1.0))
        govs = tuple(replace(first if i % 3 else second, name=f"G{i}") for i in range(300))
        wt = sc.turbines[0]
        turbines = tuple(replace(wt, name=f"WT{j}", wind_speed_ms=8.0 + 0.03 * j)
                         for j in range(100))
        sc = _mixed(replace(sc, governors=govs, turbines=turbines))
    return sc


SHAPES = ["two_machine", "multi_machine", "mixed_controllers", "second_order_governor",
          "no_governors", "no_turbines", "pitch", "big_fleet"]


def _reachable_modes(ctrl):
    """Modes a turbine whose controller runs mode ``ctrl`` can be in: tracking
    until the event, then ``ctrl``; an AAPC turbine can also exit."""
    return {sim.MODE_TRACKING, ctrl} | ({sim.MODE_EXITED} if ctrl == sim.MODE_AAPC else set())


def _draw(rng, asm):
    """A seeded random closed-loop state: the state list and the run-time state.

    Each turbine's mode is one it can reach (``_reachable_modes``).
    """
    n_wt = asm.n_wt
    y = list(asm.y0)
    y[0] = float(rng.normal(0.0, 0.02))
    for s in range(1, asm.base_w):
        y[s] = float(rng.normal(0.0, 0.05))
    for j, wt in enumerate(asm.wt):
        # some rotors exactly on their floor, some below it, most above
        u = rng.random()
        y[asm.base_w + j] = (wt.floor_rad if u < 0.15
                             else float(wt.floor_rad * rng.uniform(0.9, 1.0)) if u < 0.3
                             else float(asm.omega0[j] * rng.uniform(0.8, 1.2)))
    if sim.MODE_VIC in asm.ctrl_mode:
        y[-1] = float(rng.normal(0.0, 0.02))  # the VIC filter state
    return y, {
        "modes": [int(rng.choice(sorted(_reachable_modes(c)))) for c in asm.ctrl_mode],
        "gamma": [float(v) for v in rng.uniform(0.0, 1.0, n_wt)],
        # each unit a trip names scaled by a random share
        "gov_scale": [float(rng.uniform(0.5, 0.99)) if u in asm.tripped else 1.0
                      for u in range(len(asm.gov_scale))],
        "p_d": float(rng.uniform(0.0, 0.1)),
    }


def _set(asm, state):
    for name, value in state.items():
        setattr(asm, name, list(value) if isinstance(value, list) else value)


def _records(asm):
    return repr((asm.wt_pe_w, asm.wt_pt_w, asm.wt_mppt_w, asm.wt_flags, asm.pm_pe))


def _split(src):
    """(the source before the right-hand side, the right-hand side, the rest)
    of a generated kernel's source."""
    head, rest = src.split("\n            # the right-hand side\n")
    rhs, tail = rest.split("\n            if weight:\n")
    return head + "\n", rhs + "\n", "            if weight:\n" + tail


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

# one fleet at the edges of its laws: limits [1, 5] MW, floor 0.8 rad/s and a
# turbine power of 3 MW
P_MIN, P_MAX, FLOOR, P_T = 1.0e6, 5.0e6, 0.8, 3.0e6


class TestFloorLaws:
    @pytest.mark.parametrize("p_cmd, expected", [
        (5.0e6, (5.0e6, 0)),
        (5000000.000000001, (5.0e6, 1)),
        (4999999.999999999, (4999999.999999999, 0)),
        (1.0e6, (1.0e6, 0)),
        (999999.9999999999, (1.0e6, 1)),
        (1000000.0000000001, (1000000.0000000001, 0)),
    ])
    def test_clamp_at_the_power_limits(self, p_cmd, expected):
        # the rotor is above its floor, so only the clamp acts
        assert math.nextafter(5.0e6, math.inf) == 5000000.000000001
        assert math.nextafter(1.0e6, 0.0) == 999999.9999999999
        for mode in (sim.MODE_TRACKING, sim.MODE_AAPC, sim.MODE_EXITED, sim.MODE_VIC):
            assert applied_power(p_cmd, P_MIN, P_MAX, 1.2, FLOOR, P_T, mode) == expected

    @pytest.mark.parametrize("omega, p_cmd, expected", [
        (0.8, 4.0e6, (3.0e6, 2)),
        (0.7999999999999999, 4.0e6, (3.0e6, 2)),
        (0.8000000000000002, 4.0e6, (4.0e6, 0)),
        (0.8, 3.0e6, (3.0e6, 0)),             # p = P_t: nothing to cut
        (0.7999999999999999, 2.0e6, (2.0e6, 0)),
        (0.8, 6.0e6, (3.0e6, 3)),             # clamped, then cut back
    ])
    def test_cutback_at_the_floor(self, omega, p_cmd, expected):
        assert math.nextafter(0.8, 0.0) == 0.7999999999999999
        assert math.nextafter(0.8, math.inf) == 0.8000000000000002
        for mode in (sim.MODE_TRACKING, sim.MODE_EXITED, sim.MODE_VIC):
            assert applied_power(p_cmd, P_MIN, P_MAX, omega, FLOOR, P_T, mode) == expected

    def test_no_cutback_under_aapc(self):
        # the AAPC turbine leaves by its floor exit; its power limits still bind
        for omega in (0.8, 0.7999999999999999, 0.5):
            assert applied_power(4.0e6, P_MIN, P_MAX, omega, FLOOR, P_T,
                                 sim.MODE_AAPC) == (4.0e6, 0)
            assert applied_power(6.0e6, P_MIN, P_MAX, omega, FLOOR, P_T,
                                 sim.MODE_AAPC) == (5.0e6, 1)

    @pytest.mark.parametrize("omega, held", [
        (0.7999999999999999, 0.8),
        (0.8, 0.8),
        (0.8000000000000002, 0.8000000000000002),
        (0.5, 0.8),
    ])
    def test_hold_at_the_floor(self, omega, held):
        for mode in (sim.MODE_TRACKING, sim.MODE_EXITED, sim.MODE_VIC):
            assert floor_hold(omega, FLOOR, mode) == held
        assert floor_hold(omega, FLOOR, sim.MODE_AAPC) == omega


class TestReference:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rhs_and_step_match_loop(self, monkeypatch, shape):
        sc = _shape(shape)
        gen = sim._Assembled(sc, 1.2)
        ref = _loop_assembly(monkeypatch, sc, 1.2)
        assert gen.advance is not loop_advance and ref.advance is loop_advance
        assert gen.kw != 0.0 or shape == "no_turbines"
        assert gen.tripped == ([0] if shape != "no_governors" else [])
        if shape == "second_order_governor":
            assert gen.m_gov == 3
            assert any(c != s for s, row in enumerate(ref.loop.gov_rows) for c, _ in row)
        # a turbine that no controller drives has its laws at its operating
        # speed w0 as literals, under a test of its speed against w0: three
        # more draws put its rotor on w0 and one ulp either side
        tracking = [j for j, c in enumerate(gen.ctrl_mode) if c == sim.MODE_TRACKING]
        src = inspect.getsource(gen.advance)
        assert [j for j in range(gen.n_wt)
                if f"if w{j} == {sim._lit(gen.omega0[j])}:" in src] == tracking
        assert bool(tracking) == (shape in ("mixed_controllers", "no_governors", "big_fleet"))
        rng = np.random.default_rng(sum(map(ord, shape)))
        seen_modes, seen_flags = set(), set()
        draws = 200 if gen.n_wt < 50 else 4
        for k in range(draws + 3 * bool(tracking)):
            y, state = _draw(rng, gen)
            for j in tracking if k >= draws else ():
                w0 = gen.omega0[j]
                y[gen.base_w + j] = (w0, math.nextafter(w0, 0.0),
                                     math.nextafter(w0, math.inf))[k - draws]
            seen_modes.update(state["modes"])
            out = {}
            for asm in (gen, ref):
                _set(asm, state)
                ret = asm.advance(asm, list(y), 0.0)
                dy = list(asm.k1)
                assert all(type(v) is float for v in dy)
                rhs_records = _records(asm)
                y1 = list(y)
                ret1 = asm.advance(asm, y1, 0.01)
                out[asm is gen] = (repr(dy), repr(ret), rhs_records, repr(y1), repr(asm.k1),
                                   repr(ret1), _records(asm))
            assert out[True] == out[False]
            seen_flags.update(gen.wt_flags)
        if gen.n_wt:
            assert seen_modes == set().union(*map(_reachable_modes, gen.ctrl_mode))
            assert any(f & sim.FLAG_POWER_LIMIT for f in seen_flags)
        if sim.MODE_VIC in gen.ctrl_mode:
            # tracking and the exit blend stay below the turbine power at the
            # floor; the VIC command is what the cutback catches
            assert any(f & sim.FLAG_FLOOR for f in seen_flags)

    @pytest.mark.parametrize("pitch", [0.0, 2.5])
    def test_rhs_matches_loop_at_law_edges(self, monkeypatch, pitch):
        # rotor speeds at and around the laws' clamp edges, and tip-speed
        # ratios from 1 to 40: C_p < 0 from about 12.8 at zero pitch and
        # 1 / lambda_i <= 0 from about 28.6; p_min > 0 so that the tracking
        # power meets its lower clamp too
        sc = _mixed(_preset("multi_machine"))
        sc = replace(sc, turbines=tuple(
            replace(t, pitch_deg=pitch, spec=replace(t.spec, p_min_mw=1.0)) for t in sc.turbines))
        gen = sim._Assembled(sc, 1.2)
        ref = _loop_assembly(monkeypatch, sc, 1.2)
        c = 0.035 / (pitch ** 3 + 1.0)
        edge_tsrs = [1.0 / (5.0 / 116.0 + 0.4 * pitch / 116.0 + c) - 0.08 * pitch,  # C_p = 0
                     1.0 / c - 0.08 * pitch]  # 1 / lambda_i = 0
        speeds = [[] for _ in gen.wt]
        for j, wt in enumerate(gen.wt):
            edges = [tsr * wt.wind_ms / wt.radius_m for tsr in edge_tsrs]
            edges += [(p / wt.k_opt_w) ** (1.0 / 3.0) for p in (wt.p_min_w, wt.p_max_w)]
            edges.append(wt.floor_rad)
            for e in edges:
                speeds[j] += [float(np.nextafter(e, 0.0)), e, float(np.nextafter(e, np.inf))]
            speeds[j] += [tsr * wt.wind_ms / wt.radius_m for tsr in np.linspace(1.0, 40.0, 79)]
            speeds[j] += [wt.floor_rad * f for f in (0.5, 0.9, 0.99)]
        rng = np.random.default_rng(7)
        records = []
        for i in range(len(speeds[0])):
            y, state = _draw(rng, gen)
            for j in range(gen.n_wt):
                y[gen.base_w + j] = speeds[j][i]
            out = {}
            for asm in (gen, ref):
                _set(asm, state)
                ret = asm.advance(asm, list(y), 0.0)
                out[asm is gen] = (repr(asm.k1), repr(ret), _records(asm))
            assert out[True] == out[False]
            for j, wt in enumerate(gen.wt):
                assert repr(gen.wt_pt_w[j]) == repr(_turbine_power_w(
                    y[gen.base_w + j], wt.wind_ms, pitch, wt.radius_m, wt.power_scale))
                assert repr(gen.wt_mppt_w[j]) == repr(_mppt_power_w(
                    y[gen.base_w + j], wt.k_opt_w, wt.p_min_w, wt.p_max_w))
            records.append((list(gen.wt_pt_w), list(gen.wt_mppt_w), list(gen.wt_flags)))
        pt, mppt, flags = (np.array(r) for r in zip(*records))
        assert np.any(pt == 0.0) and np.any(pt > 0.0)
        assert np.any(mppt == [wt.p_min_w for wt in gen.wt])
        assert np.any(mppt == [wt.p_max_w for wt in gen.wt])
        assert np.any(flags & sim.FLAG_FLOOR)

    @pytest.mark.parametrize("preset, strategy, trip", [
        ("two_machine", "none", False),
        ("two_machine", "classic_vic", False),
        ("two_machine", "optimal_aapc", False),
        ("two_machine", "optimal_aapc", True),
        ("multi_machine", "none", False),
        ("multi_machine", "classic_vic", False),
        ("multi_machine", "optimal_aapc", False),
    ])
    def test_run_matches_loop(self, monkeypatch, preset, strategy, trip):
        alpha = {"two_machine": 1.1870649147208707, "multi_machine": 1.3087744209468601}
        sc = sim._with_controllers(_preset(preset), strategy)
        if trip:
            sc = replace(sc, events=(DisturbanceEvent(time_s=0.0, kind="generation_trip",
                                                      unit="G1", fraction=0.1),))
        a = alpha[preset] if strategy == "optimal_aapc" else None
        gen = _assert_run_matches_loop(monkeypatch, replace(sc, alpha=a))
        assert (len(gen.exit_events) > 0) == (strategy == "optimal_aapc")

    @pytest.mark.parametrize("case", ["surge_then_trip", "exit_before_event", "exit_at_event",
                                      "two_exits"])
    def test_stretch_ends_match_loop(self, monkeypatch, case):
        # a stretch of steps ends at an event, at an exit, or at both on one
        # step; the loop kernel takes every step on its own
        two, multi = _preset("two_machine"), _preset("multi_machine")
        surge = two.events[0]
        if case == "surge_then_trip":  # the trip lands while the AAPC is active
            sc = replace(two, alpha=1.1870649147208707, events=(
                replace(surge, time_s=2.0),
                DisturbanceEvent(time_s=10.0, kind="generation_trip", unit="G1", fraction=0.1)))
        elif case == "two_exits":  # two AAPC turbines, each exiting on its own
            controllers = ("optimal_aapc", "optimal_aapc", "none", "classic_vic", "none")
            sc = replace(multi, alpha=1.3087744209468601, turbines=tuple(
                replace(t, controller=c) for t, c in zip(multi.turbines, controllers)))
        else:
            # the power cross is found at the check of step 2878 (28.78 s); a
            # second surge lands on the step after it, or on that step
            t_event = 28.79 if case == "exit_before_event" else 28.78
            sc = replace(two, alpha=1.1870649147208707, events=(
                surge, replace(surge, time_s=t_event, magnitude_pu=0.01)))
        gen = _assert_run_matches_loop(monkeypatch, sc)
        kinds = [(e["turbine"], e["kind"]) for e in gen.exit_events]
        assert kinds == {
            "surge_then_trip": [("WF1", "horizon")],
            "exit_before_event": [("WF1", "power_cross")],
            "exit_at_event": [("WF1", "power_cross")],
            "two_exits": [("WT1", "speed_floor"), ("WT2", "speed_floor")],
        }[case]
        if case.startswith("exit_"):
            # in the step that ends at 28.78 s, found by its one check per step
            assert 28.77 < gen.exit_events[0]["t_e_s"] < 28.78
            assert gen.stats["exit_checks"] == 2878


def _assert_run_matches_loop(monkeypatch, sc):
    """The run of sc through the generated kernel, checked bitwise against the
    loop kernel's: every trace, the exit events and the counts."""
    gen = sim.run(sc)
    with monkeypatch.context() as m:
        m.setattr(sim, "_compile_kernel", loop_kernel)
        ref = sim.run(sc)
    assert gen.t.size == 6001
    for name in ("df_pu", "dfdot_pu_s", "dpm_pu", "dpe_pu", "p_d_pu", "wt_pe_mw",
                 "wt_omega_rad_s", "wt_flags"):
        assert getattr(gen, name).tobytes() == getattr(ref, name).tobytes(), name
    assert repr(gen.exit_events) == repr(ref.exit_events)
    counts = ("steps", "segments", "exit_checks", "halvings", "rhs_evals")
    assert [gen.stats[k] for k in counts] == [ref.stats[k] for k in counts]
    return gen


class TestSource:
    def test_literals(self):
        assert sim._lit(-2.0) == "(-2.0)"
        assert eval(f"{sim._lit(-2.0)} ** 2") == 4.0
        assert eval(sim._lit(-0.0)).hex() == "-0x0.0p+0"
        assert eval(sim._lit(0.1 + 0.2)) == 0.1 + 0.2
        for bad in (1, np.float64(1.0), "1.0", float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite float"):
                sim._lit(bad)

    def test_getsource_shows_generated_lines(self, two_machine_scenario):
        asm = sim._Assembled(two_machine_scenario, 1.2)
        src = inspect.getsource(asm.advance)
        assert src.startswith("def advance(asm, y, h, i=0, stop=0):\n")
        head, rhs, tail = _split(src)
        # one right-hand side serves every evaluation of a step: the three
        # stages and the state the step reaches
        assert "        stages = ((half, 2.0), (half, 2.0), (h, 1.0), (h / 6.0, 0.0))\n" in head
        assert "        stages = ((0.0, 0.0),)\n" in head
        assert head.count("        for size, weight in stages:\n") == 1
        assert src.count("# turbine 0\n") == src.count("tsr0 = ") == 1
        # the turbine's laws are the templates with its literals in the slots
        wt = asm.wt[0]
        power = TURBINE_POWER_LAW.format(
            omega="w0", wind="(9.0)", pitch="(0.0)", radius="(45.0)",
            scale=sim._lit(wt.power_scale), tsr="tsr0", inv="inv0", cp="cp0", p_t="pt0")
        tracking = TRACKING_POWER_LAW.format(
            omega="w0", k_opt=sim._lit(wt.k_opt_w), p_min="(0.0)", p_max="(100000000.0)",
            p="mppt0")
        assert textwrap.indent(power + tracking, " " * 12) in rhs
        command = COMMAND_LAW.format(share="(1.0)", mirror="mirror", gain_kw=sim._lit(asm.kw),
                                     df="df")
        p_e0 = sim._lit(wt.p_e0_w)
        assert f"                p_cmd = {p_e0} + ({command}) * (200000000.0)\n" in rhs
        assert "                p_cmd = (1.0 - gamma[0]) * pt0 + gamma[0] * mppt0\n" in rhs
        # the floor laws wait for the AAPC turbine's exit
        floor = sim._lit(wt.floor_rad)
        applied = APPLIED_POWER_LAW.format(
            p_cmd="p_cmd", p_min="(0.0)", p_max="(100000000.0)", p="pe0", flags="fl0",
            mode_test="mode0 != 1 and ", omega="w0", floor=floor, p_t="pt0")
        assert textwrap.indent(applied, " " * 12) in rhs
        assert f"            if mode0 != 1 and w0 <= {floor} and pe0 > pt0:\n" in rhs
        # the hold acts on the state a step reaches, before its evaluation
        hold = FLOOR_HOLD_LAW.format(mode_test="mode0 != 1 and ", omega="w0", floor=floor)
        assert head.endswith("                w0 = y_w0 + size * s_w0\n"
                             + textwrap.indent(hold, " " * 16))
        # the exit checks at the step reached: the trigger and the arming,
        # with the turbine's names and literals in their slots
        trigger = EXIT_TRIGGER_LAW.format(
            omega="w0", floor=floor, t="i * (0.01)", t_f="t_f", kind="kind", armed="armed0",
            p_command="pe0", p_mppt="mppt0")
        assert textwrap.indent(trigger, " " * 12) in tail
        arming = ARMING_LAW.format(p_command="pe0", p_mppt="mppt0")
        assert f"                armed0 = {arming}\n" in tail
        assert tail.index("checks += 1") < tail.index("if i == stop:")
        # CPython folds the literal-only parts: (9.0) ** 3, and at zero pitch
        # 0.08 * (0.0), 0.4 * (0.0) and 0.035 / ((0.0) ** 3 + 1.0)
        consts = asm.advance.__code__.co_consts
        assert 729.0 in consts and 0.035 in consts
        assert 0.08 not in consts and 0.4 not in consts
        assert "sum(" not in src
        filename = asm.advance.__code__.co_filename
        assert re.fullmatch(r"<windfreq-kernel-\d+>", filename)
        assert (sim._Assembled(two_machine_scenario, 1.2).advance.__code__.co_filename
                != filename)

    def test_namespace_holds_no_law(self, multi_machine_scenario):
        # every law is inline: the kernel calls exp and nothing else by name
        for strategy in ("none", "classic_vic", "optimal_aapc"):
            asm = sim._Assembled(sim._with_controllers(multi_machine_scenario, strategy), 1.3)
            namespace = asm.advance.__globals__
            assert set(namespace) == {"__name__", "__builtins__", "exp"}, strategy
            assert namespace["exp"] is math.exp

    def test_vic_command_once_per_call(self, multi_machine_scenario):
        # the command depends on df and the shared filter state only
        sc = sim._with_controllers(multi_machine_scenario, "classic_vic")
        asm = sim._Assembled(sc, None)
        head, rhs, tail = _split(inspect.getsource(asm.advance))
        rate = VIC_FILTER_RATE_LAW.format(df="df", z="z", filter_s="(0.1)")
        command = VIC_COMMAND_LAW.format(k_f="(20.0)", k_in="(10.0)", df="df",
                                         rate="vic_rate", f_base=sim._lit(asm.f_base))
        # once per evaluation, in the right-hand side every evaluation runs
        assert rhs.count("vic_rate = ") == rhs.count("vic_mw = ") == 1
        indent = " " * 12
        assert f"\n{indent}vic_rate = {rate}\n{indent}vic_mw = {command}\n" in rhs
        assert rhs.count(" + vic_mw * (1e6)") == len(sc.turbines) == 5
        # the filter rate is also dz/dt: read from asm.k1 when a call starts,
        # into the accumulator and into each stage state, weighted into the
        # accumulator after each evaluation, and written to asm.k1 when the
        # call ends
        assert rhs.count("vic_rate") == 2
        assert head.count("vic_rate") == 3
        assert head.count(", vic_rate, = asm.k1\n") == 1
        assert head.count("            s_z = vic_rate\n") == 1
        assert head.count("                z = y_z + size * vic_rate\n") == 1
        assert tail.count("vic_rate") == 2
        assert tail.count("                s_z = s_z + weight * vic_rate\n") == 1
        assert "    asm.k1 = [ddf, " in tail and tail.count(", vic_rate]\n") == 1

    def test_mirror_only_with_aapc(self, multi_machine_scenario):
        # the mirror feeds the AAPC command alone
        for strategy in ("none", "classic_vic", "optimal_aapc"):
            sc = sim._with_controllers(multi_machine_scenario, strategy)
            rhs = inspect.getsource(sim._Assembled(sc, 1.3).advance)
            assert ("mirror" in rhs) == (strategy == "optimal_aapc"), strategy

    def test_no_zero_coefficient_terms(self, multi_machine_scenario):
        # the gas unit G4 has no feedthrough: its df term would add 0.0 * df
        for strategy in ("none", "classic_vic", "optimal_aapc"):
            sc = sim._with_controllers(multi_machine_scenario, strategy)
            rhs = inspect.getsource(sim._Assembled(sc, 1.3).advance)
            # a zero pitch's `(0.0) ** 3` is a power, which CPython folds
            assert not re.search(r"\(-?0\.0\) \*(?!\*)", rhs), strategy

    def test_scale_only_of_tripped_units(self, multi_machine_scenario):
        # a unit no trip names keeps gov_scale 1.0, and (1.0 * c) * x == c * x
        sc = multi_machine_scenario
        assert [g.name for g in sc.governors].index("G3") == 7
        trip = DisturbanceEvent(time_s=5.0, kind="generation_trip", unit="G3", fraction=0.5)
        plain, tripped = (inspect.getsource(sim._Assembled(replace(sc, events=events),
                                                           1.3).advance)
                          for events in (sc.events, sc.events + (trip,)))
        assert not re.search(r"\bgs\d", plain)
        assert set(re.findall(r"\bgs(\d+)\b", tripped)) == {"7"}
        assert tripped.count("pm += gs7 * ") > 0
        # the same terms, in the same order, with the factor on unit 7's alone
        assert tripped.replace("gs7 * ", "").replace("    gs7 = asm.gov_scale[7]\n", "") == plain

    def test_traceback_shows_generated_line(self, multi_machine_scenario):
        asm = sim._Assembled(multi_machine_scenario, 1.3)
        y = list(asm.y0)
        y[asm.base_w] = 0.0  # a stopped rotor: its tip-speed ratio divides by zero
        with pytest.raises(ZeroDivisionError) as err:
            asm.advance(asm, y, 0.0)
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert frame.filename == asm.advance.__code__.co_filename
        assert frame.line == "inv0 = 1.0 / (tsr0 + 0.08 * (0.0)) - 0.035 / ((0.0) ** 3 + 1.0)"
        lines = inspect.getsource(asm.advance).splitlines()
        first = asm.advance.__code__.co_firstlineno
        # the one evaluation of the right-hand side
        assert (lines.index("            # turbine 0") < frame.lineno - first
                < lines.index("            # turbine 1"))
        text = "".join(traceback.format_exception(err.value))
        assert f'File "{frame.filename}", line {frame.lineno}, in advance' in text

    def test_source_released_with_kernel(self, two_machine_scenario):
        asm = sim._Assembled(two_machine_scenario, 1.2)
        filename = asm.advance.__code__.co_filename
        assert filename in linecache.cache
        del asm
        gc.collect()
        assert filename not in linecache.cache


class TestStats:
    def test_counts_of_an_aapc_run(self, two_machine_scenario):
        res = sim.run(replace(two_machine_scenario, alpha=1.1870649147208707))
        stats = res.stats
        assert [e["kind"] for e in res.exit_events] == ["power_cross"]
        assert (stats["steps"], stats["segments"], stats["halvings"]) == (6000, 2, 14)
        # each stage and each evaluation counts one: 1 at the start, 4 per
        # step (3 stages and the evaluation where it ends) and 1 on the event
        # step; 4 per halving (a partial step from the start of the
        # interrupted step, whose derivative the kernel kept, and the
        # evaluation its check reads), 4 for the exit state, and 5 for the
        # rest of the interrupted step (the exit state evaluated again under
        # the blend, then the partial step)
        assert stats["rhs_evals"] == 1 + 4 * 6000 + 1 + 14 * 4 + 4 + 5
        # one check per step from the first after activation (at t = 0) up to
        # the step that finds the cross, at 28.78 s
        assert res.exit_events[0]["t_e_s"] == pytest.approx(28.7748, abs=1e-4)
        assert stats["exit_checks"] == 2878
        assert stats["assemble_s"] > 0.0 and stats["integrate_s"] > 0.0
        assert "stats" not in repr(res)

    def test_one_call_per_stretch(self, two_machine_scenario, monkeypatch):
        # the kernel advances every step between two events or exits in one
        # call, so a run makes O(events + exits) calls, not O(steps)
        calls = []
        compile_kernel = sim._compile_kernel

        def counting(asm, *constants):
            advance = compile_kernel(asm, *constants)

            def counted(asm, y, h, i=0, stop=0):
                calls.append((i, stop))
                return advance(asm, y, h, i, stop)
            return counted

        monkeypatch.setattr(sim, "_compile_kernel", counting)
        surges = tuple(DisturbanceEvent(time_s=t, kind="load_surge", magnitude_pu=0.02)
                       for t in (1.0, 5.0, 12.0))
        sim.run(replace(sim._with_controllers(two_machine_scenario, "none"), events=surges))
        # the initial evaluation, then one stretch up to each event step, the
        # evaluation of the state the event changed, and the last stretch
        assert calls == [(0, 0), (0, 100), (0, 0), (100, 500), (0, 0), (500, 1200),
                         (0, 0), (1200, 6001)]
        calls.clear()
        res = sim.run(replace(two_machine_scenario, alpha=1.1870649147208707))
        assert len(res.exit_events) == 1
        stretches = [c for c in calls if c[0] < c[1]]
        # from the event at t = 0 to the exit at step 2878, and from there on;
        # the exit adds its 14 halvings, the exit state and the rest of the
        # interrupted step (an evaluation, then a partial step)
        assert stretches == [(0, 6001), (2878, 6001)]
        assert len(calls) == 1 + 1 + 1 + 14 + 1 + 2 + 1

    def test_counts_without_exit(self, two_machine_scenario):
        sc = sim._with_controllers(two_machine_scenario, "none")
        stats = sim.run(sc).stats
        assert {k: stats[k] for k in ("steps", "segments", "halvings", "rhs_evals",
                                      "exit_checks")} == {
            "steps": 6000, "segments": 1, "halvings": 0, "rhs_evals": 4 * 6000 + 2,
            "exit_checks": 0}
