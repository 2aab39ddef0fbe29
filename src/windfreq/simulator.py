"""Closed-loop time-domain simulation of grid, governors, turbines, controllers.

Fixed-step RK4 co-integrates the swing equation, the governor states, the
one-mass rotors and one VIC filter state; this kernel is the package's only
integrator of rotor and governor dynamics. The VIC filter is shared because
every turbine's filter sees the same deviation from the same zero state, and
the AAPC mirror of the governors has no state of its own: it reads the
governor states. Disturbances are steps in the power deficit; generation trips
also zero the tripped unit's governor output. Turbine power limits and the
rotor speed floor are enforced inside the right-hand side, a rotor that is not
under AAPC is held on its floor at the end of each step, and exit triggers are
located by 14 bisection halvings of the step (0.6 us at a 10 ms step).
The right-hand side is the only evaluator of turbine power, tracking power and
controller command at a closed-loop state: the exit checks, the bisection and
the exit blend read the powers it records. Identical inputs produce
bit-identical traces.

The kernel steps the state as a list of Python floats: on a state of a few
entries numpy's per-call overhead costs more than the arithmetic. numpy holds
the assembly (governor realization and aggregation, allocation) and the
preallocated traces, which each step fills with one ``struct`` pack per table.

The closed loops of ``insensitivity_sweep`` (one per deficit) and
``compare_strategies`` (one per strategy) do not depend on each other, so
they run in forked worker processes, one per CPU in the affinity mask, and
their results are bitwise equal to a serial run. With one CPU they run in
the calling process; ``taskset`` gives a serial run.
"""

import os
import pickle
import struct
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import collocation as coll
from . import trajopt as to
from .aapc import (allocate, check_exit, command_pu, exit_gamma, exit_power, mirror_output,
                   synthesize, vic_command_mw, vic_filter_rate)
from .grid import aggregate_governors, rebase_governors
from .scenario import DisturbanceEvent, Scenario
from .turbine import (_fleet_power_scale, _k_opt_w, _mppt_power_w, _turbine_power_w,
                      capability_indices, make_state, mppt_power)

__all__ = [
    "SimResult",
    "MetricsRecord",
    "run",
    "metrics",
    "solve_hypothetical",
    "insensitivity_sweep",
    "compare_strategies",
    "allocation_shares",
    "WorkerError",
]

_WT_FLOOR = 7  # floor speed's place in an _Assembled.wt tuple

MODE_TRACKING = 0
MODE_AAPC = 1
MODE_EXITED = 2
MODE_VIC = 3

FLAG_POWER_LIMIT = 1
FLAG_FLOOR = 2

E_R_BAND_PCT = 5.0  # the e_r band of insensitivity_sweep's p_d_max
# t_nadir_s is the first step within this fraction of |nadir| of the nadir: an
# optimal-AAPC trace holds within 1e-12 of its minimum for seconds, so the
# argmin alone would follow the last bit of alpha
NADIR_BAND_REL = 1e-9


# ---------------------------------------------------------------------------
# integration kernel
# ---------------------------------------------------------------------------

def _clamp(p, lo, hi):
    """p limited to the interval [lo, hi]."""
    if p > hi:
        return hi
    if p < lo:
        return lo
    return p


def _rhs(asm, y, dy):
    """Closed-loop derivative of the state list y into the list dy.

    Records each turbine's applied power (for an AAPC turbine the clamped
    command), turbine power, tracking power and flags in asm, and returns
    (pm_pu, pe_dev_pu). All saturation lives here so every RK4 stage sees the
    same law.
    """
    base_w = asm.base_w
    df = y[0]
    z = y[-1]
    x_gov = y[1:base_w]
    # governor rates: each row's nonzeros of A_g in column order, then B_g df
    for s, (row, b) in enumerate(zip(asm.gov_rows, asm.b_g), 1):
        rate = 0.0
        for col, a in row:
            rate += a * x_gov[col]
        dy[s] = rate + b * df

    gov_scale = asm.gov_scale
    pm = 0.0
    for u, c, x in zip(asm.unit_of_state, asm.c_g, x_gov):
        pm += gov_scale[u] * c * x
    for u, d in enumerate(asm.d_units):
        pm += gov_scale[u] * d * df
    mirror_pu = mirror_output(asm.mirror_d, asm.mirror_c, x_gov, df)

    s_base_w = asm.s_base_w
    modes = asm.modes
    pe_dev = 0.0
    for j, (v_w, pitch, radius, power_scale, k_opt_w, p_min_w, p_max_w, floor_rad,
            p_e0_w, j_fleet, share) in enumerate(asm.wt):
        omega = y[base_w + j]
        p_t = _turbine_power_w(omega, v_w, pitch, radius, power_scale)
        p_mppt = _mppt_power_w(omega, k_opt_w, p_min_w, p_max_w)
        mode = modes[j]
        if mode == MODE_AAPC:
            p_cmd = p_e0_w + command_pu(share, mirror_pu, asm.kw, df) * s_base_w
        elif mode == MODE_VIC:
            p_cmd = p_e0_w + vic_command_mw(asm.vic, df, z, asm.f_base) * 1e6
        elif mode == MODE_EXITED:
            p_cmd = exit_power(asm.gamma[j], p_t, p_mppt)
        else:  # tracking
            p_cmd = p_mppt

        flags = 0
        p_app = _clamp(p_cmd, p_min_w, p_max_w)
        if p_app != p_cmd:
            flags |= FLAG_POWER_LIMIT
        # protective cutback holds the rotor at the floor; the optimal
        # controller instead leaves via its speed-floor exit trigger
        if mode != MODE_AAPC and omega <= floor_rad and p_app > p_t:
            p_app = p_t
            flags |= FLAG_FLOOR

        asm.wt_pe_w[j] = p_app
        asm.wt_pt_w[j] = p_t
        asm.wt_mppt_w[j] = p_mppt
        asm.wt_flags[j] = flags
        pe_dev += (p_app - p_e0_w) / s_base_w
        dy[base_w + j] = (p_t - p_app) / (j_fleet * omega)

    dy[-1] = vic_filter_rate(asm.vic, df, z)
    dy[0] = (pm + pe_dev - asm.p_d - asm.damping * df) / asm.two_h
    return pm, pe_dev


def _rk4_step(asm, y, h):
    """Advance the state list y by one RK4 step of size h in place.

    asm.k1 holds the derivative at y. The stages and the update run in
    numpy's operation order: y + (h/2) k, then y + (h/6)(((k1 + 2 k2) + 2 k3) + k4).
    """
    k1, k2, k3, k4 = asm.k1, asm.k2, asm.k3, asm.k4
    half = 0.5 * h
    _rhs(asm, [a + half * k for a, k in zip(y, k1)], k2)
    _rhs(asm, [a + half * k for a, k in zip(y, k2)], k3)
    _rhs(asm, [a + h * k for a, k in zip(y, k3)], k4)
    sixth = h / 6.0
    y[:] = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    # the cutback engages only once the rotor is at its floor, so the step
    # that crosses it lands on it; AAPC rotors leave by the floor exit instead
    base_w = asm.base_w
    for j, wt in enumerate(asm.wt):
        if asm.modes[j] != MODE_AAPC and y[base_w + j] < wt[_WT_FLOOR]:
            y[base_w + j] = wt[_WT_FLOOR]


def _rk4_from(asm, y0, h):
    """State one RK4 step of size h >= 0 after the state list y0, as a new list."""
    y = list(y0)
    if h > 0:
        _rhs(asm, y, asm.k1)
        _rk4_step(asm, y, h)
    return y


def _exit_cause(asm, y, j, t):
    """``aapc.check_exit`` for AAPC turbine j at state list y and time t.

    Reads the powers that the last ``_rhs`` call, made at y, recorded.
    """
    return check_exit(asm.wt_pe_w[j], asm.wt_mppt_w[j], y[asm.base_w + j],
                      asm.wt[j][_WT_FLOOR], t, asm.t_support_end - 1e-12, asm.armed[j])


def _run_segment(asm, y, start, tr):
    """Integrate from step ``start`` until an exit trigger fires or time runs out.

    Rows [start ..] of the traces are filled with start-of-step values. Every
    step but the first checks the exit triggers of the AAPC turbines on its
    ``_rhs`` records before its events apply; on a trigger the kernel returns
    the step that crossed it, whose start state asm.y_snapshot holds, and the
    resumed segment applies the events. Returns
    (crossing_step, trigger_turbine, exit_cause), the cause None at the end.
    """
    n_wt = asm.n_wt
    base_w = asm.base_w
    i = start
    while i <= asm.n_steps:
        pm, pe = _rhs(asm, y, asm.k1)
        if asm.exit_enabled and i > start:
            t = i * asm.dt
            for j in range(n_wt):
                if asm.modes[j] != MODE_AAPC:
                    continue
                kind = _exit_cause(asm, y, j, t)
                if kind is not None:
                    return i - 1, j, kind
                if not asm.armed[j] and asm.wt_pe_w[j] > asm.wt_mppt_w[j] * (1.0 + 1e-9) + 1e-3:
                    asm.armed[j] = True

        # events and controller activation (on the first event's step) land
        # on step boundaries
        landed = False
        for step, dpd, unit, frac in asm.events:
            if step == i:
                asm.p_d += dpd
                if unit >= 0:
                    asm.gov_scale[unit] *= 1.0 - frac
                landed = True
        if i == asm.act_step:
            asm.modes = list(asm.ctrl_mode)
        if landed:
            pm, pe = _rhs(asm, y, asm.k1)

        # record start-of-step values
        tr.put_row(i * tr.row_bytes, y[0], pm, pe, asm.k1[0], asm.p_d,
                   *y[base_w:base_w + n_wt])
        tr.put_wt_pe(i * tr.wt_pe_bytes, *asm.wt_pe_w)
        tr.put_flags(i * n_wt, *asm.wt_flags)
        if i == asm.n_steps:
            break

        asm.y_snapshot[:] = y
        _rk4_step(asm, y, asm.dt)  # k1 is the derivative just recorded
        i += 1
    return asm.n_steps + 1, -1, None


# ---------------------------------------------------------------------------
# python driver
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    nadir_pu: float
    nadir_hz: float
    t_nadir_s: float
    max_rocof_hz_s: float
    terminal_dev_hz: float
    secondary_dip: bool
    e_r_pct: float | None
    degenerate: bool
    max_swing_residual: float
    limit_events: list
    exit_events: list


@dataclass
class SimResult:
    scenario: Scenario
    t: np.ndarray
    df_pu: np.ndarray
    df_hz: np.ndarray
    dfdot_pu_s: np.ndarray
    dpm_pu: np.ndarray
    dpe_pu: np.ndarray
    p_d_pu: np.ndarray
    wt_pe_mw: np.ndarray          # (steps+1, n_wt)
    wt_omega_rad_s: np.ndarray
    wt_flags: np.ndarray
    exit_events: list
    alpha: float | None
    gain_kw: float | None
    shares: np.ndarray
    wt_omega0: np.ndarray
    wt_p_e0_mw: np.ndarray

    @property
    def n_wt(self) -> int:
        return self.wt_pe_mw.shape[1]


class _Assembled:
    """Scenario compiled to Python-float constants, plus the loop's mutable state.

    The state list is [df, governor states, rotor speeds, VIC filter state]:
    1 + m_gov + n_wt + 1 floats, with one VIC filter state shared by every
    turbine. The AAPC mirror has no state of its own; it reads the governor
    states (see ``aapc.mirror_output``). ``gov_rows`` holds the nonzero
    (column, value) pairs of each row of the block-diagonal A_g in column
    order, and ``wt`` one constants tuple per turbine: (wind speed, pitch,
    rotor radius, power scale, k_opt, p_min, p_max, floor speed, pre-event
    power, fleet inertia, share), powers in W.
    """

    def __init__(self, sc: Scenario, alpha: float | None):
        grid = sc.grid
        self.s_base_w = grid.s_base_mva * 1e6
        self.f_base = grid.f_base_hz
        self.two_h = 2.0 * grid.inertia_s
        self.damping = grid.damping
        self.vic = sc.vic
        self.exit_enabled = sc.exit_enabled

        realizations = rebase_governors(sc.governors, grid.s_base_mva)
        gov = aggregate_governors(realizations)
        self.m_gov = gov.order
        self.base_w = 1 + gov.order
        self.gov_rows = [[(c, float(row[c])) for c in np.flatnonzero(row).tolist()]
                         for row in gov.a]
        self.b_g = gov.b[:, 0].tolist()
        self.c_g = gov.c[0].tolist()
        self.d_units = [float(r.d[0, 0]) for r in realizations]
        self.unit_of_state = np.repeat(np.arange(len(realizations)),
                                       [r.order for r in realizations]).tolist()
        self.gov_scale = [1.0] * len(realizations)

        specs = [t.spec for t in sc.turbines]
        states = [make_state(t.spec, t.wind_speed_ms, grid.s_base_mva, t.pitch_deg)
                  for t in sc.turbines]
        self.n_wt = n_wt = len(specs)
        mode_of = {"none": MODE_TRACKING, "optimal_aapc": MODE_AAPC, "classic_vic": MODE_VIC}
        self.ctrl_mode = [mode_of[t.controller] for t in sc.turbines]
        self.p_e0_w = [st.p_e_pu * self.s_base_w for st in states]
        self.omega0 = [st.omega_rad_s for st in states]
        self.shares = allocation_shares(sc).tolist()
        self.wt = [
            (t.wind_speed_ms, t.pitch_deg, s.rotor_radius_m, _fleet_power_scale(s),
             _k_opt_w(s), s.p_min_fleet_mw * 1e6, s.p_max_fleet_mw * 1e6,
             s.floor_speed_rad, p_e0, s.fleet_inertia, share)
            for t, s, p_e0, share in zip(sc.turbines, specs, self.p_e0_w, self.shares)
        ]
        self.kw = 0.0
        self.mirror_d = 0.0
        self.mirror_c = [0.0] * self.m_gov
        if alpha is not None and MODE_AAPC in self.ctrl_mode:
            ctrl = synthesize(grid, list(sc.governors), alpha)
            self.kw = ctrl.gain_kw
            self.mirror_d = float(ctrl.mirror.d[0, 0])
            self.mirror_c = ctrl.mirror.c[0].tolist()

        self.dt = dt = sc.sim.step_s
        self.n_steps = int(round(sc.sim.duration_s / dt))
        gov_names = [g.name for g in sc.governors]
        self.events = [
            (int(round(e.time_s / dt)), e.magnitude_pu, -1, 0.0) if e.kind == "load_surge"
            else (int(round(e.time_s / dt)), _trip_magnitude(sc, e),
                  gov_names.index(e.unit), e.fraction)
            for e in sc.events
        ]
        self.act_step = self.events[0][0] if self.events else -1
        self.t_event = self.act_step * dt if self.events else None
        self.t_support_end = self.t_event + sc.solver.t_f if self.events else np.inf

        self.p_d = 0.0
        self.modes = [MODE_TRACKING] * n_wt
        self.gamma = [0.0] * n_wt
        self.armed = [False] * n_wt
        self.y0 = [0.0] * self.base_w + self.omega0 + [0.0]
        n_y = len(self.y0)
        self.k1, self.k2, self.k3, self.k4, self.y_snapshot = ([0.0] * n_y for _ in range(5))
        self.wt_pe_w, self.wt_pt_w, self.wt_mppt_w = ([0.0] * n_wt for _ in range(3))
        self.wt_flags = [0] * n_wt


class _Traces:
    """Start-of-step records of one run in preallocated tables, one row per step.

    A row of ``rows`` is (df, pm, pe, dfdot, p_d, each turbine's rotor speed),
    a row of ``wt_pe`` each turbine's applied power in W, and a row of
    ``flags`` each turbine's limit flags. ``put_*(offset, *values)`` writes one
    row with a single ``struct`` pack into a byte view of its table, at the
    byte offset ``i * row_bytes`` (``i * wt_pe_bytes``, ``i * n_wt``); numpy's
    per-item assignment costs several times more. The powers have a table of
    their own because the result keeps them in MW.
    """

    def __init__(self, n_steps: int, n_wt: int):
        n = n_steps + 1
        self.rows = np.zeros((n, 5 + n_wt))
        self.wt_pe = np.zeros((n, n_wt))
        self.flags = np.zeros((n, n_wt), dtype=np.int8)
        self.row_bytes = self.rows.strides[0]
        self.wt_pe_bytes = self.wt_pe.strides[0]
        self.put_row, self.put_wt_pe, self.put_flags = (
            partial(struct.Struct(f"{t.shape[1]}{t.dtype.char}").pack_into,
                    memoryview(t).cast("B"))
            for t in (self.rows, self.wt_pe, self.flags))

    @property
    def wt_omega(self) -> np.ndarray:
        return self.rows[:, 5:]


def allocation_shares(sc: Scenario) -> np.ndarray:
    """Each turbine's fraction of the aggregate AAPC command, in turbine order.

    The scenario's override if it has one; otherwise the AAPC turbines split
    the command by ``aapc.allocate`` over their capability indices at the
    pre-event operating point, and every other turbine gets 0.
    """
    if sc.allocation is not None:
        return np.asarray(sc.allocation, dtype=float)
    shares = np.zeros(len(sc.turbines))
    aapc_idx = [j for j, t in enumerate(sc.turbines) if t.controller == "optimal_aapc"]
    if aapc_idx:
        s_base = sc.grid.s_base_mva
        caps = []
        for j in aapc_idx:
            t = sc.turbines[j]
            state = make_state(t.spec, t.wind_speed_ms, s_base, t.pitch_deg)
            caps.append(capability_indices(state, t.spec, s_base))
        shares[aapc_idx] = allocate(caps)
    return shares


def solve_hypothetical(sc: Scenario, nodes: int | None = None) -> to.TrajectorySolution:
    """Trajectory optimum for the scenario's hypothetical deficit.

    The deficit (``p_d_pu`` of the result) defaults to a tenth of the load
    and the collocation order to the scenario's.
    """
    sc.check()
    p_hyp = sc.solver.hypothetical_p_d_pu
    if p_hyp is None:
        p_hyp = 0.1 * sc.grid.load_pu
    problem = to.build_problem(sc.grid, list(sc.governors), p_hyp, sc.solver.t_f)
    cgrid = coll.make_grid(sc.solver.nodes if nodes is None else nodes, sc.solver.t_f)
    return to.solve_max_nadir(problem, cgrid)


def _resolve_alpha(sc: Scenario, solution=None) -> float | None:
    """Scenario alpha, or the trajectory-optimal one for the hypothetical deficit.

    ``solution`` is the scenario's ``solve_hypothetical`` optimum when the
    caller already has it.
    """
    if sc.alpha is not None:
        return sc.alpha
    if not any(t.controller == "optimal_aapc" for t in sc.turbines):
        return None
    if solution is None:
        solution = solve_hypothetical(sc)
    return solution.alpha


def _trip_magnitude(sc: Scenario, ev: DisturbanceEvent) -> float:
    """Deficit from losing a share of a unit, dispatch proportional to rating."""
    if ev.magnitude_pu > 0:
        return ev.magnitude_pu
    wind_mw = sum(
        mppt_power(make_state(t.spec, t.wind_speed_ms, sc.grid.s_base_mva,
                              t.pitch_deg).omega_rad_s, t.spec)
        for t in sc.turbines
    )
    sync_pu = sc.grid.load_pu - wind_mw / sc.grid.s_base_mva
    total_rating = sum(g.rated_mva for g in sc.governors)
    unit = next(g for g in sc.governors if g.name == ev.unit)
    return ev.fraction * sync_pu * unit.rated_mva / total_rating


def run(scenario: Scenario, alpha_override: float | None = None) -> SimResult:
    """Simulate the scenario and return uniform-step traces plus event log."""
    scenario.check()
    alpha = alpha_override if alpha_override is not None else _resolve_alpha(scenario)
    asm = _Assembled(scenario, alpha)
    dt = asm.dt
    y = list(asm.y0)
    tr = _Traces(asm.n_steps, asm.n_wt)

    exit_events = []
    step = 0
    while True:
        step, j_trig, kind = _run_segment(asm, y, step, tr)
        if kind is None:
            break
        # the offending step ran from step*dt on y_snapshot; locate t_e in it
        t0 = step * dt
        if kind == "horizon":
            h_e = max(0.0, asm.t_support_end - t0)
        else:
            # 14 halvings bracket t_e to dt / 2^14 (0.6 us at 10 ms): a
            # command clipped at gamma = 1 steps by its change over the bracket
            lo, hi = 0.0, dt
            for _ in range(14):
                mid = 0.5 * (lo + hi)
                y_mid = _rk4_from(asm, asm.y_snapshot, mid)
                _rhs(asm, y_mid, asm.k1)
                if _exit_cause(asm, y_mid, j_trig, t0 + mid) == kind:
                    hi = mid
                else:
                    lo = mid
            # a floor exit switches on the last instant above the floor, so
            # the rotor never actually crosses it
            h_e = lo if kind == "speed_floor" else hi
        y_e = _rk4_from(asm, asm.y_snapshot, h_e)
        to_exit = [j_trig]
        if kind == "horizon":  # the window closes for every active turbine
            to_exit = [jj for jj in range(asm.n_wt) if asm.modes[jj] == MODE_AAPC]
        _rhs(asm, y_e, asm.k1)
        for jj in to_exit:
            p_cmd, p_mppt, p_t = asm.wt_pe_w[jj], asm.wt_mppt_w[jj], asm.wt_pt_w[jj]
            g = exit_gamma(p_cmd / 1e6, p_t / 1e6, p_mppt / 1e6)
            asm.gamma[jj] = g
            asm.modes[jj] = MODE_EXITED
            exit_events.append({
                "turbine": scenario.turbines[jj].name,
                "kind": kind,
                "t_e_s": t0 + h_e,
                "gamma": g,
                "power_step_pu": abs(exit_power(g, p_t, p_mppt) - p_cmd) / asm.s_base_w,
            })
        # finish the interrupted step on the corrected modes
        y[:] = _rk4_from(asm, y_e, dt - h_e)
        step = step + 1

    f_b = scenario.grid.f_base_hz
    t = np.arange(asm.n_steps + 1) * dt
    df, pm, pe, dfdot, pd = tr.rows[:, :5].T
    return SimResult(
        scenario=scenario,
        t=t,
        df_pu=df,
        df_hz=df * f_b,
        dfdot_pu_s=dfdot,
        dpm_pu=pm,
        dpe_pu=pe,
        p_d_pu=pd,
        wt_pe_mw=tr.wt_pe / 1e6,
        wt_omega_rad_s=tr.wt_omega,
        wt_flags=tr.flags,
        exit_events=exit_events,
        alpha=alpha,
        gain_kw=asm.kw if alpha is not None else None,
        shares=np.array(asm.shares),
        wt_omega0=np.array(asm.omega0),
        wt_p_e0_mw=np.array(asm.p_e0_w) / 1e6,
    )


# ---------------------------------------------------------------------------
# metrics and sweeps
# ---------------------------------------------------------------------------

def metrics(result: SimResult, nadir_ref_pu: float | None = None) -> MetricsRecord:
    """Nadir, RoCoF, dip and limit bookkeeping; e_r against a reference nadir."""
    sc = result.scenario
    f_b = sc.grid.f_base_hz
    df = result.df_pu
    nadir = float(df.min())
    i_nadir = int(np.argmax(df - nadir <= NADIR_BAND_REL * abs(nadir)))
    degenerate = nadir >= 0.0

    two_h = 2.0 * sc.grid.inertia_s
    residual = np.abs(
        two_h * result.dfdot_pu_s
        - (result.dpm_pu + result.dpe_pu - result.p_d_pu - sc.grid.damping * df)
    )

    # secondary dip: a later local minimum materially below the first one
    mins = df[1:-1][(df[1:-1] < df[:-2]) & (df[1:-1] <= df[2:])]
    secondary = mins.size > 1 and bool(np.any(np.abs(mins[1:]) > 1.05 * abs(mins[0])))

    e_r = None
    if nadir_ref_pu is not None:
        if degenerate:
            e_r = -100.0
            degenerate = True
        else:
            e_r = float((nadir - nadir_ref_pu) / nadir_ref_pu * 100.0)

    limit_events = []
    for j in range(result.n_wt):
        col = result.wt_flags[:, j]
        for flag, label in ((FLAG_POWER_LIMIT, "power_limit"), (FLAG_FLOOR, "speed_floor")):
            hits = np.nonzero(col & flag)[0]
            if hits.size:
                limit_events.append({
                    "turbine": sc.turbines[j].name,
                    "kind": label,
                    "first_s": float(result.t[hits[0]]),
                    "steps": int(hits.size),
                })
    return MetricsRecord(
        nadir_pu=nadir,
        nadir_hz=nadir * f_b,
        t_nadir_s=float(result.t[i_nadir]),
        max_rocof_hz_s=float(np.max(np.abs(result.dfdot_pu_s)) * f_b),
        terminal_dev_hz=float(df[-1] * f_b),
        secondary_dip=secondary,
        e_r_pct=e_r,
        degenerate=degenerate,
        max_swing_residual=float(residual.max()),
        limit_events=limit_events,
        exit_events=list(result.exit_events),
    )


def insensitivity_sweep(
    scenario: Scenario,
    p_d_list,
    alpha: float | None = None,
    reference_nadir_per_pd: float | None = None,
):
    """Run the scenario across deficits; e_r versus the linearly-scaled optimum.

    Returns (rows, p_d_max) where each row is a dict with p_d, nadir and e_r,
    and p_d_max is the largest deficit keeping e_r within E_R_BAND_PCT.
    """
    sol = None
    if reference_nadir_per_pd is None:
        sol = solve_hypothetical(scenario)
        reference_nadir_per_pd = sol.nadir_pu / sol.p_d_pu
    if alpha is None:
        alpha = _resolve_alpha(scenario, sol)

    def point(p_d):
        events = tuple(
            DisturbanceEvent(time_s=e.time_s, kind="load_surge", magnitude_pu=p_d)
            for e in scenario.events[:1]
        ) or (DisturbanceEvent(time_s=0.0, kind="load_surge", magnitude_pu=p_d),)
        res = run(replace(scenario, events=events), alpha_override=alpha)
        rec = metrics(res, nadir_ref_pu=reference_nadir_per_pd * p_d)
        return {
            "p_d_pu": float(p_d),
            "nadir_hz": rec.nadir_hz,
            "e_r_pct": rec.e_r_pct,
            "limit_events": len(rec.limit_events),
        }

    rows = _map_runs(point, p_d_list)
    p_d_max = max((r["p_d_pu"] for r in rows
                   if r["e_r_pct"] is not None and r["e_r_pct"] <= E_R_BAND_PCT),
                  default=None)
    return rows, p_d_max


def compare_strategies(scenario: Scenario, strategies=("none", "classic_vic", "optimal_aapc")):
    """Identical events under each control strategy; returns name -> metrics."""
    alpha = _resolve_alpha(_with_controllers(scenario, "optimal_aapc")) \
        if "optimal_aapc" in strategies else None

    def one(strat):
        res = run(_with_controllers(scenario, strat),
                  alpha_override=alpha if strat == "optimal_aapc" else None)
        return res, metrics(res)

    return dict(zip(strategies, _map_runs(one, strategies)))


# ---------------------------------------------------------------------------
# independent runs in forked workers
# ---------------------------------------------------------------------------

class WorkerError(RuntimeError):
    """A forked worker of ``_map_runs`` ended without sending its results."""


def _run_share(fn, share):
    """(results, None), or (the results before it, exception) if an item raised."""
    out = []
    try:
        for x in share:
            out.append(fn(x))
    except Exception as exc:  # sent to the caller, which raises it
        return out, exc
    return out, None


def _map_runs(fn, items):
    """``[fn(x) for x in items]``, the items dealt round-robin over forked workers.

    There is one worker per CPU in the affinity mask, at most one per item,
    and the calling process is the first: it runs its share while the forked
    children run theirs, then reads each child's pickled (results, exception)
    from the child's pipe. If items raised, the exception of the first such
    item in item order is raised, as the serial loop would raise it. A child
    that ends without a result raises ``WorkerError``. Every child is reaped
    before this returns or raises, and a child leaves only through
    ``os._exit``, so it never runs the caller's code after its share. With one
    worker, or on a platform without ``os.fork``, ``fn`` runs inline.

    A bare fork needs no pickling of ``fn`` or the items, no fresh interpreter
    and no helper threads, whose allocations would raise the caller's peak
    RSS. The package starts no threads of its own, and a forked child can use
    numpy's BLAS.
    """
    items = list(items)
    n_workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n_workers = min(len(items), len(os.sched_getaffinity(0)))
    if n_workers <= 1:
        return [fn(x) for x in items]
    pipes = {}  # child pid -> read end of its pipe
    outcomes = []
    try:
        for w in range(1, n_workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _worker(fn, items[w::n_workers], read_fd, write_fd)
            os.close(write_fd)
            pipes[pid] = os.fdopen(read_fd, "rb")
        outcomes.append(_run_share(fn, items[::n_workers]))
        for pipe in pipes.values():
            # one read, then one unpickling: a streamed pickle.load from the
            # pipe left the caller's heap 0.4 MB higher on two_machine_study
            with pipe:
                data = pipe.read()
            try:
                outcomes.append(pickle.loads(data))
            except Exception:  # truncated or empty: the child ended without a result
                outcomes.append(None)
    finally:
        statuses = []
        for pid, pipe in pipes.items():
            pipe.close()  # a child still writing gets EPIPE and exits
            statuses.append(os.waitpid(pid, 0)[1])
    for w, (pid, status) in enumerate(zip(pipes, statuses), 1):
        if outcomes[w] is None:
            raise WorkerError(f"worker process {pid} ended without a result "
                              f"(exit code {os.waitstatus_to_exitcode(status)})")
    failed = [(w + len(out) * n_workers, exc)
              for w, (out, exc) in enumerate(outcomes) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    results = [None] * len(items)
    for w, (out, _) in enumerate(outcomes):
        results[w::n_workers] = out
    return results


def _worker(fn, share, read_fd, write_fd):
    """Body of a forked child: pickle ``_run_share(fn, share)`` into write_fd and exit."""
    code = 1
    try:
        # with the read end open here, a write to a pipe the caller has
        # closed would block instead of failing
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(_run_share(fn, share), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _with_controllers(sc: Scenario, controller: str) -> Scenario:
    turbines = tuple(replace(t, controller=controller) for t in sc.turbines)
    return replace(sc, turbines=turbines, allocation=None)
