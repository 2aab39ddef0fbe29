"""Closed-loop time-domain simulation of grid, governors, turbines, controllers.

Fixed-step RK4 co-integrates the swing equation, governor states, each
turbine's controller (mirror or filtered-derivative) states, and the one-mass
rotors. Disturbances are steps in the power deficit; generation trips also
zero the tripped unit's governor output. Turbine power limits and the rotor
speed floor are enforced inside the right-hand side, and exit triggers are
located by bisection to millisecond resolution. Identical inputs produce
bit-identical traces on a given backend.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._accel import maybe_njit
from . import collocation as coll
from . import trajopt as to
from .aapc import BaselineVic, allocate, exit_gamma, synthesize
from .grid import GridParameters, scale_output, tf_to_statespace
from .turbine import TurbineSpec, _cp_value, cp_peak, make_state, mppt_power

__all__ = [
    "TurbineEntry",
    "DisturbanceEvent",
    "SolverOptions",
    "SimOptions",
    "Scenario",
    "SimResult",
    "MetricsRecord",
    "run",
    "metrics",
    "coi_frequency",
    "read_frequency_csv",
    "solve_hypothetical",
    "insensitivity_sweep",
    "compare_strategies",
    "ScenarioError",
]

MODE_TRACKING = 0
MODE_AAPC = 1
MODE_EXITED = 2
MODE_VIC = 3

TRIG_NONE = 0
TRIG_FLOOR = 1
TRIG_HORIZON = 2
TRIG_POWER_CROSS = 3

FLAG_POWER_LIMIT = 1
FLAG_FLOOR = 2

EXIT_KIND_NAMES = {TRIG_FLOOR: "speed_floor", TRIG_HORIZON: "horizon",
                   TRIG_POWER_CROSS: "power_cross"}


class ScenarioError(ValueError):
    """Scenario validation failed; the message lists every violation."""


@dataclass(frozen=True)
class TurbineEntry:
    name: str
    spec: TurbineSpec
    wind_speed_ms: float
    pitch_deg: float = 0.0
    controller: str = "optimal_aapc"   # optimal_aapc | classic_vic | none


@dataclass(frozen=True)
class DisturbanceEvent:
    time_s: float
    kind: str                      # load_surge | generation_trip
    magnitude_pu: float = 0.0      # surge size; optional override for trips
    unit: str = ""                 # tripped governor name
    fraction: float = 1.0          # tripped share of the unit


@dataclass(frozen=True)
class SolverOptions:
    nodes: int = 60
    t_f: float = 30.0
    hypothetical_p_d_pu: float | None = None   # default: 0.1 * load


@dataclass(frozen=True)
class SimOptions:
    duration_s: float = 60.0
    step_s: float = 0.01


@dataclass(frozen=True)
class Scenario:
    grid: GridParameters
    governors: tuple
    turbines: tuple
    events: tuple
    solver: SolverOptions = SolverOptions()
    sim: SimOptions = SimOptions()
    vic: BaselineVic = BaselineVic()
    alpha: float | None = None              # skip the internal solve if given
    allocation: tuple | None = None         # override the capability shares
    exit_enabled: bool = True
    name: str = "scenario"

    def validate(self) -> list:
        problems = []
        dt = self.sim.step_s
        if dt <= 0 or dt > 0.02:
            problems.append(f"sim.step_s must be in (0, 0.02], got {dt}")
        if self.sim.duration_s < self.solver.t_f:
            problems.append(
                f"sim.duration_s ({self.sim.duration_s}) must cover the support "
                f"window t_f ({self.solver.t_f})"
            )
        times = [e.time_s for e in self.events]
        if times != sorted(times):
            problems.append("events must be sorted by time")
        for e in self.events:
            if e.time_s < 0 or e.time_s >= self.sim.duration_s:
                problems.append(f"event at {e.time_s}s outside the simulation window")
            if dt > 0 and abs(e.time_s / dt - round(e.time_s / dt)) > 1e-9:
                problems.append(f"event time {e.time_s}s not aligned to the {dt}s step")
            if e.kind not in ("load_surge", "generation_trip"):
                problems.append(f"unknown event kind {e.kind!r}")
            if e.kind == "load_surge" and e.magnitude_pu <= 0:
                problems.append(f"load surge needs magnitude_pu > 0, got {e.magnitude_pu}")
            if e.kind == "generation_trip":
                if e.unit not in [g.name for g in self.governors]:
                    problems.append(f"trip references unknown unit {e.unit!r}")
                if not 0 < e.fraction <= 1:
                    problems.append(f"trip fraction must be in (0, 1], got {e.fraction}")
        for t in self.turbines:
            if t.controller not in ("optimal_aapc", "classic_vic", "none"):
                problems.append(f"turbine {t.name!r}: unknown controller {t.controller!r}")
            if t.wind_speed_ms < 1.0:
                problems.append(f"turbine {t.name!r}: wind speed {t.wind_speed_ms} too low")
        if self.allocation is not None and len(self.allocation) != len(self.turbines):
            problems.append("allocation override length must match the turbine list")
        if self.solver.nodes < 10:
            problems.append(f"solver.nodes must be >= 10, got {self.solver.nodes}")
        return problems


# ---------------------------------------------------------------------------
# integration kernels
# ---------------------------------------------------------------------------

@maybe_njit
def _rhs(
    y, p_d, two_h, damping, s_base_w, f_base,
    a_g, b_g, c_g, d_units, unit_of_state, gov_scale,
    modes, gamma, shares, mir_d_total, kw, kf, kin, t_filt,
    count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w, floor_rad,
    k_opt_w, p_e0_w, j_fleet,
    dy, wt_pe_w, wt_flags,
):
    """Closed-loop derivative; fills dy, per-turbine applied power and flags.

    Returns (pm_pu, pe_dev_pu). All saturation lives here so every RK4 stage
    sees the same law.
    """
    m_gov = a_g.shape[0]
    n_wt = count.shape[0]
    df = y[0]
    pm = 0.0
    for s in range(m_gov):
        pm += gov_scale[unit_of_state[s]] * c_g[s] * y[1 + s]
    for u in range(d_units.shape[0]):
        pm += gov_scale[u] * d_units[u] * df

    base_mir = 1 + m_gov
    base_w = base_mir + n_wt * m_gov
    base_z = base_w + n_wt

    pe_dev = 0.0
    for j in range(n_wt):
        omega = y[base_w + j]
        flags = 0
        tsr = radius[j] * omega / v_w[j]
        cp = _cp_value(tsr, pitch[j])
        if cp < 0.0:
            cp = 0.0
        p_t = count[j] * half_rho_area[j] * cp * v_w[j] ** 3
        p_mppt = k_opt_w[j] * omega ** 3
        if p_mppt < p_min_w[j]:
            p_mppt = p_min_w[j]
        elif p_mppt > p_max_w[j]:
            p_mppt = p_max_w[j]

        mode = modes[j]
        if mode == MODE_AAPC:
            mir_out = mir_d_total * df
            off = base_mir + j * m_gov
            for s in range(m_gov):
                mir_out -= c_g[s] * y[off + s]
            cmd_pu = shares[j] * (mir_out + kw * df)
            p_cmd = p_e0_w[j] + cmd_pu * s_base_w
        elif mode == MODE_VIC:
            z = y[base_z + j]
            deriv = (df - z) / t_filt
            # fixed-gain inertial response: MW per Hz (and per Hz/s) of
            # locally measured deviation, per aggregated turbine
            cmd_w = -(kf * df * f_base + kin * deriv * f_base) * 1e6
            p_cmd = p_e0_w[j] + cmd_w
        elif mode == MODE_EXITED:
            p_cmd = (1.0 - gamma[j]) * p_t + gamma[j] * p_mppt
        else:  # tracking
            p_cmd = p_mppt

        p_app = p_cmd
        if p_app > p_max_w[j]:
            p_app = p_max_w[j]
            flags |= FLAG_POWER_LIMIT
        elif p_app < p_min_w[j]:
            p_app = p_min_w[j]
            flags |= FLAG_POWER_LIMIT
        # protective cutback holds the rotor at the floor; the optimal
        # controller instead leaves via its speed-floor exit trigger
        if mode != MODE_AAPC and omega <= floor_rad[j] and p_app > p_t:
            p_app = p_t
            flags |= FLAG_FLOOR

        wt_pe_w[j] = p_app
        wt_flags[j] = flags
        pe_dev += (p_app - p_e0_w[j]) / s_base_w
        dy[base_w + j] = (p_t - p_app) / (j_fleet[j] * omega)
        dy[base_z + j] = (df - y[base_z + j]) / t_filt

    dy[0] = (pm + pe_dev - p_d - damping * df) / two_h
    for s in range(m_gov):
        acc = b_g[s] * df
        for s2 in range(m_gov):
            acc += a_g[s, s2] * y[1 + s2]
        dy[1 + s] = acc
    for j in range(n_wt):
        off = base_mir + j * m_gov
        for s in range(m_gov):
            acc = b_g[s] * df
            for s2 in range(m_gov):
                acc += a_g[s, s2] * y[off + s2]
            dy[off + s] = acc
    return pm, pe_dev


@maybe_njit
def _rk4_step(
    y, h, p_d, two_h, damping, s_base_w, f_base,
    a_g, b_g, c_g, d_units, unit_of_state, gov_scale,
    modes, gamma, shares, mir_d_total, kw, kf, kin, t_filt,
    count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w, floor_rad,
    k_opt_w, p_e0_w, j_fleet,
    k1, k2, k3, k4, y_tmp, wt_pe_w, wt_flags,
):
    """Advance y by one RK4 step of size h in place."""
    n = y.shape[0]
    _rhs(y, p_d, two_h, damping, s_base_w, f_base, a_g, b_g, c_g, d_units, unit_of_state,
         gov_scale, modes, gamma, shares, mir_d_total, kw, kf, kin, t_filt,
         count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w, floor_rad,
         k_opt_w, p_e0_w, j_fleet, k1, wt_pe_w, wt_flags)
    for i in range(n):
        y_tmp[i] = y[i] + 0.5 * h * k1[i]
    _rhs(y_tmp, p_d, two_h, damping, s_base_w, f_base, a_g, b_g, c_g, d_units, unit_of_state,
         gov_scale, modes, gamma, shares, mir_d_total, kw, kf, kin, t_filt,
         count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w, floor_rad,
         k_opt_w, p_e0_w, j_fleet, k2, wt_pe_w, wt_flags)
    for i in range(n):
        y_tmp[i] = y[i] + 0.5 * h * k2[i]
    _rhs(y_tmp, p_d, two_h, damping, s_base_w, f_base, a_g, b_g, c_g, d_units, unit_of_state,
         gov_scale, modes, gamma, shares, mir_d_total, kw, kf, kin, t_filt,
         count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w, floor_rad,
         k_opt_w, p_e0_w, j_fleet, k3, wt_pe_w, wt_flags)
    for i in range(n):
        y_tmp[i] = y[i] + h * k3[i]
    _rhs(y_tmp, p_d, two_h, damping, s_base_w, f_base, a_g, b_g, c_g, d_units, unit_of_state,
         gov_scale, modes, gamma, shares, mir_d_total, kw, kf, kin, t_filt,
         count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w, floor_rad,
         k_opt_w, p_e0_w, j_fleet, k4, wt_pe_w, wt_flags)
    for i in range(n):
        y[i] = y[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])


@maybe_njit
def _wt_trigger_state(
    y, j, df, s_base_w, a_g_shape0, c_g, mir_d_total, kw, shares,
    count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w,
    k_opt_w, p_e0_w,
):
    """(applied command W, tracking-curve power W, turbine power W) for wt j."""
    m_gov = a_g_shape0
    n_wt = count.shape[0]
    base_mir = 1 + m_gov
    base_w = base_mir + n_wt * m_gov
    omega = y[base_w + j]
    tsr = radius[j] * omega / v_w[j]
    cp = _cp_value(tsr, pitch[j])
    if cp < 0.0:
        cp = 0.0
    p_t = count[j] * half_rho_area[j] * cp * v_w[j] ** 3
    p_mppt = k_opt_w[j] * omega ** 3
    if p_mppt < p_min_w[j]:
        p_mppt = p_min_w[j]
    elif p_mppt > p_max_w[j]:
        p_mppt = p_max_w[j]
    mir_out = mir_d_total * df
    off = base_mir + j * m_gov
    for s in range(m_gov):
        mir_out -= c_g[s] * y[off + s]
    p_cmd = p_e0_w[j] + shares[j] * (mir_out + kw * df) * s_base_w
    if p_cmd > p_max_w[j]:
        p_cmd = p_max_w[j]
    elif p_cmd < p_min_w[j]:
        p_cmd = p_min_w[j]
    return p_cmd, p_mppt, p_t


@maybe_njit
def _run_segment(
    y, start_step, n_steps, dt, t_support_end, exit_on,
    p_d_arr, gov_scale,
    ev_step, ev_dpd, ev_unit, ev_frac, act_step, ctrl_kind,
    two_h, damping, s_base_w, f_base,
    a_g, b_g, c_g, d_units, unit_of_state,
    modes, gamma, armed, shares, mir_d_total, kw, kf, kin, t_filt,
    count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w, floor_rad,
    k_opt_w, p_e0_w, j_fleet,
    tr_df, tr_pm, tr_pe, tr_dfdot, tr_pd, tr_wt_pe, tr_wt_omega, tr_flags,
    y_snapshot, k1, k2, k3, k4, y_tmp, wt_pe_w, wt_flags,
):
    """Integrate from start_step until an exit trigger fires or time runs out.

    Rows [start_step ..] of the trace arrays are filled with start-of-step
    values; on a trigger the kernel returns before committing the offending
    step (the snapshot holds its start state). Returns
    (next_step, trigger_wt, trigger_code).
    """
    m_gov = a_g.shape[0]
    n_wt = count.shape[0]
    base_w = 1 + m_gov + n_wt * m_gov
    i = start_step
    while i <= n_steps:
        # events and controller activation land on step boundaries
        for e in range(ev_step.shape[0]):
            if ev_step[e] == i:
                p_d_arr[0] += ev_dpd[e]
                if ev_unit[e] >= 0:
                    gov_scale[ev_unit[e]] *= 1.0 - ev_frac[e]
        if i == act_step:
            for j in range(n_wt):
                if ctrl_kind[j] == 1:
                    modes[j] = MODE_AAPC
                elif ctrl_kind[j] == 2:
                    modes[j] = MODE_VIC

        # record start-of-step values
        pm, pe = _rhs(y, p_d_arr[0], two_h, damping, s_base_w, f_base, a_g, b_g, c_g,
                      d_units, unit_of_state, gov_scale, modes, gamma, shares,
                      mir_d_total, kw, kf, kin, t_filt, count, half_rho_area,
                      radius, v_w, pitch, p_min_w, p_max_w, floor_rad, k_opt_w,
                      p_e0_w, j_fleet, k1, wt_pe_w, wt_flags)
        tr_df[i] = y[0]
        tr_pm[i] = pm
        tr_pe[i] = pe
        tr_dfdot[i] = k1[0]
        tr_pd[i] = p_d_arr[0]
        for j in range(n_wt):
            tr_wt_pe[i, j] = wt_pe_w[j]
            tr_wt_omega[i, j] = y[base_w + j]
            tr_flags[i, j] = wt_flags[j]
        if i == n_steps:
            return n_steps + 1, -1, TRIG_NONE

        for q in range(y.shape[0]):
            y_snapshot[q] = y[q]
        _rk4_step(y, dt, p_d_arr[0], two_h, damping, s_base_w, f_base, a_g, b_g, c_g,
                  d_units, unit_of_state, gov_scale, modes, gamma, shares,
                  mir_d_total, kw, kf, kin, t_filt, count, half_rho_area,
                  radius, v_w, pitch, p_min_w, p_max_w, floor_rad, k_opt_w,
                  p_e0_w, j_fleet, k1, k2, k3, k4, y_tmp, wt_pe_w, wt_flags)

        t_end = (i + 1) * dt
        if exit_on:
            for j in range(n_wt):
                if modes[j] != MODE_AAPC:
                    continue
                if y[base_w + j] <= floor_rad[j]:
                    return i, j, TRIG_FLOOR
                if t_end >= t_support_end - 1e-12:
                    return i, j, TRIG_HORIZON
                p_cmd, p_mppt, _ = _wt_trigger_state(
                    y, j, y[0], s_base_w, m_gov, c_g, mir_d_total, kw, shares,
                    count, half_rho_area, radius, v_w, pitch, p_min_w, p_max_w,
                    k_opt_w, p_e0_w)
                if not armed[j]:
                    if p_cmd > p_mppt * (1.0 + 1e-9) + 1e-3:
                        armed[j] = True
                elif p_cmd <= p_mppt:
                    return i, j, TRIG_POWER_CROSS
        i += 1
    return n_steps + 1, -1, TRIG_NONE


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

    def as_dict(self) -> dict:
        return {
            "nadir_pu": self.nadir_pu,
            "nadir_hz": self.nadir_hz,
            "t_nadir_s": self.t_nadir_s,
            "max_rocof_hz_s": self.max_rocof_hz_s,
            "terminal_dev_hz": self.terminal_dev_hz,
            "secondary_dip": self.secondary_dip,
            "e_r_pct": self.e_r_pct,
            "degenerate": self.degenerate,
            "max_swing_residual": self.max_swing_residual,
            "limit_events": self.limit_events,
            "exit_events": self.exit_events,
        }


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
    event_time_s: float | None

    @property
    def n_wt(self) -> int:
        return self.wt_pe_mw.shape[1]


class _Assembled:
    """Scenario compiled to flat kernel arrays."""

    def __init__(self, sc: Scenario, alpha: float | None):
        grid = sc.grid
        self.grid = grid
        self.s_base_w = grid.s_base_mva * 1e6
        realizations = [
            scale_output(tf_to_statespace(g), g.rated_mva / grid.s_base_mva)
            for g in sc.governors
        ]
        m_per = [r.order for r in realizations]
        m_gov = int(np.sum(m_per)) if m_per else 0
        self.m_gov = m_gov
        self.a_g = np.zeros((m_gov, m_gov))
        self.b_g = np.zeros(m_gov)
        self.c_g = np.zeros(m_gov)
        self.d_units = np.array([float(r.d[0, 0]) for r in realizations]) \
            if realizations else np.zeros(0)
        self.unit_of_state = np.zeros(m_gov, dtype=np.int64)
        pos = 0
        for u, r in enumerate(realizations):
            n = r.order
            self.a_g[pos:pos + n, pos:pos + n] = r.a
            self.b_g[pos:pos + n] = r.b[:, 0]
            self.c_g[pos:pos + n] = r.c[0, :]
            self.unit_of_state[pos:pos + n] = u
            pos += n
        self.gov_scale = np.ones(len(realizations))
        self.mir_d_total = -float(np.sum(self.d_units)) if realizations else 0.0

        n_wt = len(sc.turbines)
        self.n_wt = n_wt
        self.ctrl_kind = np.zeros(n_wt, dtype=np.int8)
        self.count = np.zeros(n_wt)
        self.half_rho_area = np.zeros(n_wt)
        self.radius = np.zeros(n_wt)
        self.v_w = np.zeros(n_wt)
        self.pitch = np.zeros(n_wt)
        self.p_min_w = np.zeros(n_wt)
        self.p_max_w = np.zeros(n_wt)
        self.floor_rad = np.zeros(n_wt)
        self.k_opt_w = np.zeros(n_wt)
        self.p_e0_w = np.zeros(n_wt)
        self.j_fleet = np.zeros(n_wt)
        self.omega0 = np.zeros(n_wt)
        kinds = {"none": 0, "optimal_aapc": 1, "classic_vic": 2}
        caps = []
        for j, t in enumerate(sc.turbines):
            spec = t.spec
            state = make_state(spec, t.wind_speed_ms, grid.s_base_mva, t.pitch_deg)
            self.ctrl_kind[j] = kinds[t.controller]
            self.count[j] = spec.count
            self.half_rho_area[j] = 0.5 * spec.air_density * math.pi * spec.rotor_radius_m ** 2
            self.radius[j] = spec.rotor_radius_m
            self.v_w[j] = t.wind_speed_ms
            self.pitch[j] = t.pitch_deg
            self.p_min_w[j] = spec.p_min_fleet_mw * 1e6
            self.p_max_w[j] = spec.p_max_fleet_mw * 1e6
            self.floor_rad[j] = spec.floor_speed_rad
            tsr_opt, cp_max = cp_peak(0.0)
            self.k_opt_w[j] = (spec.count * 0.5 * spec.air_density * math.pi
                               * spec.rotor_radius_m ** 5 * cp_max / tsr_opt ** 3)
            self.p_e0_w[j] = state.p_e_pu * self.s_base_w
            self.j_fleet[j] = spec.fleet_inertia
            self.omega0[j] = state.omega_rad_s
            e_min = 0.5 * spec.fleet_inertia * spec.floor_speed_rad ** 2 / 1e6
            caps.append((state.energy_mj - e_min,
                         spec.p_max_fleet_mw - self.p_e0_w[j] / 1e6))

        if sc.allocation is not None:
            shares = np.asarray(sc.allocation, dtype=float)
        else:
            aapc_idx = [j for j in range(n_wt) if self.ctrl_kind[j] == 1]
            shares = np.zeros(n_wt)
            if aapc_idx:
                shares[aapc_idx] = allocate([caps[j] for j in aapc_idx])
            for j in range(n_wt):
                if self.ctrl_kind[j] == 2:
                    shares[j] = 1.0
        self.shares = shares
        self.alpha = alpha
        self.kw = 0.0
        if alpha is not None and np.any(self.ctrl_kind == 1):
            ctrl = synthesize(grid, list(sc.governors), alpha)
            self.kw = ctrl.gain_kw


def solve_hypothetical(sc: Scenario, nodes: int | None = None) -> to.TrajectorySolution:
    """Trajectory optimum for the scenario's hypothetical deficit.

    The deficit (``p_d_pu`` of the result) defaults to a tenth of the load
    and the collocation order to the scenario's.
    """
    p_hyp = sc.solver.hypothetical_p_d_pu
    if p_hyp is None:
        p_hyp = 0.1 * sc.grid.load_pu
    problem = to.build_problem(sc.grid, list(sc.governors), p_hyp, sc.solver.t_f)
    cgrid = coll.make_grid(sc.solver.nodes if nodes is None else nodes, 0.0, sc.solver.t_f)
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
    problems = scenario.validate()
    if problems:
        raise ScenarioError("; ".join(problems))
    alpha = alpha_override if alpha_override is not None else _resolve_alpha(scenario)
    asm = _Assembled(scenario, alpha)

    dt = scenario.sim.step_s
    n_steps = int(round(scenario.sim.duration_s / dt))
    n_wt = asm.n_wt
    m_gov = asm.m_gov

    ev_step = np.array([int(round(e.time_s / dt)) for e in scenario.events], dtype=np.int64)
    ev_dpd = np.zeros(len(scenario.events))
    ev_unit = np.full(len(scenario.events), -1, dtype=np.int64)
    ev_frac = np.zeros(len(scenario.events))
    gov_names = [g.name for g in scenario.governors]
    for idx, e in enumerate(scenario.events):
        if e.kind == "load_surge":
            ev_dpd[idx] = e.magnitude_pu
        else:
            ev_dpd[idx] = _trip_magnitude(scenario, e)
            ev_unit[idx] = gov_names.index(e.unit)
            ev_frac[idx] = e.fraction
    act_step = int(ev_step[0]) if len(scenario.events) else -1
    t_event = act_step * dt if act_step >= 0 else None
    t_support_end = (t_event + scenario.solver.t_f) if t_event is not None else np.inf

    n_y = 1 + m_gov + n_wt * m_gov + 2 * n_wt
    y = np.zeros(n_y)
    base_w = 1 + m_gov + n_wt * m_gov
    y[base_w:base_w + n_wt] = asm.omega0

    modes = np.zeros(n_wt, dtype=np.int8)
    gamma = np.zeros(n_wt)
    armed = np.zeros(n_wt, dtype=np.bool_)
    p_d_arr = np.zeros(1)

    tr_df = np.zeros(n_steps + 1)
    tr_pm = np.zeros(n_steps + 1)
    tr_pe = np.zeros(n_steps + 1)
    tr_dfdot = np.zeros(n_steps + 1)
    tr_pd = np.zeros(n_steps + 1)
    tr_wt_pe = np.zeros((n_steps + 1, n_wt))
    tr_wt_omega = np.zeros((n_steps + 1, n_wt))
    tr_flags = np.zeros((n_steps + 1, n_wt), dtype=np.int8)
    y_snapshot = np.zeros(n_y)
    k1, k2, k3, k4, y_tmp = (np.zeros(n_y) for _ in range(5))
    wt_pe_w = np.zeros(n_wt)
    wt_flags = np.zeros(n_wt, dtype=np.int8)

    def call_segment(start):
        return _run_segment(
            y, start, n_steps, dt, t_support_end, scenario.exit_enabled,
            p_d_arr, asm.gov_scale,
            ev_step, ev_dpd, ev_unit, ev_frac, act_step, asm.ctrl_kind,
            2.0 * scenario.grid.inertia_s, scenario.grid.damping, asm.s_base_w,
            scenario.grid.f_base_hz,
            asm.a_g, asm.b_g, asm.c_g, asm.d_units, asm.unit_of_state,
            modes, gamma, armed, asm.shares, asm.mir_d_total, asm.kw,
            scenario.vic.k_f, scenario.vic.k_in, scenario.vic.filter_s,
            asm.count, asm.half_rho_area, asm.radius, asm.v_w, asm.pitch,
            asm.p_min_w, asm.p_max_w, asm.floor_rad, asm.k_opt_w, asm.p_e0_w,
            asm.j_fleet,
            tr_df, tr_pm, tr_pe, tr_dfdot, tr_pd, tr_wt_pe, tr_wt_omega, tr_flags,
            y_snapshot, k1, k2, k3, k4, y_tmp, wt_pe_w, wt_flags,
        )

    def rk4_from(y0, h):
        yy = y0.copy()
        if h > 0:
            _rk4_step(yy, h, p_d_arr[0], 2.0 * scenario.grid.inertia_s,
                      scenario.grid.damping, asm.s_base_w, scenario.grid.f_base_hz,
                      asm.a_g, asm.b_g,
                      asm.c_g, asm.d_units, asm.unit_of_state, asm.gov_scale,
                      modes, gamma, asm.shares, asm.mir_d_total, asm.kw,
                      scenario.vic.k_f, scenario.vic.k_in, scenario.vic.filter_s,
                      asm.count, asm.half_rho_area, asm.radius, asm.v_w,
                      asm.pitch, asm.p_min_w, asm.p_max_w, asm.floor_rad,
                      asm.k_opt_w, asm.p_e0_w, asm.j_fleet,
                      k1, k2, k3, k4, y_tmp, wt_pe_w, wt_flags)
        return yy

    def trigger_at(yy, j, code, t_abs):
        p_cmd, p_mppt, p_t = _wt_trigger_state(
            yy, j, yy[0], asm.s_base_w, m_gov, asm.c_g, asm.mir_d_total,
            asm.kw, asm.shares, asm.count, asm.half_rho_area, asm.radius,
            asm.v_w, asm.pitch, asm.p_min_w, asm.p_max_w, asm.k_opt_w,
            asm.p_e0_w)
        if code == TRIG_FLOOR:
            hit = yy[base_w + j] <= asm.floor_rad[j]
        elif code == TRIG_POWER_CROSS:
            hit = p_cmd <= p_mppt
        else:
            hit = t_abs >= t_support_end - 1e-12
        return hit, p_cmd, p_mppt, p_t

    exit_events = []
    step = 0
    while True:
        step, j_trig, code = call_segment(step)
        if code == TRIG_NONE:
            break
        # the offending step ran from step*dt on y_snapshot; locate t_e < 1 ms
        t0 = step * dt
        if code == TRIG_HORIZON:
            h_e = max(0.0, t_support_end - t0)
        else:
            lo, hi = 0.0, dt
            for _ in range(14):  # dt / 2^14 << 1 ms
                mid = 0.5 * (lo + hi)
                y_mid = rk4_from(y_snapshot, mid)
                hit, *_ = trigger_at(y_mid, j_trig, code, t0 + mid)
                if hit:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-3:
                    break
            # a floor exit switches on the last instant above the floor, so
            # the rotor never actually crosses it
            h_e = lo if code == TRIG_FLOOR else hi
        y_e = rk4_from(y_snapshot, h_e)
        _, p_cmd, p_mppt, p_t = trigger_at(y_e, j_trig, code, t0 + h_e)
        to_exit = [j_trig]
        if code == TRIG_HORIZON:  # the window closes for every active turbine
            to_exit = [jj for jj in range(n_wt) if modes[jj] == MODE_AAPC]
        for jj in to_exit:
            p_cmd_j, p_mppt_j, p_t_j = _wt_trigger_state(
                y_e, jj, y_e[0], asm.s_base_w, m_gov, asm.c_g, asm.mir_d_total,
                asm.kw, asm.shares, asm.count, asm.half_rho_area, asm.radius,
                asm.v_w, asm.pitch, asm.p_min_w, asm.p_max_w, asm.k_opt_w,
                asm.p_e0_w)
            g = exit_gamma(p_cmd_j / 1e6, p_t_j / 1e6, p_mppt_j / 1e6)
            gamma[jj] = g
            modes[jj] = MODE_EXITED
            p_after = (1.0 - g) * p_t_j + g * p_mppt_j
            exit_events.append({
                "turbine": scenario.turbines[jj].name,
                "kind": EXIT_KIND_NAMES[code],
                "t_e_s": t0 + h_e,
                "gamma": g,
                "power_step_pu": abs(p_after - p_cmd_j) / asm.s_base_w,
            })
        # finish the interrupted step on the corrected modes
        y_rest = rk4_from(y_e, dt - h_e)
        y[:] = y_rest
        step = step + 1

    f_b = scenario.grid.f_base_hz
    t = np.arange(n_steps + 1) * dt
    return SimResult(
        scenario=scenario,
        t=t,
        df_pu=tr_df,
        df_hz=tr_df * f_b,
        dfdot_pu_s=tr_dfdot,
        dpm_pu=tr_pm,
        dpe_pu=tr_pe,
        p_d_pu=tr_pd,
        wt_pe_mw=tr_wt_pe / 1e6,
        wt_omega_rad_s=tr_wt_omega,
        wt_flags=tr_flags,
        exit_events=exit_events,
        alpha=alpha,
        gain_kw=asm.kw if alpha is not None else None,
        shares=asm.shares,
        wt_omega0=asm.omega0,
        wt_p_e0_mw=asm.p_e0_w / 1e6,
        event_time_s=t_event,
    )


# ---------------------------------------------------------------------------
# metrics and sweeps
# ---------------------------------------------------------------------------

def metrics(result: SimResult, nadir_ref_pu: float | None = None) -> MetricsRecord:
    """Nadir, RoCoF, dip and limit bookkeeping; e_r against a reference nadir."""
    sc = result.scenario
    f_b = sc.grid.f_base_hz
    df = result.df_pu
    i_nadir = int(np.argmin(df))
    nadir = float(df[i_nadir])
    degenerate = nadir >= 0.0

    two_h = 2.0 * sc.grid.inertia_s
    residual = np.abs(
        two_h * result.dfdot_pu_s
        - (result.dpm_pu + result.dpe_pu - result.p_d_pu - sc.grid.damping * df)
    )

    # secondary dip: a later local minimum materially below the first one
    secondary = False
    mins = []
    for i in range(1, len(df) - 1):
        if df[i] < df[i - 1] and df[i] <= df[i + 1]:
            mins.append((result.t[i], df[i]))
            if len(mins) > 1 and abs(df[i]) > 1.05 * abs(mins[0][1]):
                secondary = True

    e_r = None
    if nadir_ref_pu is not None:
        if nadir == 0.0 or degenerate:
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


def coi_frequency(per_machine_hz: np.ndarray, inertia_s, rating_mva) -> np.ndarray:
    """Inertia-weighted average frequency across machine columns."""
    traces = np.atleast_2d(np.asarray(per_machine_hz, dtype=float))
    h = np.asarray(inertia_s, dtype=float)
    s = np.asarray(rating_mva, dtype=float)
    if traces.shape[1] != h.size or h.size != s.size:
        raise ValueError(
            f"{traces.shape[1]} trace columns vs {h.size} inertias / {s.size} ratings"
        )
    if np.any(h <= 0) or np.any(s <= 0):
        raise ValueError("inertias and ratings must be positive")
    w = h * s
    return traces @ w / w.sum()


def read_frequency_csv(path):
    """Per-machine frequency columns from a headered CSV (first column time)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = list(data.dtype.names)
    cols = np.column_stack([data[n] for n in names[1:]])
    return data[names[0]], cols, names[1:]


def insensitivity_sweep(
    scenario: Scenario,
    p_d_list,
    e_r_limit_pct: float = 5.0,
    alpha: float | None = None,
    reference_nadir_per_pd: float | None = None,
):
    """Run the scenario across deficits; e_r versus the linearly-scaled optimum.

    Returns (rows, p_d_max) where each row is a dict with p_d, nadir and e_r,
    and p_d_max is the largest deficit keeping e_r within the limit.
    """
    sol = None
    if reference_nadir_per_pd is None:
        sol = solve_hypothetical(scenario)
        reference_nadir_per_pd = sol.nadir_pu / sol.p_d_pu
    if alpha is None:
        alpha = _resolve_alpha(scenario, sol)

    rows = []
    p_d_max = None
    for p_d in p_d_list:
        events = tuple(
            DisturbanceEvent(time_s=e.time_s, kind="load_surge", magnitude_pu=p_d)
            for e in scenario.events[:1]
        ) or (DisturbanceEvent(time_s=0.0, kind="load_surge", magnitude_pu=p_d),)
        sc = _with(scenario, events=events)
        res = run(sc, alpha_override=alpha)
        rec = metrics(res, nadir_ref_pu=reference_nadir_per_pd * p_d)
        rows.append({
            "p_d_pu": float(p_d),
            "nadir_hz": rec.nadir_hz,
            "e_r_pct": rec.e_r_pct,
            "limit_events": len(rec.limit_events),
        })
        if rec.e_r_pct is not None and rec.e_r_pct <= e_r_limit_pct:
            p_d_max = float(p_d) if p_d_max is None or p_d > p_d_max else p_d_max
    return rows, p_d_max


def compare_strategies(scenario: Scenario, strategies=("none", "classic_vic", "optimal_aapc")):
    """Identical events under each control strategy; returns name -> metrics."""
    alpha = _resolve_alpha(_with_controllers(scenario, "optimal_aapc")) \
        if "optimal_aapc" in strategies else None
    out = {}
    for strat in strategies:
        sc = _with_controllers(scenario, strat)
        res = run(sc, alpha_override=alpha if strat == "optimal_aapc" else None)
        out[strat] = (res, metrics(res))
    return out


def _with(sc: Scenario, **kw) -> Scenario:
    return replace(sc, **kw)


def _with_controllers(sc: Scenario, controller: str) -> Scenario:
    turbines = tuple(replace(t, controller=controller) for t in sc.turbines)
    return replace(sc, turbines=turbines, allocation=None)
