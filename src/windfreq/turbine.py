"""DFIG wind-turbine aerodynamics and one-mass rotor dynamics.

An aggregated fleet of identical units is modeled as one turbine with the
single-unit inertia multiplied by the unit count; powers are fleet totals.
Internally the rotor runs in SI (W, rad/s); the public surface reports MW and
MJ, with per-unit conversion on the system base left to the simulator.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "TurbineSpec",
    "TurbineState",
    "dfig5mw",
    "power_coefficient",
    "cp_peak",
    "turbine_power",
    "mppt_power",
    "mppt_equilibrium_speed",
    "make_state",
    "step_rotor",
    "capability_indices",
]

CP_DOMAIN_SENTINEL = -1.0


@dataclass(frozen=True)
class TurbineSpec:
    """Physical parameters of one aggregated DFIG fleet."""

    rated_mva: float
    rated_mw: float
    p_max_mw: float            # per unit machine, MW
    p_min_mw: float
    rated_speed_rpm: float
    min_speed_pu: float        # floor as a fraction of rated speed
    inertia_kgm2: float        # single-unit rotor inertia
    rotor_radius_m: float = 63.0
    air_density: float = 1.225
    count: int = 1

    def __post_init__(self):
        if self.p_min_mw >= self.p_max_mw:
            raise ValueError(f"need p_min < p_max, got [{self.p_min_mw}, {self.p_max_mw}]")
        if not 0 < self.min_speed_pu < 1:
            raise ValueError(f"min_speed_pu must be in (0, 1), got {self.min_speed_pu}")
        if self.inertia_kgm2 <= 0 or self.rotor_radius_m <= 0 or self.air_density <= 0:
            raise ValueError("inertia, rotor radius and air density must be positive")
        if self.count < 1:
            raise ValueError(f"fleet count must be >= 1, got {self.count}")

    @property
    def rated_speed_rad(self) -> float:
        return self.rated_speed_rpm * 2.0 * math.pi / 60.0

    @property
    def floor_speed_rad(self) -> float:
        return self.min_speed_pu * self.rated_speed_rad

    @property
    def fleet_inertia(self) -> float:
        return self.inertia_kgm2 * self.count

    @property
    def p_max_fleet_mw(self) -> float:
        return self.p_max_mw * self.count

    @property
    def p_min_fleet_mw(self) -> float:
        return self.p_min_mw * self.count


@dataclass(frozen=True)
class TurbineState:
    """Operating point of one aggregated fleet."""

    omega_rad_s: float
    wind_speed_ms: float
    pitch_deg: float
    p_e_pu: float           # fleet electrical power, pu on the system base
    energy_mj: float        # fleet kinetic energy 0.5 J_agg w^2


def dfig5mw(count: int = 1, rotor_radius_m: float = 63.0, air_density: float = 1.225) -> TurbineSpec:
    """The 5 MW DFIG unit used throughout the case studies."""
    return TurbineSpec(
        rated_mva=5.556,
        rated_mw=5.0,
        p_max_mw=5.0,
        p_min_mw=0.0,
        rated_speed_rpm=12.1,
        min_speed_pu=0.7,
        inertia_kgm2=16_801_544.0,
        rotor_radius_m=rotor_radius_m,
        air_density=air_density,
        count=count,
    )


def _cp_value(tsr, pitch):
    """Aerodynamic efficiency; negative values clamp to 0, domain errors -> -1."""
    inv_lam = 1.0 / (tsr + 0.08 * pitch) - 0.035 / (pitch ** 3 + 1.0)
    if inv_lam <= 0.0:
        return CP_DOMAIN_SENTINEL
    cp = 0.22 * (116.0 * inv_lam - 0.4 * pitch - 5.0) * np.exp(-12.5 * inv_lam)
    if cp < 0.0:
        return 0.0
    return cp


def power_coefficient(tsr: float, pitch_deg: float = 0.0) -> float:
    """C_p(lambda, beta), clamped at zero outside the efficient region."""
    if tsr <= 0:
        raise ValueError(f"tip-speed ratio must be positive, got {tsr}")
    if pitch_deg < 0:
        raise ValueError(f"pitch must be nonnegative, got {pitch_deg}")
    cp = _cp_value(float(tsr), float(pitch_deg))
    if cp == CP_DOMAIN_SENTINEL:
        raise ValueError(f"C_p model domain violated at tsr={tsr}, pitch={pitch_deg}")
    return float(cp)


@lru_cache(maxsize=16)
def cp_peak(pitch_deg: float = 0.0):
    """(tsr_opt, cp_max) for a fixed pitch: dense scan plus parabolic refine."""
    tsr_grid = np.arange(0.5, 20.0, 1e-3)
    cps = np.array([_cp_value(t, pitch_deg) for t in tsr_grid])
    i = int(np.argmax(cps))
    lo = max(tsr_grid[i] - 2e-3, 1e-6)
    hi = tsr_grid[i] + 2e-3
    # golden-section polish
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _cp_value(c, pitch_deg), _cp_value(d, pitch_deg)
    for _ in range(120):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _cp_value(c, pitch_deg)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _cp_value(d, pitch_deg)
        if b - a < 1e-12:
            break
    tsr_opt = 0.5 * (a + b)
    return float(tsr_opt), float(_cp_value(tsr_opt, pitch_deg))


def turbine_power(state: TurbineState, spec: TurbineSpec) -> float:
    """Aerodynamic power captured by the fleet, MW."""
    if state.wind_speed_ms < 0.1:
        return 0.0
    if state.omega_rad_s <= 0:
        raise ValueError(f"rotor speed must be positive, got {state.omega_rad_s}")
    tsr = spec.rotor_radius_m * state.omega_rad_s / state.wind_speed_ms
    cp = power_coefficient(tsr, state.pitch_deg)
    swept = math.pi * spec.rotor_radius_m ** 2
    watts = spec.count * 0.5 * spec.air_density * swept * cp * state.wind_speed_ms ** 3
    return watts / 1e6


def _k_opt_w(spec: TurbineSpec) -> float:
    """Optimal-torque curve gain, W per (rad/s)^3, fleet total."""
    tsr_opt, cp_max = cp_peak(0.0)
    return (
        spec.count * 0.5 * spec.air_density * math.pi
        * spec.rotor_radius_m ** 5 * cp_max / tsr_opt ** 3
    )


def mppt_power(omega_rad_s: float, spec: TurbineSpec) -> float:
    """Tracking-curve power k_opt w^3, MW, clamped to the fleet power limits."""
    if omega_rad_s <= 0:
        return max(0.0, spec.p_min_fleet_mw)
    mw = _k_opt_w(spec) * omega_rad_s ** 3 / 1e6
    return float(np.clip(mw, spec.p_min_fleet_mw, spec.p_max_fleet_mw))


def mppt_equilibrium_speed(wind_speed_ms: float, spec: TurbineSpec) -> float:
    """Rotor speed (rad/s) where the tracking curve meets the turbine power."""
    tsr_opt, _ = cp_peak(0.0)
    return tsr_opt * wind_speed_ms / spec.rotor_radius_m


def make_state(
    spec: TurbineSpec,
    wind_speed_ms: float,
    s_base_mva: float,
    pitch_deg: float = 0.0,
    omega_rad_s: float | None = None,
    p_e_mw: float | None = None,
) -> TurbineState:
    """Construct a state, defaulting to the tracking-curve equilibrium."""
    omega = mppt_equilibrium_speed(wind_speed_ms, spec) if omega_rad_s is None else omega_rad_s
    if omega < spec.floor_speed_rad - 1e-12:
        raise ValueError(
            f"operating speed {omega:.4f} rad/s below the floor "
            f"{spec.floor_speed_rad:.4f} rad/s at wind {wind_speed_ms} m/s"
        )
    p_mw = mppt_power(omega, spec) if p_e_mw is None else p_e_mw
    return TurbineState(
        omega_rad_s=float(omega),
        wind_speed_ms=float(wind_speed_ms),
        pitch_deg=float(pitch_deg),
        p_e_pu=float(p_mw / s_base_mva),
        energy_mj=0.5 * spec.fleet_inertia * omega ** 2 / 1e6,
    )


def _rotor_rhs(omega, p_e_w, wind, pitch, half_rho_area, radius, count, j_fleet, floor):
    """d(omega)/dt with the protective cutback folded in; returns (dw, applied P_e W)."""
    tsr = radius * omega / wind
    cp = _cp_value(tsr, pitch)
    if cp < 0.0:
        cp = 0.0
    p_t = count * half_rho_area * cp * wind ** 3
    p_applied = p_e_w
    if omega <= floor and p_e_w > p_t:
        p_applied = p_t  # hold speed at the floor instead of stalling through it
    return (p_t - p_applied) / (j_fleet * omega), p_applied


def step_rotor(
    state: TurbineState,
    p_e_command_pu: float,
    dt: float,
    spec: TurbineSpec,
    s_base_mva: float,
) -> TurbineState:
    """One fixed RK4 step of J w dw/dt = P_t - P_e under the commanded power.

    The command is clamped to the fleet power limits; at the speed floor the
    applied power is cut back to the turbine power so the rotor holds instead
    of crossing the floor.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(p_e_command_pu):
        raise ValueError("power command must be finite")
    cmd_w = float(np.clip(p_e_command_pu * s_base_mva, spec.p_min_fleet_mw, spec.p_max_fleet_mw)) * 1e6
    half_rho_area = 0.5 * spec.air_density * math.pi * spec.rotor_radius_m ** 2
    floor = spec.floor_speed_rad
    j_fleet = spec.fleet_inertia
    args = (state.wind_speed_ms, state.pitch_deg, half_rho_area,
            spec.rotor_radius_m, spec.count, j_fleet, floor)

    w = state.omega_rad_s
    k1, p1 = _rotor_rhs(w, cmd_w, *args)
    k2, _ = _rotor_rhs(w + 0.5 * dt * k1, cmd_w, *args)
    k3, _ = _rotor_rhs(w + 0.5 * dt * k2, cmd_w, *args)
    k4, p4 = _rotor_rhs(w + dt * k3, cmd_w, *args)
    w_new = w + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if w_new < floor:
        w_new = floor
    applied_w = p4  # command after limits/cutback at the step's end condition
    return replace(
        state,
        omega_rad_s=w_new,
        p_e_pu=applied_w / 1e6 / s_base_mva,
        energy_mj=0.5 * j_fleet * w_new ** 2 / 1e6,
    )


def capability_indices(state: TurbineState, spec: TurbineSpec, s_base_mva: float):
    """(releasable kinetic energy MJ, increasable power MW) for the fleet."""
    e_min = 0.5 * spec.fleet_inertia * spec.floor_speed_rad ** 2 / 1e6
    de_max = max(0.0, state.energy_mj - e_min)
    dp_max = max(0.0, spec.p_max_fleet_mw - state.p_e_pu * s_base_mva)
    return de_max, dp_max
