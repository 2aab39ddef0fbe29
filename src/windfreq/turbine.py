"""DFIG wind-turbine aerodynamics: C_p, turbine power and the tracking curve.

An aggregated fleet of identical units is modeled as one turbine with the
single-unit inertia multiplied by the unit count; powers are fleet totals.
The laws run in SI (W, rad/s) in ``_turbine_power_w`` and ``_mppt_power_w``;
the public surface reports MW and MJ. The one-mass rotor dynamics
J w dw/dt = P_t - P_e, with the power limits and the speed-floor cutback, are
integrated by the closed-loop kernel in ``windfreq.simulator``, which calls
the same two laws.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TurbineSpec",
    "TurbineState",
    "dfig5mw",
    "cp_peak",
    "mppt_power",
    "mppt_equilibrium_speed",
    "make_state",
    "capability_indices",
]

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
    """Aerodynamic efficiency, clamped to 0 where it goes negative and
    beyond the model's domain edge (1 / lambda_i <= 0)."""
    inv_lam = 1.0 / (tsr + 0.08 * pitch) - 0.035 / (pitch ** 3 + 1.0)
    if inv_lam <= 0.0:
        return 0.0
    cp = 0.22 * (116.0 * inv_lam - 0.4 * pitch - 5.0) * math.exp(-12.5 * inv_lam)
    if cp < 0.0:
        return 0.0
    return cp


@lru_cache(maxsize=16)
def cp_peak(pitch_deg: float = 0.0):
    """(tsr_opt, cp_max) for a fixed pitch: grid scan plus golden-section polish.

    The scan finds the maximum of C_p on a 1e-3 grid of tip-speed ratios over
    [0.5, 20) without evaluating all of it: every 100th point first, then
    every point within 0.2 of the coarse maximum.
    """
    tsr_grid = np.arange(0.5, 20.0, 1e-3)
    coarse = tsr_grid[::100]
    i_c = int(np.argmax([_cp_value(t, pitch_deg) for t in coarse.tolist()]))
    near = np.flatnonzero(np.abs(tsr_grid - coarse[i_c]) <= 0.2)
    i = int(near[np.argmax([_cp_value(t, pitch_deg) for t in tsr_grid[near].tolist()])])
    return _polish_cp_peak(tsr_grid[i], pitch_deg)


def _polish_cp_peak(tsr_grid_max, pitch_deg):
    """Golden-section refinement of a C_p maximum found on the 1e-3 grid."""
    lo = max(tsr_grid_max - 2e-3, 1e-6)
    hi = tsr_grid_max + 2e-3
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


def _fleet_power_scale(spec: TurbineSpec) -> float:
    """count * 0.5 rho pi R^2: turbine power per unit C_p v^3, W s^3/m^3."""
    return float(spec.count) * (0.5 * spec.air_density * math.pi * spec.rotor_radius_m ** 2)


def _turbine_power_w(omega, wind, pitch, radius, power_scale):
    """Aerodynamic fleet power, W; ``power_scale`` is ``_fleet_power_scale(spec)``."""
    return power_scale * _cp_value(radius * omega / wind, pitch) * wind ** 3


def _mppt_power_w(omega, k_opt_w, p_min_w, p_max_w):
    """Tracking-curve power k_opt w^3, W, clamped to [p_min_w, p_max_w]."""
    p = k_opt_w * omega ** 3
    if p > p_max_w:
        return p_max_w
    if p < p_min_w:
        return p_min_w
    return p


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
    return _mppt_power_w(omega_rad_s, _k_opt_w(spec), spec.p_min_fleet_mw * 1e6,
                         spec.p_max_fleet_mw * 1e6) / 1e6


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


def capability_indices(state: TurbineState, spec: TurbineSpec, s_base_mva: float):
    """(releasable kinetic energy MJ, increasable power MW) for the fleet."""
    e_min = 0.5 * spec.fleet_inertia * spec.floor_speed_rad ** 2 / 1e6
    de_max = max(0.0, state.energy_mj - e_min)
    dp_max = max(0.0, spec.p_max_fleet_mw - state.p_e_pu * s_base_mva)
    return de_max, dp_max
