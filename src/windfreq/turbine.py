"""DFIG wind-turbine aerodynamics: C_p, turbine power and the tracking curve.

An aggregated fleet of identical units is modeled as one turbine with the
single-unit inertia multiplied by the unit count; powers are fleet totals.
The laws run in SI (W, rad/s) and are written once each as source templates
(``CP_LAW``, ``TURBINE_POWER_LAW``, ``TRACKING_POWER_LAW``), from which
``_cp_value``, ``_turbine_power_w`` and ``_mppt_power_w`` are compiled (see
``codegen``); the public surface reports MW and MJ. The tracking curve
follows the C_p optimum at the turbine's pitch, which the exponential C_p
fit has in closed form (``_cp_optimum``); at zero pitch it is ``TSR_OPT``
and ``CP_MAX``. The one-mass rotor dynamics J w dw/dt = P_t - P_e are
integrated by the closed-loop kernel in ``windfreq.simulator``, which writes
the same law templates inline with the turbine's constants in their slots,
together with the two laws only the kernel runs: ``APPLIED_POWER_LAW``
(the power clamp and the speed-floor cutback, with their ``FLAG_*`` bits)
and ``FLOOR_HOLD_LAW`` (a rotor held on its floor at the end of a step).
"""

import math
from dataclasses import dataclass

from .codegen import law_function

__all__ = [
    "TurbineSpec",
    "TurbineState",
    "dfig5mw",
    "TSR_OPT",
    "CP_MAX",
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


# Each law is written once, as Python source with named slots; see
# ``codegen``. C_p is clamped to 0 where it goes negative and beyond the fit's
# domain edge, where 1 / lambda_i <= 0.
CP_LAW = """\
{inv} = 1.0 / ({tsr} + 0.08 * {pitch}) - 0.035 / ({pitch} ** 3 + 1.0)
if {inv} <= 0.0:
    {cp} = 0.0
else:
    {cp} = 0.22 * (116.0 * {inv} - 0.4 * {pitch} - 5.0) * exp(-12.5 * {inv})
    if {cp} < 0.0:
        {cp} = 0.0
"""
# aerodynamic fleet power, W, with ``scale`` = ``_fleet_power_scale(spec)``
TURBINE_POWER_LAW = ("{tsr} = {radius} * {omega} / {wind}\n" + CP_LAW
                     + "{p_t} = {scale} * {cp} * {wind} ** 3\n")
# tracking-curve power k_opt w^3, W, clamped to [p_min, p_max]
TRACKING_POWER_LAW = """\
{p} = {k_opt} * {omega} ** 3
if {p} > {p_max}:
    {p} = {p_max}
elif {p} < {p_min}:
    {p} = {p_min}
"""
FLAG_POWER_LIMIT = 1  # the applied power is clamped to a fleet power limit
FLAG_FLOOR = 2        # the applied power is cut back to P_t at the speed floor
# applied fleet power, W, and its limit flags: the command clamped to [p_min,
# p_max], then cut back to the turbine power P_t once the rotor is at its
# floor; ``mode_test`` is empty or a condition on the controller mode ending
# in `` and ``, under which the cutback may engage
APPLIED_POWER_LAW = """\
if {p_cmd} > {p_max}:
    {p} = {p_max}
    {flags} = %(limit)d
elif {p_cmd} < {p_min}:
    {p} = {p_min}
    {flags} = %(limit)d
else:
    {p} = {p_cmd}
    {flags} = 0
if {mode_test}{omega} <= {floor} and {p} > {p_t}:
    {p} = {p_t}
    {flags} |= %(floor)d
""" % {"limit": FLAG_POWER_LIMIT, "floor": FLAG_FLOOR}
# a rotor below its floor at the end of a step is put back on it, under
# ``mode_test`` as in ``APPLIED_POWER_LAW``
FLOOR_HOLD_LAW = """\
if {mode_test}{omega} < {floor}:
    {omega} = {floor}
"""

_cp_value = law_function(
    __name__, "_cp_value", ("tsr", "pitch"), "cp",
    CP_LAW.format(tsr="tsr", pitch="pitch", inv="inv_lam", cp="cp"),
    "Aerodynamic efficiency C_p at tip-speed ratio tsr and pitch, clamped (``CP_LAW``).")
_turbine_power_w = law_function(
    __name__, "_turbine_power_w", ("omega", "wind", "pitch", "radius", "power_scale"), "p_t",
    TURBINE_POWER_LAW.format(omega="omega", wind="wind", pitch="pitch", radius="radius",
                             scale="power_scale", tsr="tsr", inv="inv_lam", cp="cp", p_t="p_t"),
    "Aerodynamic fleet power, W; ``power_scale`` is ``_fleet_power_scale(spec)``.")
_mppt_power_w = law_function(
    __name__, "_mppt_power_w", ("omega", "k_opt_w", "p_min_w", "p_max_w"), "p",
    TRACKING_POWER_LAW.format(omega="omega", k_opt="k_opt_w", p_min="p_min_w",
                              p_max="p_max_w", p="p"),
    "Tracking-curve power k_opt w^3, W, clamped to [p_min_w, p_max_w].")


def _cp_optimum(pitch_deg: float) -> tuple:
    """(lambda*, C_p(lambda*, pitch)): the tip-speed ratio of the C_p maximum
    at this pitch, and the maximum.

    In x = 1 / lambda_i, C_p = 0.22 (116 x - 0.4 beta - 5) exp(-12.5 x) has
    the derivative 0.22 exp(-12.5 x) (116 - 12.5 (116 x - 0.4 beta - 5)),
    whose one root x* = (14.28 + 0.4 beta) / 116 is a maximum: C_p rises from
    0 up to it and decays past it. lambda_i's definition gives lambda* from
    x*. At zero pitch this is ``TSR_OPT`` and ``CP_MAX``. lambda* peaks near
    2 deg and falls beyond it (4.33 at 16 deg) to 0 at about 44.9 deg, so a
    steep pitch puts the equilibrium speed under a fleet's floor;
    ``Scenario.validate`` rejects such a pitch by name.
    """
    x = (14.28 + 0.4 * pitch_deg) / 116.0
    tsr = 1.0 / (x + 0.035 / (pitch_deg ** 3 + 1.0)) - 0.08 * pitch_deg
    return tsr, _cp_value(tsr, pitch_deg)


TSR_OPT, CP_MAX = _cp_optimum(0.0)


def _fleet_power_scale(spec: TurbineSpec) -> float:
    """count * 0.5 rho pi R^2: turbine power per unit C_p v^3, W s^3/m^3."""
    return float(spec.count) * (0.5 * spec.air_density * math.pi * spec.rotor_radius_m ** 2)


def _k_opt_w(spec: TurbineSpec, pitch_deg: float) -> float:
    """Optimal-torque curve gain at this pitch, W per (rad/s)^3, fleet total."""
    tsr, cp = _cp_optimum(pitch_deg)
    return _fleet_power_scale(spec) * (spec.rotor_radius_m / tsr) ** 3 * cp


def mppt_power(omega_rad_s: float, spec: TurbineSpec, pitch_deg: float = 0.0) -> float:
    """Tracking-curve power k_opt w^3 at this pitch, MW, clamped to the fleet
    power limits."""
    if omega_rad_s <= 0:
        return max(0.0, spec.p_min_fleet_mw)
    return _mppt_power_w(omega_rad_s, _k_opt_w(spec, pitch_deg), spec.p_min_fleet_mw * 1e6,
                         spec.p_max_fleet_mw * 1e6) / 1e6


def mppt_equilibrium_speed(wind_speed_ms: float, spec: TurbineSpec,
                           pitch_deg: float = 0.0) -> float:
    """Rotor speed (rad/s) where the tracking curve at this pitch meets the
    turbine power: the C_p optimum's tip-speed ratio."""
    return _cp_optimum(pitch_deg)[0] * wind_speed_ms / spec.rotor_radius_m


def make_state(
    spec: TurbineSpec,
    wind_speed_ms: float,
    s_base_mva: float,
    pitch_deg: float = 0.0,
    omega_rad_s: float | None = None,
    p_e_mw: float | None = None,
) -> TurbineState:
    """Construct a state, defaulting to the tracking-curve equilibrium at the pitch."""
    if omega_rad_s is None:
        omega = mppt_equilibrium_speed(wind_speed_ms, spec, pitch_deg)
    else:
        omega = omega_rad_s
    if omega < spec.floor_speed_rad - 1e-12:
        raise ValueError(
            f"operating speed {omega:.4f} rad/s below the floor "
            f"{spec.floor_speed_rad:.4f} rad/s at wind {wind_speed_ms} m/s"
        )
    p_mw = mppt_power(omega, spec, pitch_deg) if p_e_mw is None else p_e_mw
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
