"""Feedback-form optimal supplementary power control and its companions.

The synthesized controller mirrors the aggregate governor with negated output
and adds a proportional gain chosen so the closed frequency loop collapses to
a first-order response whose settling level equals the trajectory-optimal
nadir. The fleet share of each turbine comes from its capability indices; the
exit strategy blends the turbine back to its tracking curve without a power
step. A constant-coefficient proportional-derivative controller is included
as the classic virtual-inertia baseline.
"""

from dataclasses import dataclass

import numpy as np

from .codegen import law_function
from .grid import GovernorSpec, GridParameters, StateSpace, aggregate_governors, \
    governor_dc_gain_total, rebase_governors, scale_output

__all__ = [
    "AapcController",
    "BaselineVic",
    "synthesize",
    "mirror_output",
    "command_pu",
    "allocate",
    "check_exit",
    "arms_power_cross",
    "exit_gamma",
    "exit_power",
    "vic_filter_rate",
    "vic_command_mw",
]


@dataclass(frozen=True)
class AapcController:
    """Synthesized aggregate controller: mirror governor plus frequency gain."""

    mirror: StateSpace      # -G_g(s) on the system base
    gain_kw: float          # proportional term, pu power per pu frequency
    alpha: float            # nadir-to-steady-state ratio used in the synthesis
    k_g: float
    damping: float
    inertia_s: float

    @property
    def response_rate(self) -> float:
        """Decay rate of the target first-order frequency response, 1/s."""
        return (self.damping + self.k_g) / (2.0 * self.alpha * self.inertia_s)

    def nadir_for(self, p_d_pu: float) -> float:
        """Settling level of the target response for a given deficit, pu."""
        return -self.alpha * p_d_pu / (self.damping + self.k_g)

    def target_response(self, t, p_d_pu: float):
        """The exponential-decay frequency trajectory the synthesis embeds."""
        t = np.asarray(t, dtype=float)
        return self.nadir_for(p_d_pu) * (1.0 - np.exp(-self.response_rate * t))


def synthesize(
    grid_params: GridParameters,
    governors: list[GovernorSpec],
    alpha: float,
) -> AapcController:
    """Build the aggregate feedback controller -G_g(s) + K_w.

    K_w = D - (D + K_g)/alpha; with the governor mirror cancelling the
    physical governors, the closed loop becomes first order with settling
    level alpha times the natural steady-state deviation. The mirror is the
    negated ``grid.aggregate_governors`` realization, one state per distinct
    governor dynamics.
    """
    if alpha < 1.0:
        raise ValueError(
            f"alpha must be >= 1 (nadir at or below the settling level), got {alpha}"
        )
    k_g = governor_dc_gain_total(governors, grid_params.s_base_mva)
    if grid_params.damping + k_g <= 0:
        raise ValueError("damping + governor gain must be positive for synthesis")
    gov = aggregate_governors(rebase_governors(governors, grid_params.s_base_mva))
    mirror = scale_output(gov, -1.0)
    gain_kw = grid_params.damping - (grid_params.damping + k_g) / alpha
    return AapcController(
        mirror=mirror,
        gain_kw=gain_kw,
        alpha=alpha,
        k_g=k_g,
        damping=grid_params.damping,
        inertia_s=grid_params.inertia_s,
    )


def mirror_output(mirror_d: float, mirror_c, x_gov, df: float) -> float:
    """Output of the mirror -G_g(s) read off the governor state, pu.

    The mirror is driven by the same deviation as the governors and starts
    from the same zero state, so its state is the governor state ``x_gov``;
    ``mirror_d`` and ``mirror_c`` are its negated feedthrough and output row.
    The closed-loop kernel writes this sum out term by term, in this order.
    """
    out = mirror_d * df
    for s in range(len(mirror_c)):
        out += mirror_c[s] * x_gov[s]
    return out


# Each controller law is written once, as a Python expression with named
# slots (see ``codegen``); the callables below are compiled from them.
COMMAND_LAW = "{share} * ({mirror} + {gain_kw} * {df})"
EXIT_BLEND_LAW = "(1.0 - {gamma}) * {p_t} + {gamma} * {p_mppt}"
VIC_FILTER_RATE_LAW = "({df} - {z}) / {filter_s}"
VIC_COMMAND_LAW = "-({k_f} * {df} * {f_base} + {k_in} * {rate} * {f_base})"

command_pu = law_function(
    __name__, "command_pu", ("share", "mirror_pu", "gain_kw", "df"),
    COMMAND_LAW.format(share="share", mirror="mirror_pu", gain_kw="gain_kw", df="df"),
    doc="One turbine's power command deviation: its share of mirror plus gain, pu.")


def allocate(capabilities) -> np.ndarray:
    """Fleet shares from (releasable energy, increasable power) pairs.

    Each share is the smaller of the turbine's energy fraction and power
    fraction, renormalized to sum to one exactly.
    """
    caps = np.asarray(list(capabilities), dtype=float)
    if caps.ndim != 2 or caps.shape[1] != 2 or caps.shape[0] < 1:
        raise ValueError("capabilities must be a nonempty list of (energy, power) pairs")
    if np.any(caps < 0):
        raise ValueError("capability entries must be nonnegative")
    totals = caps.sum(axis=0)
    if np.any(totals <= 0):
        raise ValueError(f"each capability column needs a positive total, got {totals}")
    raw = np.minimum(caps[:, 0] / totals[0], caps[:, 1] / totals[1])
    if raw.sum() <= 0:
        raise ValueError("all turbines have zero capability in one direction")
    shares = raw / raw.sum()
    shares[-1] = 1.0 - shares[:-1].sum()  # exact unit sum despite rounding
    return shares


def check_exit(
    p_command: float,
    p_mppt: float,
    omega_rad_s: float,
    floor_rad_s: float,
    t: float,
    t_f: float,
    armed: bool,
) -> str | None:
    """First matching exit cause, if any; the two powers share any one unit.

    The horizon fires from 1e-12 s before ``t_f``, the window's end, which
    rounding can put just after a step. The power-cross trigger only fires
    once armed (``arms_power_cross``), since the pre-event operating point
    sits exactly on the tracking curve.
    """
    if omega_rad_s <= floor_rad_s:
        return "speed_floor"
    if t >= t_f - 1e-12:
        return "horizon"
    if armed and p_command <= p_mppt:
        return "power_cross"
    return None


def arms_power_cross(p_command_w: float, p_mppt_w: float) -> bool:
    """Whether the command arms the power-cross trigger of ``check_exit``, powers in W.

    It must have risen above the tracking power by more than 1e-9 of it plus
    1 mW, a margin over the rounding of the pre-event balance.
    """
    return p_command_w > p_mppt_w * (1.0 + 1e-9) + 1e-3


def exit_gamma(p_e_at_te: float, p_t_at_te: float, p_mppt_at_te: float) -> float:
    """Blend coefficient preserving power continuity at the switch instant."""
    denom = p_mppt_at_te - p_t_at_te
    if abs(denom) < 1e-9:
        return 1.0
    return float(np.clip((p_e_at_te - p_t_at_te) / denom, 0.0, 1.0))


exit_power = law_function(
    __name__, "exit_power", ("gamma", "p_t", "p_mppt"),
    EXIT_BLEND_LAW.format(gamma="gamma", p_t="p_t", p_mppt="p_mppt"),
    doc="Post-exit output law, evaluated on the live operating point (any unit).")


@dataclass(frozen=True)
class BaselineVic:
    """Constant-coefficient proportional-derivative inertial response.

    Gains act on the locally measured deviation in Hz: k_f in MW per Hz and
    k_in in MW per Hz/s, per aggregated turbine.
    """

    k_f: float = 20.0
    k_in: float = 10.0
    filter_s: float = 0.1   # first-order lag making the derivative realizable

    def __post_init__(self):
        if self.k_f < 0 or self.k_in < 0 or self.filter_s <= 0:
            raise ValueError("VIC gains must be nonnegative with a positive filter time")


vic_filter_rate = law_function(
    __name__, "vic_filter_rate", ("vic", "df", "z"),
    VIC_FILTER_RATE_LAW.format(df="df", z="z", filter_s="vic.filter_s"),
    doc="dz/dt of the lag z of the deviation; also the VIC derivative estimate.")
vic_command_mw = law_function(
    __name__, "vic_command_mw", ("vic", "df_pu", "z_pu", "f_base_hz"),
    VIC_COMMAND_LAW.format(k_f="vic.k_f", k_in="vic.k_in", df="df_pu", rate="deriv",
                           f_base="f_base_hz"),
    "deriv = " + VIC_FILTER_RATE_LAW.format(df="df_pu", z="z_pu", filter_s="vic.filter_s")
    + "\n",
    "Classic VIC command -k_f df - k_in d(df)/dt, MW, from the filter state z.\n\n"
    "The deviation and the filter state are in pu; ``f_base_hz`` turns them into\n"
    "the Hz the gains act on.")
