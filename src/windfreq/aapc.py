"""Feedback-form optimal supplementary power control and its companions.

The synthesized controller mirrors the aggregate governor with negated output
and adds a proportional gain chosen so the closed frequency loop collapses to
a first-order response whose settling level equals the trajectory-optimal
nadir. The fleet share of each turbine comes from its capability indices; the
exit strategy blends the turbine back to its tracking curve without a power
step. A constant-coefficient proportional-derivative controller is included
as the classic virtual-inertia baseline.

Each law is a source template (``COMMAND_LAW``, ``EXIT_BLEND_LAW``, the VIC
filter rate and command, ``EXIT_TRIGGER_LAW`` and ``ARMING_LAW``) that the
closed-loop kernel in ``windfreq.simulator`` writes inline with its
literals. The mirror has no state of its own: it reads the governor state,
and the kernel writes its output sum. Only the exit step outside the kernel
calls a law, so only ``check_exit`` and ``exit_power`` are compiled here
(see ``codegen``).
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
    "allocate",
    "check_exit",
    "exit_gamma",
    "exit_power",
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


# Each controller law is written once, as a Python expression with named
# slots (see ``codegen``), which the closed-loop kernel fills with its
# literals; ``exit_power`` is compiled from the blend.
COMMAND_LAW = "{share} * ({mirror} + {gain_kw} * {df})"
EXIT_BLEND_LAW = "(1.0 - {gamma}) * {p_t} + {gamma} * {p_mppt}"
VIC_FILTER_RATE_LAW = "({df} - {z}) / {filter_s}"
VIC_COMMAND_LAW = "-({k_f} * {df} * {f_base} + {k_in} * {rate} * {f_base})"


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


# The exit triggers and the arming of the power cross, written once each like
# the laws above; the closed-loop kernel writes them inline at each step, and
# ``check_exit`` is compiled from the triggers. The horizon fires from 1e-12 s
# before ``t_f``, the window's end, which rounding can put just after a step;
# the power-cross trigger only fires once armed, since the pre-event operating
# point sits exactly on the tracking curve, and the command arms it only once
# it has risen above the tracking power by more than 1e-9 of it plus 1 mW, a
# margin over the rounding of the pre-event balance.
EXIT_TRIGGER_LAW = """\
if {omega} <= {floor}:
    {kind} = "speed_floor"
elif {t} >= {t_f} - 1e-12:
    {kind} = "horizon"
elif {armed} and {p_command} <= {p_mppt}:
    {kind} = "power_cross"
else:
    {kind} = None
"""
ARMING_LAW = "{p_command} > {p_mppt} * (1.0 + 1e-9) + 1e-3"

check_exit = law_function(
    __name__, "check_exit",
    ("p_command", "p_mppt", "omega_rad_s", "floor_rad_s", "t", "t_f", "armed"), "kind",
    EXIT_TRIGGER_LAW.format(omega="omega_rad_s", floor="floor_rad_s", t="t", t_f="t_f",
                            kind="kind", armed="armed", p_command="p_command",
                            p_mppt="p_mppt"),
    "First matching exit cause (``EXIT_TRIGGER_LAW``), or None; the two powers share\n"
    "any one unit.")


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

