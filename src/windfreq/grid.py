"""System frequency plant: swing-equation parameters and governor dynamics.

Governors are proper rational transfer functions from per-unit frequency
deviation to per-unit mechanical-power deviation (negative DC gain: frequency
below nominal raises mechanical power). Each governor is realized in
controllable canonical form on the system power base, and the fleet keeps one
state per distinct dynamics: units whose realizations share (A, B) are driven
by the same deviation from the same zero state, so their states are equal and
one copy carries them (exact aggregation). The aggregate is the
block-diagonal stack of these groups.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridParameters",
    "GovernorSpec",
    "StateSpace",
    "reheat_governor",
    "governor_dc_gain_total",
    "steady_state_deviation",
    "energy_residual",
    "tf_to_statespace",
    "group_governors",
    "aggregate_governors",
    "scale_output",
    "rebase_governors",
]


@dataclass(frozen=True)
class GridParameters:
    """Swing-equation constants on the system base."""

    inertia_s: float          # H, seconds on s_base_mva
    damping: float            # D, pu power per pu frequency
    f_base_hz: float          # 50 or 60
    s_base_mva: float
    load_pu: float            # total active load, pu on s_base_mva

    def __post_init__(self):
        if self.inertia_s <= 0:
            raise ValueError(f"inertia must be positive, got {self.inertia_s}")
        if self.damping < 0:
            raise ValueError(f"damping must be nonnegative, got {self.damping}")
        if self.f_base_hz not in (50.0, 60.0, 50, 60):
            raise ValueError(f"base frequency must be 50 or 60 Hz, got {self.f_base_hz}")
        if self.s_base_mva <= 0:
            raise ValueError(f"power base must be positive, got {self.s_base_mva}")
        if self.load_pu <= 0:
            raise ValueError(f"load must be positive, got {self.load_pu}")


@dataclass(frozen=True)
class GovernorSpec:
    """Proper transfer function (descending coefficients) plus its rating."""

    name: str
    rated_mva: float
    num: tuple
    den: tuple

    def __post_init__(self):
        num = tuple(float(v) for v in self.num)
        den = tuple(float(v) for v in self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if self.rated_mva <= 0:
            raise ValueError(f"governor {self.name!r}: rating must be positive")
        if len(num) == 0 or len(den) == 0 or den[0] == 0:
            raise ValueError(f"governor {self.name!r}: empty or degenerate polynomials")
        if len(num) > len(den):
            raise ValueError(
                f"governor {self.name!r}: improper transfer function "
                f"(numerator degree {len(num) - 1} > denominator degree {len(den) - 1})"
            )
        if len(den) > 1:
            poles = np.roots(den)
            if np.any(poles.real >= -1e-12):
                raise ValueError(f"governor {self.name!r}: unstable poles {poles}")

    @property
    def dc_gain(self) -> float:
        if self.den[-1] == 0:
            raise ZeroDivisionError(f"governor {self.name!r}: pole at the origin")
        return self.num[-1] / self.den[-1]


def reheat_governor(mech_gain: float, hp_fraction: float, reheat_time_s: float, droop: float,
                    rated_mva: float, name: str = "") -> GovernorSpec:
    """Reheat steam unit -K_m (1 + F_H T_R s) / (R (1 + T_R s)): mechanical
    gain K_m, high-pressure fraction F_H, reheat time T_R and droop R.

    The sign makes a negative frequency deviation (deficit) produce positive
    mechanical power, so |DC gain| = K_m / R.
    """
    if droop <= 0 or reheat_time_s <= 0:
        raise ValueError(f"droop and reheat time must be positive, got droop={droop}, "
                         f"reheat_time_s={reheat_time_s}")
    if not 0 <= hp_fraction <= 1:
        raise ValueError(f"hp_fraction must be in [0, 1], got {hp_fraction}")
    if mech_gain <= 0:
        raise ValueError(f"mech_gain must be positive, got {mech_gain}")
    k = -mech_gain / droop
    return GovernorSpec(name=name, rated_mva=rated_mva, num=(k * hp_fraction * reheat_time_s, k),
                        den=(reheat_time_s, 1.0))


def governor_dc_gain_total(governors, s_base_mva: float) -> float:
    """Aggregate steady-state regulation gain on the system base.

    Sum of |G_i(0)| * rating_i / s_base over the fleet; 0 for an empty fleet.
    """
    return float(sum(abs(g.dc_gain) * g.rated_mva / s_base_mva for g in governors))


def steady_state_deviation(p_d_pu: float, grid: GridParameters, k_g: float) -> float:
    """Post-event settling frequency deviation -P_d / (D + K_g), per unit."""
    denom = grid.damping + k_g
    if denom <= 0:
        raise ZeroDivisionError(
            f"singular plant: damping + regulation gain = {denom} (no restoring feedback)"
        )
    return -p_d_pu / denom


def energy_residual(grid: GridParameters, df_end: float, s_df: float, e_m: float,
                    p_d_pu: float, t_f: float) -> float:
    """Residual of the swing equation integrated over [0, t_f].

    2H df(t_f) + D S - (E_m - P_d t_f), with S the integral of the frequency
    deviation and E_m that of the governor power; zero for any trajectory
    that returns the turbine energy exchange to zero by t_f. Each caller
    brings its own quadrature of S and E_m.
    """
    return float(2.0 * grid.inertia_s * df_end + grid.damping * s_df - (e_m - p_d_pu * t_f))


@dataclass(frozen=True)
class StateSpace:
    """Real matrices (A, B, C, D) with shapes (n,n), (n,m), (p,n), (p,m)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(a.shape[0], -1) if np.size(self.b) else np.zeros((a.shape[0], 1))
        c = np.asarray(self.c, dtype=float).reshape(-1, a.shape[0]) if np.size(self.c) else np.zeros((1, a.shape[0]))
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise ValueError(f"D shape {d.shape} inconsistent with C {c.shape}, B {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def order(self) -> int:
        return self.a.shape[0]


def tf_to_statespace(gov: GovernorSpec) -> StateSpace:
    """Controllable canonical realization with explicit feedthrough.

    Polynomial division splits off the direct term; the strictly proper
    remainder lands in the companion-form (A, B, C).
    """
    den = np.asarray(gov.den, dtype=float)
    num = np.asarray(gov.num, dtype=float)
    num = num / den[0]
    den = den / den[0]
    order = len(den) - 1
    if order == 0:
        return StateSpace(
            a=np.zeros((0, 0)), b=np.zeros((0, 1)), c=np.zeros((1, 0)), d=[[num[-1]]]
        )
    num_padded = np.concatenate([np.zeros(len(den) - len(num)), num])
    feedthrough = num_padded[0]
    remainder = num_padded[1:] - feedthrough * den[1:]
    a = np.zeros((order, order))
    a[0, :] = -den[1:]
    if order > 1:
        a[1:, :-1] = np.eye(order - 1)
    b = np.zeros((order, 1))
    b[0, 0] = 1.0
    return StateSpace(a=a, b=b, c=remainder.reshape(1, order), d=[[feedthrough]])


def scale_output(ss: StateSpace, factor: float) -> StateSpace:
    """Scale the output channel, e.g. machine base -> system base."""
    return StateSpace(a=ss.a, b=ss.b, c=factor * ss.c, d=factor * ss.d)


def rebase_governors(governors, s_base_mva: float) -> list:
    """Each governor's realization, its output scaled to the system base."""
    return [scale_output(tf_to_statespace(g), g.rated_mva / s_base_mva) for g in governors]


def group_governors(realizations) -> tuple:
    """Units grouped by their dynamics: (groups, unit_group, unit_outputs).

    Realizations whose (A, B) are equal to the bit form one group, numbered
    in order of first appearance. ``groups[g]`` is one realization per group,
    with its units' (A, B) and the sums of their C and D in unit order;
    ``unit_group[u]`` is the group of unit u, and ``unit_outputs[u]`` its own
    (output row, feedthrough), which a per-unit output scaling needs.
    """
    index, members, unit_group = {}, [], []
    for r in realizations:
        g = index.setdefault((r.a.shape, r.a.tobytes(), r.b.tobytes()), len(index))
        if g == len(members):
            members.append([])
        members[g].append(r)
        unit_group.append(g)
    groups = []
    for units in members:
        c, d = units[0].c, float(units[0].d[0, 0])
        for r in units[1:]:
            c = c + r.c
            d += float(r.d[0, 0])
        groups.append(StateSpace(a=units[0].a, b=units[0].b, c=c, d=[[d]]))
    unit_outputs = [(r.c[0], float(r.d[0, 0])) for r in realizations]
    return groups, unit_group, unit_outputs


def aggregate_governors(realizations) -> StateSpace:
    """Block-diagonal stack of the groups of SISO governors sharing the same input.

    One block per group of ``group_governors``: A is block diagonal, B
    stacks, C concatenates the group rows and the feedthroughs add. An empty
    list yields the zero 0-state system.
    """
    groups = group_governors(realizations)[0]
    if not groups:
        return StateSpace(a=np.zeros((0, 0)), b=np.zeros((0, 1)), c=np.zeros((1, 0)), d=[[0.0]])
    total = sum(g.order for g in groups)
    a = np.zeros((total, total))
    b = np.zeros((total, 1))
    c = np.zeros((1, total))
    d = 0.0
    pos = 0
    for g in groups:
        n = g.order
        a[pos:pos + n, pos:pos + n] = g.a
        b[pos:pos + n, :] = g.b
        c[:, pos:pos + n] = g.c
        d += float(g.d[0, 0])
        pos += n
    return StateSpace(a=a, b=b, c=c, d=[[d]])
