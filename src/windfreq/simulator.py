"""Closed-loop time-domain simulation of grid, governors, turbines, controllers.

Fixed-step RK4 co-integrates the swing equation, one governor state block
per distinct governor dynamics, the one-mass rotors and, if a turbine runs
the classic VIC, one VIC filter state; this kernel is the package's only
integrator of rotor and governor dynamics. Governor units with the same
dynamics share a state block, and the VIC turbines share the filter, because
each sees the same deviation from the same zero state; the AAPC mirror of the
governors has no state of its own: it reads the governor states.
Disturbances are steps in the power deficit; generation trips also scale the
tripped unit's governor output, which keeps its own output term. Turbine
power limits and the rotor speed floor are enforced inside the right-hand
side, and a rotor that is not under AAPC is held on its floor at the end of
each step. Each step checks the exit triggers (``aapc.EXIT_TRIGGER_LAW``)
at its start, and a trigger is located in the step before by 14 bisection
halvings (0.6 us at a 10 ms step), where the exit blend takes over.
The right-hand side is the only evaluator of turbine power, tracking power and
controller command at a closed-loop state: the exit checks, the bisection and
the exit blend read the powers it records. Identical inputs produce
bit-identical traces.

The kernel is one function generated per run, ``advance(asm, y, h, i,
stop)``: assembly writes the scenario's right-hand side, RK4 step, exit
checks and step loop as Python source, every constant a float literal and
every sum one statement per term in the order of the loops over A_g's rows,
the governor outputs and the mirror, and compiles it once
(``_compile_kernel``) through ``codegen.compile_functions``, the package's
one compile path for generated code. One call runs every step between two
events or exits, with the state and the run-time values in local
variables, so a run makes one call per event and a few dozen per exit; the
driver, ``_integrate``, handles the exits and events between these
stretches, and the same function takes its single and partial steps. Assembly
passes every scenario number that reaches the kernel through ``float()``,
so the loop runs on Python floats whatever numbers the caller built the
scenario from. On a state of a few entries numpy's per-call overhead costs
more than the arithmetic, and a loop over tuples of constants that do not
change during a run costs more than the arithmetic too, as does a call per
law or per step. The generated code writes the laws of ``turbine`` and
``aapc`` inline from their source templates, the text their callables are
compiled from (``codegen``), so each law keeps one implementation: the power
clamp and floor cutback are ``turbine.APPLIED_POWER_LAW``, the end-of-step
floor hold ``turbine.FLOOR_HOLD_LAW``, and the exit checks
``aapc.EXIT_TRIGGER_LAW`` and ``aapc.ARMING_LAW``. CPython folds the parts
that read only literals. A turbine that no controller drives (every
turbine of ``compare``'s ``none`` run, the no-support baseline) sits on its
tracking curve, which decouples it from the grid frequency, at an operating
point that ``Scenario.validate`` admits only as a tracking equilibrium: it
is a constant of the run, with no rotor state, whose records assembly
evaluates at its operating speed w0 once, through the law callables, and
the kernel writes as literals. Every controlled turbine runs its
controller's law from the first step, because before the first event the
commands equal the operating power. The source is registered in ``linecache`` under
``<windfreq-kernel-N>`` while the kernel lives, so tracebacks and
``inspect.getsource`` show it. numpy holds the assembly (governor
realization and aggregation, allocation) and the preallocated traces, which
each step fills with one ``struct`` pack. ``SimResult.stats``
counts the steps, segments, exit checks, bisection halvings and
right-hand-side evaluations of a run and times its assembly and integration.

The closed loops of ``insensitivity_sweep`` (one per deficit) and
``compare_strategies`` (one per strategy) do not depend on each other, so
they run in forked worker processes, one per CPU in the affinity mask, and
their results are bitwise equal to a serial run. With one CPU they run in
the calling process; ``taskset`` gives a serial run.
"""

import itertools
import math
import os
import pickle
import struct
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import collocation as coll
from . import trajopt as to
from .aapc import (ARMING_LAW, COMMAND_LAW, EXIT_BLEND_LAW, EXIT_TRIGGER_LAW, VIC_COMMAND_LAW,
                   VIC_FILTER_RATE_LAW, allocate, check_exit, exit_gamma, exit_power,
                   synthesize)
from .codegen import compile_functions
from .grid import aggregate_governors, group_governors, rebase_governors
from .scenario import DisturbanceEvent, Scenario, ScenarioError
from .turbine import (APPLIED_POWER_LAW, FLAG_FLOOR, FLAG_POWER_LIMIT, FLOOR_HOLD_LAW,
                      TRACKING_POWER_LAW, TURBINE_POWER_LAW, _applied_power_w,
                      _fleet_power_scale, _k_opt_w, _mppt_power_w, _turbine_power_w,
                      capability_indices, make_state, mppt_power)

__all__ = [
    "SimResult",
    "MetricsRecord",
    "run",
    "metrics",
    "solve_hypothetical",
    "solved_alpha",
    "insensitivity_sweep",
    "compare_strategies",
    "allocation_shares",
    "WorkerError",
]

E_R_BAND_PCT = 5.0  # the e_r band of insensitivity_sweep's p_d_max
# t_nadir_s is the first step within this fraction of |nadir| of the nadir: an
# optimal-AAPC trace holds within 1e-12 of its minimum for seconds, so the
# argmin alone would follow the last bit of alpha
NADIR_BAND_REL = 1e-9

_kernel_ids = itertools.count(1)  # numbers the <windfreq-kernel-N> sources


# ---------------------------------------------------------------------------
# integration kernel
# ---------------------------------------------------------------------------

def _lit(v) -> str:
    """Source literal of the float v, in parentheses: ``-2.0 ** 2`` parses as
    ``-(2.0 ** 2)``. Only finite floats enter kernel source."""
    if type(v) is not float or not math.isfinite(v):
        raise ValueError(f"kernel constant must be a finite float, got {v!r}")
    return f"({v!r})"


def _unpack(names, expr: str, indent: str = "    ") -> list:
    """Source line unpacking the sequence expr into the names, if there are any."""
    return [f"{indent}{', '.join(names)}, = {expr}"] if names else []


def _law_lines(law: str, **slots) -> list:
    """Source lines of the law template filled with the slots."""
    return law.format(**slots).splitlines()


def _mode_test(j: int, ctrl: str) -> str:
    """The ``mode_test`` slot of turbine j's floor laws under controller ctrl:
    an AAPC turbine leaves its floor by the speed-floor exit until it has
    exited."""
    return f"exited{j} and " if ctrl == "optimal_aapc" else ""


def _rhs_lines(asm, gov, units, mirror_d, mirror_c) -> list:
    """Unindented source lines of the closed-loop right-hand side at the state
    names of ``_kernel_source``: they set its derivative names, the records'
    names (``pe``, ``pt``, ``mppt``, ``fl`` and the turbine's number) of each
    turbine with a rotor state, and ``pm`` and ``pe_dev``. Only a unit that a
    ``generation_trip`` names has a ``gs`` factor: every other unit's scale
    stays 1.0, and ``1.0 * c == c``. A turbine that no controller drives adds
    its ``pe_dev`` term at its operating point (``asm.fixed``), if the term
    is not zero, and no other line."""
    vic = "classic_vic" in asm.controllers
    scaled = {u: f"gs{u} * " for u in asm.tripped}
    src = []
    for s, row in enumerate(gov.a):
        b = float(gov.b[s, 0])
        src.append("r = 0.0")
        src += [f"r += {_lit(float(row[c]))} * x{c}" for c in np.flatnonzero(row).tolist()]
        src.append(f"d{s} = r + {_lit(b)} * df" if b != 0.0 else f"d{s} = r")
    src.append("pm = 0.0")
    src += [f"pm += {scaled.get(u, '')}{_lit(c)} * x{first + s}"
            for u, (first, c_u, _) in enumerate(units) for s, c in enumerate(c_u) if c != 0.0]
    src += [f"pm += {scaled.get(u, '')}{_lit(d)} * df"
            for u, (_, _, d) in enumerate(units) if d != 0.0]
    if "optimal_aapc" in asm.controllers:
        src.append(f"mirror = {_lit(mirror_d)} * df" if mirror_d != 0.0 else "mirror = 0.0")
        src += [f"mirror += {_lit(c)} * x{s}" for s, c in enumerate(mirror_c) if c != 0.0]
    src.append("pe_dev = 0.0")
    if vic:
        src += [
            "vic_rate = " + VIC_FILTER_RATE_LAW.format(
                df="df", z="z", filter_s=_lit(float(asm.vic.filter_s))),
            "vic_mw = " + VIC_COMMAND_LAW.format(
                k_f=_lit(float(asm.vic.k_f)), k_in=_lit(float(asm.vic.k_in)), df="df",
                rate="vic_rate", f_base=_lit(asm.f_base)),
        ]
    s_base, kw = _lit(asm.s_base_w), _lit(asm.kw)
    for j, (wt, ctrl) in enumerate(zip(asm.wt, asm.controllers)):
        p_min, p_max, p_e0 = _lit(wt.p_min_w), _lit(wt.p_max_w), _lit(wt.p_e0_w)
        if ctrl == "none":
            pe_dev = (asm.fixed[j][2] - wt.p_e0_w) / asm.s_base_w
            if pe_dev != 0.0:
                src.append(f"pe_dev += {_lit(pe_dev)}")
            continue
        p_t, p_mppt, p_app = f"pt{j}", f"mppt{j}", f"pe{j}"
        laws = _law_lines(TURBINE_POWER_LAW, omega=f"w{j}", wind=_lit(wt.wind_ms),
                          pitch=_lit(wt.pitch_deg), radius=_lit(wt.radius_m),
                          scale=_lit(wt.power_scale), tsr=f"tsr{j}", inv=f"inv{j}",
                          cp=f"cp{j}", p_t=p_t)
        laws += _law_lines(TRACKING_POWER_LAW, omega=f"w{j}", k_opt=_lit(wt.k_opt_w),
                           p_min=p_min, p_max=p_max, p=p_mppt)
        if ctrl == "optimal_aapc":
            command = COMMAND_LAW.format(share=_lit(wt.share), mirror="mirror", gain_kw=kw,
                                         df="df")
            laws += [
                f"if exited{j}:",
                "    p_cmd = " + EXIT_BLEND_LAW.format(gamma=f"gamma[{j}]", p_t=p_t,
                                                     p_mppt=p_mppt),
                "else:",
                f"    p_cmd = {p_e0} + ({command}) * {s_base}",
            ]
        else:
            laws.append(f"p_cmd = {p_e0} + vic_mw * (1e6)")
        laws += _law_lines(APPLIED_POWER_LAW, p_cmd="p_cmd", p_min=p_min, p_max=p_max,
                           p=p_app, flags=f"fl{j}", mode_test=_mode_test(j, ctrl),
                           omega=f"w{j}", floor=_lit(wt.floor_rad), p_t=p_t)
        laws += [
            f"pe_dev += ({p_app} - {p_e0}) / {s_base}",
            f"dw{j} = ({p_t} - {p_app}) / ({_lit(wt.j_fleet)} * w{j})",
        ]
        src.append(f"# turbine {j}")
        src += laws
    src.append(f"ddf = (pm + pe_dev - p_d - {_lit(asm.damping)} * df) / {_lit(asm.two_h)}")
    return src


def _operating_point(asm, j: int) -> tuple:
    """(turbine power, tracking power, applied power, flags) of turbine j at
    its operating speed w0, for a turbine that no controller drives.

    Such a turbine is a constant of the run. Its command is its tracking
    power, and ``Scenario.validate`` admits only an operating point that is
    a tracking equilibrium above the floor, where the tracking power is not
    clamped and equals the turbine power to rounding: nothing moves its
    rotor off w0 (its derivative there is rounding error, 1.19e-17 rad/s^2
    on ``multi_machine`` WT1, far below what moves w0 by an ulp in a step).
    So it has no rotor state and no laws in the kernel, which sets its
    names of ``_rhs_lines`` and its speed to these values, as literals, when
    a call starts. They come from
    the law callables compiled from the templates the kernel writes inline
    for every other turbine, so they are bitwise what its laws give at w0.
    """
    wt, w0 = asm.wt[j], asm.omega0[j]
    p_t = _turbine_power_w(w0, wt.wind_ms, wt.pitch_deg, wt.radius_m, wt.power_scale)
    p_mppt = _mppt_power_w(w0, wt.k_opt_w, wt.p_min_w, wt.p_max_w)
    p_app, flags = _applied_power_w(p_mppt, wt.p_min_w, wt.p_max_w, w0, wt.floor_rad, p_t)
    return p_t, p_mppt, p_app, flags


def _exit_check_lines(asm) -> list:
    """Unindented source lines of one step's exit checks at the state names of
    ``_kernel_source``: each AAPC turbine that has not exited, in turbine
    order, counts a check in ``checks`` and evaluates
    ``aapc.EXIT_TRIGGER_LAW`` at t = i dt; the first trigger that fires sets
    ``kind`` and ``exit_j`` and breaks the step loop, and each turbine it
    passes arms its power cross (``aapc.ARMING_LAW``)."""
    src = []
    for j, (wt, ctrl) in enumerate(zip(asm.wt, asm.controllers)):
        if ctrl != "optimal_aapc":
            continue
        src += [f"if not exited{j}:", "    checks += 1"]
        src += ("    " + line for line in _law_lines(
            EXIT_TRIGGER_LAW, omega=f"w{j}", floor=_lit(wt.floor_rad),
            t=f"i * {_lit(asm.dt)}", t_f="t_f", kind="kind", armed=f"armed{j}",
            p_command=f"pe{j}", p_mppt=f"mppt{j}"))
        src += [
            "    if kind is not None:",
            f"        exit_j = {j}",
            "        break",
            f"    if not armed{j}:",
            f"        armed{j} = " + ARMING_LAW.format(p_command=f"pe{j}", p_mppt=f"mppt{j}"),
        ]
    return src


def _kernel_source(asm, gov, units, mirror_d, mirror_c) -> str:
    """Source of the scenario's kernel ``advance(asm, y, h, i=0, stop=0)``.

    With ``i < stop`` a call runs a stretch from step i, whose state y is
    evaluated (asm.k1, the records, ``asm.pm_pe``) with the step's events
    applied: per step it records row i of ``asm.traces``, takes one RK4 step
    of size h = dt and runs the exit checks (``_exit_check_lines``) at step
    i + 1. It returns (i, exit_j, kind) at the step where a trigger fires,
    before the events of step ``stop``, or after the last row, with -1 and
    None if no trigger fired; on an exit, ``asm.y_snapshot`` and
    ``asm.k1_snapshot`` hold the start of the interrupted step and its
    derivative. It adds its checks to ``stats["exit_checks"]`` and keeps the
    arming in ``asm.armed``. Any other call takes one RK4 step of size h > 0
    from the derivative in asm.k1, or with h == 0 only evaluates y.

    Every call ends with the state reached in y, its derivative in asm.k1,
    each turbine's applied power (for an AAPC turbine the clamped command),
    turbine power, tracking power and flags in asm, and (pm_pu, pe_dev_pu)
    in ``asm.pm_pe``. The run-time state (``p_d``, ``exited``, ``gamma``,
    the scales of tripped units) is read into locals when a call starts,
    and does not change within one. Every constant is a literal.

    The right-hand side (``_rhs_lines``) is written once, in the loop over
    a step's evaluations, ``stages``: y + (h/2) k1, y + (h/2) k2 and
    y + h k3, each followed by its ``weight`` into the accumulator
    s = ((k1 + 2 k2) + 2 k3) + 1.0 k4 (numpy's operation order for
    k1 + 2 k2 + 2 k3 + k4; ``1.0 * k4 == k4``), then the state the step
    reaches, y + (h/6) s, whose derivative is the next step's k1. Before that
    evaluation each rotor not under AAPC is held on its floor
    (``turbine.FLOOR_HOLD_LAW``): the cutback engages only at the floor, so
    the step that crosses it lands on it; AAPC rotors leave by the floor exit
    instead. With h == 0, ``stages`` is the evaluation of y alone.

    Each sum of the right-hand side is one statement per term from 0.0, in
    the order of the loop over the nonzeros of A_g's rows, the governor
    outputs and the mirror, with no term whose coefficient is zero: a
    skipped product could change only the sign of a zero sum. The governor output has one term per unit and state of its
    group, ``gs_u * c_u[s] * x`` (``c_u[s] * x`` for a unit no trip names),
    in unit order (``units`` holds each unit's (first group state, output
    row, feedthrough)), then one feedthrough term per unit, so a trip scales
    only its own unit.

    The laws are written inline: the source templates of ``turbine`` (C_p,
    turbine power, tracking power, the applied power's clamp and floor
    cutback) and ``aapc`` (command, exit blend, VIC filter rate and command,
    exit triggers and arming) with the turbine's and controller's literals
    in their slots, the same text the package's callables are compiled from.
    CPython folds the parts that read literals only, such as the wind's
    ``(9.0) ** 3`` and the pitch terms of C_p, at compile time, with the
    arithmetic the callables run. The VIC filter rate and command depend
    only on df and the filter state z, so a scenario with a ``classic_vic``
    turbine computes them once per evaluation; without one there is no z.
    All saturation lives here, so every RK4 stage sees the same law; the
    floor laws' ``mode_test`` slot is ``_mode_test``.

    Every controlled turbine runs its controller's law from step 0: before
    the first event df, the governor states and z are zero, so the AAPC and
    VIC commands are the operating power p_e0 bitwise, as tracking would
    give. Only an AAPC turbine has a mode, ``exited{j}``: its exit blend
    and its floor laws hold once it has exited, and its exit checks run
    until then. The mirror sum is written only when a turbine runs the
    AAPC, and the exit checks only when, besides, the scenario enables
    exits. A turbine that no controller drives is a constant of the run
    (``_operating_point``): it has no rotor state, laws or floor hold, and
    its speed and records are literals, set once per call.
    """
    m, n_wt = asm.m_gov, asm.n_wt
    vic = "classic_vic" in asm.controllers
    ys = ["df", *(f"x{s}" for s in range(m)), *(f"w{j}" for j in asm.rotors),
          *(["z"] if vic else [])]
    ks = ["ddf", *(f"d{s}" for s in range(m)), *(f"dw{j}" for j in asm.rotors),
          *(["vic_rate"] if vic else [])]
    records = {name: [f"{prefix}{j}" for j in range(n_wt)]
               for name, prefix in (("wt_pe_w", "pe"), ("wt_pt_w", "pt"),
                                    ("wt_mppt_w", "mppt"), ("wt_flags", "fl"))}
    aapc = [j for j, ctrl in enumerate(asm.controllers) if ctrl == "optimal_aapc"]
    checks = _exit_check_lines(asm) if asm.exit_enabled else []
    rhs = _rhs_lines(asm, gov, units, mirror_d, mirror_c)
    src = ["def advance(asm, y, h, i=0, stop=0):", *_unpack(ys, "y"),
           *(f"    w{j}, pt{j}, mppt{j}, pe{j}, fl{j} = {_lit(asm.omega0[j])}, {_lit(p_t)}, "
             f"{_lit(p_mppt)}, {_lit(p_app)}, {flags}"
             for j, (p_t, p_mppt, p_app, flags) in asm.fixed.items()),
           *(f"    gs{u} = asm.gov_scale[{u}]" for u in asm.tripped),
           *(f"    exited{j} = asm.exited[{j}]" for j in aapc), "    p_d = asm.p_d"]
    if aapc:
        src.append("    gamma = asm.gamma")
    src += [
        "    if h:",
        *_unpack(ks, "asm.k1", " " * 8),
        "        half = 0.5 * h",
        "        stages = ((half, 2.0), (half, 2.0), (h, 1.0), (h / 6.0, 0.0))",
        "    else:",
        "        stages = ((0.0, 0.0),)",
        "    kind = None",
        "    exit_j = -1",
        "    looping = i < stop",
        "    if looping:",
        "        pm, pe_dev = asm.pm_pe",
        *(line for name, names in records.items()
          for line in _unpack(names, f"asm.{name}", " " * 8)),
        "        put_row, row_bytes = asm.traces.put, asm.traces.row_bytes",
    ]
    if checks:
        src += [*(f"        armed{j} = asm.armed[{j}]" for j in aapc),
                "        t_f = asm.t_support_end", "        checks = 0"]
    src += [
        "    while True:",
        "        if looping:",
        "            put_row(" + ", ".join(["i * row_bytes", "df", "pm", "pe_dev", "ddf", "p_d",
                                           *(f"w{j}" for j in range(n_wt)),
                                           *records["wt_pe_w"], *records["wt_flags"]]) + ")",
        f"            if i == {asm.n_steps}:",
        "                break",
        "        if h:",
        *(f"            y_{v} = {v}" for v in ys),
        *(f"            s_{v} = {'k1_' + v + ' = ' if checks else ''}{k}" for v, k in zip(ys, ks)),
        "        for size, weight in stages:",
        "            if weight:",
        *(f"                {v} = y_{v} + size * {k}" for v, k in zip(ys, ks)),
        "            elif h:  # the state the step reaches",
        *(f"                {v} = y_{v} + size * s_{v}" for v in ys),
    ]
    for j in asm.rotors:
        src += (" " * 16 + line for line in _law_lines(
            FLOOR_HOLD_LAW, mode_test=_mode_test(j, asm.controllers[j]), omega=f"w{j}",
            floor=_lit(asm.wt[j].floor_rad)))
    src.append("            # the right-hand side")
    src += (" " * 12 + line for line in rhs)
    src += [
        "            if weight:",
        *(f"                s_{v} = s_{v} + weight * {k}" for v, k in zip(ys, ks)),
        "        if not looping:",
        "            break",
        "        i += 1",
    ]
    if checks:
        src.append("        # the exit checks at step i")
        src += (" " * 8 + line for line in checks)
    src += [
        "        if i == stop:",
        "            break",
        f"    y[:] = [{', '.join(ys)}]",
        f"    asm.k1 = [{', '.join(ks)}]",
        "    asm.pm_pe = pm, pe_dev",
        *(f"    asm.{name} = [{', '.join(names)}]" for name, names in records.items()),
    ]
    if checks:
        src += [
            "    if looping:",
            "        asm.stats['exit_checks'] += checks",
            *(f"        asm.armed[{j}] = armed{j}" for j in aapc),
            "        if kind is not None:",
            f"            asm.y_snapshot = [{', '.join(f'y_{v}' for v in ys)}]",
            f"            asm.k1_snapshot = [{', '.join(f'k1_{v}' for v in ys)}]",
        ]
    src += ["    return i, exit_j, kind", ""]
    return "\n".join(src)


def _compile_kernel(asm, *constants):
    """The function ``advance`` of ``_kernel_source(asm, *constants)``,
    compiled once by ``codegen.compile_functions``.

    Its source is registered in ``linecache`` under a unique
    ``<windfreq-kernel-N>`` name while ``advance`` lives, so tracebacks and
    ``inspect.getsource`` show the generated lines, and its globals do not
    hold it.
    """
    advance, = compile_functions(__name__, f"<windfreq-kernel-{next(_kernel_ids)}>",
                                 {"advance": _kernel_source(asm, *constants)})
    return advance


# ---------------------------------------------------------------------------
# python driver
# ---------------------------------------------------------------------------

def _rk4_from(asm, y0, h, k1=None):
    """The state one RK4 step of size h after the state list y0, as a new
    list; the step is taken only if h > 0. k1 is the derivative at y0, if
    the caller has it; otherwise y0 is evaluated first. asm.k1 and the
    records are those of the state reached."""
    y = list(y0)
    n_rhs = 0
    if h > 0 and k1 is not None:
        asm.k1 = k1
    else:
        asm.advance(asm, y, 0.0)
        n_rhs = 1
    if h > 0:
        asm.advance(asm, y, h)
        n_rhs += 4
    asm.stats["rhs_evals"] += n_rhs
    return y


def _integrate(asm) -> tuple:
    """Integrate the assembled run from ``asm.y0``; returns (traces, exit events).

    Each kernel call runs a stretch of steps (``_kernel_source``) up to an
    exit, a step where an event lands or the end. Here the exit is handled,
    the step's events apply, its state is evaluated again if one landed, and
    the next stretch starts there; so every step runs its exit checks,
    events, row and RK4 step in that order, and row i of the traces holds
    the start-of-step values of step i.

    A trigger interrupts the step before, which ran from the state and the
    derivative in ``asm.y_snapshot`` and ``asm.k1_snapshot``: the exit
    instant t_e is the window's end for the horizon, and is otherwise
    bracketed to dt / 2^14 by 14 halvings, since a command clipped at
    gamma = 1 steps by its change over the bracket. At t_e the blend takes
    over (``aapc.exit_gamma``), and the rest of the step runs without a
    second check.
    """
    advance, dt, stats, n = asm.advance, asm.dt, asm.stats, asm.n_steps
    n_wt = asm.n_wt
    asm.traces = tr = _Traces(n, n_wt)
    # the steps before whose events a stretch returns; n + 1 is never reached
    stops = sorted({event_step for event_step, *_ in asm.events if 0 < event_step <= n})
    stops.append(n + 1)
    y = list(asm.y0)
    exit_events = []
    advance(asm, y, 0.0)
    n_rhs = 1
    i = 0
    while True:
        landed = False
        for event_step, dpd, unit, frac in asm.events:
            if event_step == i:
                asm.p_d += dpd
                if unit >= 0:
                    asm.gov_scale[unit] *= 1.0 - frac
                landed = True
        if landed:
            advance(asm, y, 0.0)
            n_rhs += 1
        stop = next(s for s in stops if s > i)
        start = i
        i, j, kind = advance(asm, y, dt, i, stop)
        n_rhs += 4 * (i - start)
        if kind is None:
            if stop > n:  # the stretch ended with the row of the last step
                break
            continue
        t0 = (i - 1) * dt
        y0, k1 = asm.y_snapshot, asm.k1_snapshot
        rotor = asm.base_w + asm.rotors.index(j)
        if kind == "horizon":
            h_e = max(0.0, asm.t_support_end - t0)
        else:
            lo, hi = 0.0, dt
            for _ in range(14):
                mid = 0.5 * (lo + hi)
                y_mid = _rk4_from(asm, y0, mid, k1)
                stats["halvings"] += 1
                if check_exit(asm.wt_pe_w[j], asm.wt_mppt_w[j], y_mid[rotor],
                              asm.wt[j].floor_rad, t0 + mid, asm.t_support_end,
                              asm.armed[j]) == kind:
                    hi = mid
                else:
                    lo = mid
            # a floor exit switches on the last instant above the floor,
            # so the rotor never actually crosses it
            h_e = lo if kind == "speed_floor" else hi
        y_e = _rk4_from(asm, y0, h_e, k1)
        to_exit = [j]
        if kind == "horizon":  # the window closes for every active turbine
            to_exit = [jj for jj in range(n_wt)
                       if asm.controllers[jj] == "optimal_aapc" and not asm.exited[jj]]
        for jj in to_exit:
            p_cmd, p_mppt, p_t = asm.wt_pe_w[jj], asm.wt_mppt_w[jj], asm.wt_pt_w[jj]
            g = exit_gamma(p_cmd / 1e6, p_t / 1e6, p_mppt / 1e6)
            asm.gamma[jj] = g
            asm.exited[jj] = True
            exit_events.append({
                "turbine": asm.names[jj],
                "kind": kind,
                "t_e_s": t0 + h_e,
                "gamma": g,
                "power_step_pu": abs(exit_power(g, p_t, p_mppt) - p_cmd) / asm.s_base_w,
            })
        y = _rk4_from(asm, y_e, dt - h_e)
        stats["segments"] += 1
    stats["steps"] += n
    stats["rhs_evals"] += n_rhs
    return tr, exit_events


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
    """Uniform-step traces of one closed-loop run, its exit events and its stats.

    ``stats`` explains the run and is no part of its result: the counts
    ``steps`` (RK4 steps of size dt, a step redone around an exit counted
    once), ``segments`` (1 plus the exits handled), ``exit_checks`` (trigger
    evaluations of the step loop), ``halvings`` (exit bisection, one trigger
    evaluation each) and ``rhs_evals`` (right-hand-side evaluations: each
    RK4 step, whole or partial, counts 4, its three stages and the
    evaluation where it ends, and each evaluation alone counts 1; a partial
    step from the start of the step an exit interrupted reuses the
    derivative the kernel kept there), and the wall seconds
    ``assemble_s`` (kernel compile included) and ``integrate_s``. It enters
    no output file and no equality.
    """

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
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_wt(self) -> int:
        return self.wt_pe_mw.shape[1]


class _Turbine(NamedTuple):
    """One turbine's kernel constants, powers in W."""

    wind_ms: float
    pitch_deg: float
    radius_m: float
    power_scale: float
    k_opt_w: float
    p_min_w: float
    p_max_w: float
    floor_rad: float
    p_e0_w: float
    j_fleet: float
    share: float


class _Assembled:
    """Scenario compiled to a kernel and Python-float constants, plus the loop's mutable state.

    The state list is [df, governor states, rotor speeds, VIC filter state]:
    1 + m_gov floats, one rotor speed per turbine in ``rotors`` (the
    turbines a controller drives, in turbine order), plus 1 if a turbine
    runs ``classic_vic``. The governor states are one block per group of
    ``grid.group_governors``, so units with the same dynamics share one
    (m_gov is 3 on ``multi_machine``, whose ten units have three distinct
    dynamics), and the one VIC filter state is shared by every VIC turbine.
    The AAPC mirror has no state of its own: it reads the governor states,
    and ``_rhs_lines`` writes its output sum. A turbine that no controller
    drives has no state: ``fixed`` holds its records at its operating speed
    (``_operating_point``), which the kernel writes as literals. ``advance`` is the scenario's kernel from
    ``_compile_kernel``, one function per run, called as
    ``asm.advance(asm, y, h, i, stop)``: with i < stop it runs the stretch
    of steps from step i, recording them in ``traces``; otherwise it takes
    one RK4 step of size h > 0, or with h == 0 only evaluates y into ``k1``,
    the records and ``pm_pe`` (see ``_kernel_source``). ``tripped`` lists
    the units a ``generation_trip`` names, the only ones whose
    ``gov_scale`` can leave 1.0. ``wt`` holds one ``_Turbine`` per turbine.

    Every scenario number that reaches the kernel's source or its run-time
    state passes through ``float()`` here: the grid's bases, inertia and
    damping, the turbine constants, the gain, ``sim.step_s``, the support
    window and each event's magnitude and trip fraction. So y, ``k1``,
    ``p_d`` and the records hold Python floats whatever numbers the caller
    built the scenario from; a numpy scalar in them would make every
    operation of the loop a numpy one, about twice as slow, and ``_lit``
    rejects one that reaches the source.
    """

    def __init__(self, sc: Scenario, alpha: float | None):
        grid = sc.grid
        self.s_base_w = float(grid.s_base_mva) * 1e6
        self.f_base = float(grid.f_base_hz)
        self.two_h = 2.0 * float(grid.inertia_s)
        self.damping = float(grid.damping)
        self.vic = sc.vic
        self.exit_enabled = sc.exit_enabled

        groups, unit_group, unit_outputs = group_governors(
            rebase_governors(sc.governors, grid.s_base_mva))
        gov = aggregate_governors(groups)
        self.m_gov = gov.order
        self.base_w = 1 + gov.order
        first = np.cumsum([0] + [g.order for g in groups]).tolist()
        units = [(first[g], c.tolist(), d) for g, (c, d) in zip(unit_group, unit_outputs)]
        self.gov_scale = [1.0] * len(units)

        specs = [t.spec for t in sc.turbines]
        states = _operating_points(sc)
        self.n_wt = n_wt = len(specs)
        self.names = [t.name for t in sc.turbines]
        self.controllers = [t.controller for t in sc.turbines]
        self.rotors = [j for j, ctrl in enumerate(self.controllers) if ctrl != "none"]
        self.omega0 = [float(st.omega_rad_s) for st in states]
        self.shares = _shares(sc, states).tolist()
        # each turbine's pre-event power is its tracking power at w0, in W
        self.wt = []
        for t, s, w0, share in zip(sc.turbines, specs, self.omega0, self.shares):
            k_opt_w, p_min_w, p_max_w = map(float, (_k_opt_w(s, t.pitch_deg),
                                                    s.p_min_fleet_mw * 1e6,
                                                    s.p_max_fleet_mw * 1e6))
            self.wt.append(_Turbine(
                *map(float, (t.wind_speed_ms, t.pitch_deg, s.rotor_radius_m,
                             _fleet_power_scale(s))),
                k_opt_w, p_min_w, p_max_w, float(s.floor_speed_rad),
                _mppt_power_w(w0, k_opt_w, p_min_w, p_max_w),
                float(s.fleet_inertia), float(share)))
        self.fixed = {j: _operating_point(self, j)
                      for j, ctrl in enumerate(self.controllers) if ctrl == "none"}
        self.kw = 0.0
        mirror_d = 0.0
        mirror_c = [0.0] * self.m_gov
        if alpha is not None and "optimal_aapc" in self.controllers:
            ctrl = synthesize(grid, list(sc.governors), alpha)
            self.kw = float(ctrl.gain_kw)
            mirror_d = float(ctrl.mirror.d[0, 0])
            mirror_c = ctrl.mirror.c[0].tolist()

        self.dt = dt = float(sc.sim.step_s)
        self.n_steps = int(round(sc.sim.duration_s / dt))
        gov_names = [g.name for g in sc.governors]
        self.events = [
            (int(round(e.time_s / dt)), float(e.magnitude_pu), -1, 0.0)
            if e.kind == "load_surge"
            else (int(round(e.time_s / dt)), float(_trip_magnitude(sc, e, states)),
                  gov_names.index(e.unit), float(e.fraction))
            for e in sc.events
        ]
        self.tripped = sorted({unit for _, _, unit, _ in self.events if unit >= 0})
        self.t_support_end = (self.events[0][0] * dt + float(sc.solver.t_f) if self.events
                              else math.inf)

        self.p_d = 0.0
        self.exited = [False] * n_wt
        self.gamma = [0.0] * n_wt
        self.armed = [False] * n_wt
        self.y0 = ([0.0] * self.base_w + [self.omega0[j] for j in self.rotors]
                   + [0.0] * ("classic_vic" in self.controllers))
        self.k1 = [0.0] * len(self.y0)
        self.pm_pe = (0.0, 0.0)
        self.wt_pe_w, self.wt_pt_w, self.wt_mppt_w = ([0.0] * n_wt for _ in range(3))
        self.wt_flags = [0] * n_wt
        self.traces = None
        self.stats = {"steps": 0, "segments": 1, "halvings": 0, "rhs_evals": 0,
                      "exit_checks": 0}
        self.advance = _compile_kernel(self, gov, units, mirror_d, mirror_c)


class _Traces:
    """Start-of-step records of one run in one preallocated table, one row per step.

    A row of ``rows`` is (df, pm, pe, dfdot, p_d, then each turbine's rotor
    speed, applied power in W and limit flags). ``put(offset, *values)``
    writes one row with a single ``struct`` pack into a byte view of the
    table, at the byte offset ``i * row_bytes``: numpy's per-item assignment
    costs several times more, and a pack per row less than one per quantity.
    The flags are small integers, exact as floats.
    """

    def __init__(self, n_steps: int, n_wt: int):
        self.n_wt = n_wt
        self.rows = np.zeros((n_steps + 1, 5 + 3 * n_wt))
        self.row_bytes = self.rows.strides[0]
        self.put = partial(struct.Struct(f"{self.rows.shape[1]}d").pack_into,
                           memoryview(self.rows).cast("B"))

    @property
    def wt_omega(self) -> np.ndarray:
        return self.rows[:, 5:5 + self.n_wt]

    @property
    def wt_pe(self) -> np.ndarray:
        return self.rows[:, 5 + self.n_wt:5 + 2 * self.n_wt]

    @property
    def flags(self) -> np.ndarray:
        return self.rows[:, 5 + 2 * self.n_wt:].astype(np.int8)


def _operating_points(sc: Scenario) -> list:
    """Each turbine's pre-event ``turbine.make_state``, in turbine order."""
    return [make_state(t.spec, t.wind_speed_ms, sc.grid.s_base_mva, t.pitch_deg)
            for t in sc.turbines]


def allocation_shares(sc: Scenario) -> np.ndarray:
    """Each turbine's fraction of the aggregate AAPC command, in turbine order.

    The scenario's override if it has one; otherwise the AAPC turbines split
    the command by ``aapc.allocate`` over their capability indices at the
    pre-event operating point, and every other turbine gets 0.
    """
    return _shares(sc, _operating_points(sc))


def _shares(sc: Scenario, states) -> np.ndarray:
    """``allocation_shares`` at the operating points ``states``."""
    if sc.allocation is not None:
        return np.asarray(sc.allocation, dtype=float)
    shares = np.zeros(len(sc.turbines))
    aapc_idx = [j for j, t in enumerate(sc.turbines) if t.controller == "optimal_aapc"]
    if aapc_idx:
        s_base = sc.grid.s_base_mva
        shares[aapc_idx] = allocate([capability_indices(states[j], sc.turbines[j].spec, s_base)
                                     for j in aapc_idx])
    return shares


def solve_hypothetical(sc: Scenario) -> to.NadirOptimum:
    """The nadir optimum for the scenario's hypothetical deficit.

    The deficit (``p_d_pu`` of the result) defaults to a tenth of the load.
    The closed-form ``trajopt.step_hold_optimum`` runs first and rides along
    as the result's ``step_hold``; a governor step response that exceeds the
    damping within the horizon leaves the program unbounded and raises
    ``ScenarioError`` naming ``$.governors``, before any LP runs. The result
    is the LP's ``trajopt.NadirOptimum``, which gives alpha;
    ``trajopt.extract_solution`` builds the trajectory that ``solve`` writes.
    """
    sc.check()
    p_hyp = sc.solver.hypothetical_p_d_pu
    if p_hyp is None:
        p_hyp = 0.1 * sc.grid.load_pu
    problem = to.build_problem(sc.grid, list(sc.governors), p_hyp, sc.solver.t_f)
    step_hold = to.step_hold_optimum(problem)
    if step_hold.min_w < 0:
        raise ScenarioError(
            f"$.governors: the damping less the governor step response, w = D - s_g, is "
            f"{step_hold.min_w:.4g} pu at tau = {step_hold.tau_min_w_s:.2f} s within the "
            f"horizon $.solver.t_f_s ({sc.solver.t_f} s): holding the frequency higher "
            "there releases energy, so the nadir-optimal program is unbounded")
    optimum = to.solve_max_nadir(problem, coll.make_grid(sc.solver.nodes, sc.solver.t_f))
    return replace(optimum, step_hold=step_hold)


def solved_alpha(sc: Scenario, solution=None) -> float:
    """The trajectory-optimal alpha for the hypothetical deficit, checked for synthesis.

    ``solution`` is the scenario's ``solve_hypothetical`` optimum when the
    caller already has it; otherwise it is solved here.
    An alpha below 1 raises ``ScenarioError`` naming ``$.governors``.
    """
    if solution is None:
        solution = solve_hypothetical(sc)
    if solution.alpha < 1.0:
        # with too little governor response the optimum holds the frequency
        # above its settling level, which no mirror-plus-gain controller does
        raise ScenarioError(
            f"$.governors: the solved alpha {solution.alpha!r} is below 1, so no AAPC "
            "controller reaches the optimal nadir; pin $.controllers.alpha (>= 1) or "
            "add a governor")
    return solution.alpha


def _resolve_alpha(sc: Scenario, solution=None) -> float | None:
    """None if no turbine runs the AAPC; else the scenario alpha if it is set,
    else ``solved_alpha``."""
    if not any(t.controller == "optimal_aapc" for t in sc.turbines):
        return None
    return solved_alpha(sc, solution) if sc.alpha is None else sc.alpha


def _trip_magnitude(sc: Scenario, ev: DisturbanceEvent, states) -> float:
    """Deficit from losing a share of a unit, dispatch proportional to rating,
    with the turbines at their operating points ``states``."""
    if ev.magnitude_pu > 0:
        return ev.magnitude_pu
    wind_mw = sum(mppt_power(st.omega_rad_s, t.spec, t.pitch_deg)
                  for t, st in zip(sc.turbines, states))
    sync_pu = sc.grid.load_pu - wind_mw / sc.grid.s_base_mva
    total_rating = sum(g.rated_mva for g in sc.governors)
    unit = next(g for g in sc.governors if g.name == ev.unit)
    return ev.fraction * sync_pu * unit.rated_mva / total_rating


def run(scenario: Scenario) -> SimResult:
    """Simulate the scenario and return uniform-step traces plus event log.

    The AAPC runs at the scenario's alpha, or at ``solved_alpha`` if it has none.
    """
    scenario.check()
    alpha = _resolve_alpha(scenario)
    t_start = time.perf_counter()
    asm = _Assembled(scenario, alpha)
    t_assembled = time.perf_counter()
    tr, exit_events = _integrate(asm)
    t_end = time.perf_counter()

    f_b = scenario.grid.f_base_hz
    t = np.arange(asm.n_steps + 1) * asm.dt
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
        wt_p_e0_mw=np.array([wt.p_e0_w for wt in asm.wt]) / 1e6,
        stats={**asm.stats, "assemble_s": t_assembled - t_start,
               "integrate_s": t_end - t_assembled},
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
        e_r = -100.0 if degenerate else float((nadir - nadir_ref_pu) / nadir_ref_pu * 100.0)

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


def insensitivity_sweep(scenario: Scenario, p_d_list,
                        reference_nadir_per_pd: float | None = None):
    """Run the scenario across deficits; e_r versus the linearly-scaled optimum.

    Returns (rows, p_d_max) where each row is a dict with p_d, nadir and e_r,
    and p_d_max is the largest deficit keeping e_r within E_R_BAND_PCT. One
    solve, if any, gives both the reference and alpha.
    """
    sol = None
    if reference_nadir_per_pd is None:
        sol = solve_hypothetical(scenario)
        reference_nadir_per_pd = sol.nadir_pu / sol.p_d_pu
    scenario = replace(scenario, alpha=_resolve_alpha(scenario, sol))
    t_surge = scenario.events[0].time_s if scenario.events else 0.0

    def point(p_d):
        surge = DisturbanceEvent(time_s=t_surge, kind="load_surge", magnitude_pu=p_d)
        res = run(replace(scenario, events=(surge,)))
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


def compare_strategies(scenario: Scenario, strategies=("none", "classic_vic", "optimal_aapc"),
                       report=None):
    """Identical events under each control strategy; returns name -> (result, metrics).

    With ``report``, ``report(name, result, metrics)`` runs in the process
    that ran the strategy, and its return value takes the place of
    (result, metrics): a caller that writes each run's files there gets back
    only what it asks for, in place of every trace.
    """
    if "optimal_aapc" in strategies:
        scenario = replace(scenario,
                           alpha=_resolve_alpha(_with_controllers(scenario, "optimal_aapc")))

    def one(strat):
        res = run(_with_controllers(scenario, strat))
        rec = metrics(res)
        return (res, rec) if report is None else report(strat, res, rec)

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
