"""Scenario documents: the scenario types, their schema and their validation.

A scenario is a JSON document (see README for the field reference). One table
per section maps each JSON key to the dataclass field it fills, its type and
whether it is required; ``scenario_from_dict`` and ``scenario_to_dict`` both
read the tables, so every default is written once, in its dataclass. Parsing
rejects unknown, missing and wrongly typed keys and non-finite numbers with
their JSON path, and ``Scenario.validate`` rejects the values the runtime
cannot use, so numerical work never starts on a malformed input.
"""

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from operator import attrgetter

from .aapc import BaselineVic
from .grid import GovernorSpec, GridParameters, governor_dc_gain_total, reheat_governor
from .turbine import TurbineSpec, dfig5mw, mppt_equilibrium_speed

__all__ = [
    "ScenarioError",
    "TurbineEntry",
    "DisturbanceEvent",
    "SolverOptions",
    "SimOptions",
    "Scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "hydro_governor",
    "gas_governor",
]

MAX_NODES = 200  # the highest collocation order the solver accepts
# the most steps a closed-loop run takes, 100 times the 300 s at 10 ms of the
# longest tested run: the traces are preallocated, and a multi_machine
# `simulate` peaked at 338 B and took 37 us a step, so this bound is about
# 1 GB of memory and two minutes there
MAX_STEPS = 3_000_000


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

    def check(self) -> "Scenario":
        """This scenario; raises ScenarioError listing what validate finds."""
        problems = self.validate()
        if problems:
            raise ScenarioError("; ".join(problems))
        return self

    def validate(self) -> list:
        """Every value the runtime cannot use, each message led by its JSON path."""
        problems = []
        restoring = self.grid.damping + governor_dc_gain_total(self.governors,
                                                               self.grid.s_base_mva)
        if not restoring > 0:
            problems.append(f"$.grid.damping_pu: damping plus the governors' regulation gain "
                            f"must be > 0 for the frequency to settle, got {restoring}")
        dt = self.sim.step_s
        steps = 0.0
        if not 0 < dt <= 0.02:
            problems.append(f"$.sim.step_s: must be in (0, 0.02], got {dt}")
        else:
            steps = self.sim.duration_s / dt
        if self.sim.duration_s < self.solver.t_f:
            problems.append(
                f"$.sim.duration_s: {self.sim.duration_s} must cover the support "
                f"window $.solver.t_f_s ({self.solver.t_f})"
            )
        elif not (math.isfinite(steps) and round(steps) <= MAX_STEPS):
            problems.append(
                f"$.sim.duration_s, $.sim.step_s: {self.sim.duration_s} s at {dt} s is "
                f"{steps:.0f} steps, more than the {MAX_STEPS} a run may take")
        if not self.solver.t_f > 0:
            problems.append(f"$.solver.t_f_s: must be > 0, got {self.solver.t_f}")
        p_hyp = self.solver.hypothetical_p_d_pu
        # alpha is a nadir per unit deficit: a zero deficit leaves it undefined
        if p_hyp is not None and not p_hyp > 0:
            problems.append(f"$.solver.hypothetical_p_d_pu: must be > 0, got {p_hyp}")
        if self.solver.nodes < 10:
            problems.append(f"$.solver.nodes: must be >= 10, got {self.solver.nodes}")
        elif self.solver.nodes > MAX_NODES:
            # the condensing block holds (n K)^2 floats for n trajectory states
            problems.append(f"$.solver.nodes: must be <= {MAX_NODES}, got {self.solver.nodes}")
        for section, units in (("governors", self.governors), ("turbines", self.turbines)):
            first = {}  # a trip names its unit, a trace column its turbine
            for i, u in enumerate(units):
                if first.setdefault(u.name, i) != i:
                    problems.append(f"$.{section}[{i}].name: {u.name!r} is already the name "
                                    f"of $.{section}[{first[u.name]}]")
        times = [e.time_s for e in self.events]
        if times != sorted(times):
            problems.append("$.events: must be sorted by time")
        for i, e in enumerate(self.events):
            at = f"$.events[{i}]"
            if e.time_s < 0 or e.time_s >= self.sim.duration_s:
                problems.append(f"{at}.time_s: {e.time_s} s is outside the simulation window")
            if dt > 0 and abs(e.time_s / dt - round(e.time_s / dt)) > 1e-9:
                problems.append(f"{at}.time_s: {e.time_s} s is not aligned to the {dt} s step")
            if e.kind not in ("load_surge", "generation_trip"):
                problems.append(f"{at}.kind: unknown event kind {e.kind!r}")
            if e.kind == "load_surge" and e.magnitude_pu <= 0:
                problems.append(f"{at}.magnitude_pu: a load surge needs magnitude_pu > 0, "
                                f"got {e.magnitude_pu}")
            if e.kind == "generation_trip":
                if e.unit not in [g.name for g in self.governors]:
                    problems.append(f"{at}.unit: trip references unknown unit {e.unit!r}")
                if not 0 < e.fraction <= 1:
                    problems.append(f"{at}.fraction: must be in (0, 1], got {e.fraction}")
        for j, t in enumerate(self.turbines):
            at = f"$.turbines[{j}]"
            if t.controller not in ("optimal_aapc", "classic_vic", "none"):
                problems.append(f"{at}.controller: unknown controller {t.controller!r}")
            if t.wind_speed_ms < 1.0:
                problems.append(f"{at}.wind_speed_ms: {t.wind_speed_ms} is too low")
            if t.pitch_deg < 0:
                problems.append(f"{at}.pitch_deg: must be nonnegative, got {t.pitch_deg}")
            elif t.wind_speed_ms >= 1.0:
                # the C_p optimum's tip-speed ratio falls as pitch rises, so a
                # steep pitch can put the equilibrium under the speed floor
                floor = t.spec.floor_speed_rad - 1e-12
                omega = mppt_equilibrium_speed(t.wind_speed_ms, t.spec, t.pitch_deg)
                if omega < floor <= mppt_equilibrium_speed(t.wind_speed_ms, t.spec):
                    problems.append(
                        f"{at}.pitch_deg: at {t.pitch_deg} deg the operating speed "
                        f"{omega:.4f} rad/s is below the floor {t.spec.floor_speed_rad:.4f} "
                        f"rad/s at wind {t.wind_speed_ms} m/s")
        if self.alpha is not None and not self.alpha >= 1:
            problems.append(f"$.controllers.alpha: must be >= 1 (nadir at or below the "
                            f"settling level), got {self.alpha}")
        shares = self.allocation
        if shares is not None:
            # each AAPC turbine's fraction of the one aggregate AAPC command
            aapc = [t.controller == "optimal_aapc" for t in self.turbines]
            if len(shares) != len(self.turbines):
                problems.append(f"$.controllers.allocation: needs one share per turbine, "
                                f"got {len(shares)} for {len(self.turbines)}")
            elif (not all(0 <= v <= 1 if a else v == 0 for v, a in zip(shares, aapc))
                  or (any(aapc) and not abs(sum(shares) - 1) <= 1e-9)):
                problems.append(f"$.controllers.allocation: optimal_aapc shares must lie in "
                                f"[0, 1] and sum to 1, every other share must be 0, "
                                f"got {list(shares)}")
        return problems


def hydro_governor(droop: float, temporary_droop: float, washout_s: float,
                   rated_mva: float, name: str = "") -> GovernorSpec:
    """Hydro unit with transient droop: lead-lag settling from r to R."""
    if droop <= 0 or temporary_droop <= 0 or washout_s <= 0:
        raise ValueError("hydro governor constants must be positive")
    k = -1.0 / droop
    num = (k * washout_s, k)
    den = ((temporary_droop / droop) * washout_s, 1.0)
    return GovernorSpec(name=name, rated_mva=rated_mva, num=num, den=den)


def gas_governor(droop: float, lag_s: float, rated_mva: float, name: str = "") -> GovernorSpec:
    """Gas unit droop behind a single lag."""
    if droop <= 0 or lag_s <= 0:
        raise ValueError("gas governor constants must be positive")
    return GovernorSpec(name=name, rated_mva=rated_mva,
                        num=(-1.0 / droop,), den=(lag_s, 1.0))


# ---------------------------------------------------------------------------
# schema tables: JSON key -> (dataclass field, type, required)
#
# A missing optional key, or a null one, leaves the field at its dataclass
# default. float takes any JSON number but a bool, int an integral number,
# tuple a list of numbers and list a list of objects. A dotted field is an
# attribute of an attribute.
# ---------------------------------------------------------------------------

def _numbers(*keys: str) -> dict:
    return {key: (key, float, True) for key in keys}


_SCENARIO = {  # version has no field; controllers fills four of Scenario's own
    "version": ("version", int, True), "name": ("name", str, False),
    "grid": ("grid", dict, True), "governors": ("governors", list, True),
    "turbines": ("turbines", list, True), "events": ("events", list, True),
    "solver": ("solver", dict, False), "sim": ("sim", dict, False),
    "controllers": ("controllers", dict, False),
}
_GRID = {"inertia_s": ("inertia_s", float, True), "damping_pu": ("damping", float, True),
         "f_base_hz": ("f_base_hz", float, True), "s_base_mva": ("s_base_mva", float, True),
         "load_mw": ("load_pu", float, True)}   # held per unit of s_base_mva
_GOVERNOR = {"name": ("name", str, True), "rated_mva": ("rated_mva", float, True),
             "kind": ("kind", str, True), "params": ("params", dict, True)}
_GOVERNOR_KINDS = {  # kind -> (factory, params table)
    "reheat_steam": (reheat_governor,
                     _numbers("mech_gain", "hp_fraction", "reheat_time_s", "droop")),
    "hydro_transient_droop": (hydro_governor,
                              _numbers("droop", "temporary_droop", "washout_s")),
    "gas_lag": (gas_governor, _numbers("droop", "lag_s")),
    "transfer_function": (GovernorSpec, {"num": ("num", tuple, True),
                                         "den": ("den", tuple, True)}),
}
_TURBINE = {"name": ("name", str, True), "count": ("spec.count", int, True),
            "wind_speed_ms": ("wind_speed_ms", float, True),
            "pitch_deg": ("pitch_deg", float, False),
            "controller": ("controller", str, True), "spec": ("spec", dict, True)}
_SPEC = {key: (key, float, False)
         for key in ("rated_mva", "rated_mw", "p_max_mw", "p_min_mw", "rated_speed_rpm",
                     "min_speed_pu", "inertia_kgm2", "rotor_radius_m", "air_density")}
# preset -> (factory, the spec keys a document may override)
_SPEC_PRESETS = {"dfig5mw": (dfig5mw, ("rotor_radius_m", "air_density"))}
_EVENT = {"time_s": ("time_s", float, True), "kind": ("kind", str, True),
          "magnitude_pu": ("magnitude_pu", float, False), "unit": ("unit", str, False),
          "fraction": ("fraction", float, False)}
_SOLVER = {"nodes": ("nodes", int, False), "t_f_s": ("t_f", float, False),
           "hypothetical_p_d_pu": ("hypothetical_p_d_pu", float, False)}
_SIM = {"duration_s": ("duration_s", float, False), "step_s": ("step_s", float, False)}
_CONTROLLERS = {"alpha": ("alpha", float, False), "vic": ("vic", dict, False),
                "allocation": ("allocation", tuple, False),
                "exit_strategy": ("exit_enabled", bool, False)}
_VIC = {"k_f": ("k_f", float, True), "k_in": ("k_in", float, True),
        "filter_s": ("filter_s", float, False)}

_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "true or false",
               dict: "an object", list: "a list", tuple: "a list of numbers"}


def _shown(value) -> str:
    return {dict: "an object", list: "a list"}.get(type(value)) or json.dumps(value)


def _typed(value, kind):
    """value as a kind, or None if the JSON value is not one."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        return float(value) if number else None
    if kind is int:
        return int(value) if number and (isinstance(value, int) or value.is_integer()) else None
    if kind is tuple:
        if not isinstance(value, list):
            return None
        items = tuple(_typed(v, float) for v in value)
        return None if None in items else items
    return value if isinstance(value, kind) else None


def _read(doc, table: dict, path: str, errors: list) -> dict:
    """{field: value} for the keys of doc that are set, checked against table.

    Unknown keys, missing required ones and wrongly typed values go to errors.
    """
    if not isinstance(doc, dict):
        errors.append(f"{path}: must be an object, got {_shown(doc)}")
        return {}
    errors.extend(f"{path}.{key}: unknown key" for key in doc if key not in table)
    fields = {}
    for key, (field, kind, required) in table.items():
        if key not in doc:
            if required:
                errors.append(f"{path}.{key}: missing required key")
            continue
        value = doc[key]
        if value is None and not required:
            continue
        fields[field] = _typed(value, kind)
        if fields[field] is None:
            errors.append(f"{path}.{key}: must be {_TYPE_NAMES[kind]}, got {_shown(value)}")
    return fields


def _make(make, fields: dict, path: str, errors: list):
    """make(**fields), or None with its ValueError in errors."""
    try:
        return make(**fields)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build(make, doc, table: dict, path: str, errors: list):
    """make(**fields of doc), or None with the problems in errors."""
    local: list = []
    fields = _read(doc, table, path, local)
    errors.extend(local)
    return None if local else _make(make, fields, path, errors)


def _grid(load_pu, s_base_mva, **fields) -> GridParameters:
    # the document gives the load in MW; a zero base fails GridParameters' check
    return GridParameters(load_pu=load_pu / s_base_mva if s_base_mva else load_pu,
                          s_base_mva=s_base_mva, **fields)


def _governor(doc, path: str, errors: list) -> GovernorSpec | None:
    local: list = []
    entry = _read(doc, _GOVERNOR, path, local)
    if not local and entry["kind"] not in _GOVERNOR_KINDS:
        local.append(f"{path}.kind: unknown governor kind {entry['kind']!r}")
    if local:
        errors.extend(local)
        return None
    make, table = _GOVERNOR_KINDS[entry["kind"]]
    params = _read(entry["params"], table, f"{path}.params", local)
    errors.extend(local)
    if local:
        return None
    return _make(make, {"name": entry["name"], "rated_mva": entry["rated_mva"], **params},
                 path, errors)


def _turbine(doc, path: str, errors: list) -> TurbineEntry | None:
    local: list = []
    fields = _read(doc, _TURBINE, path, local)
    if not local:
        fields["spec"] = _turbine_spec(fields["spec"], fields.pop("spec.count"),
                                       f"{path}.spec", local)
    errors.extend(local)
    return None if local else TurbineEntry(**fields)


def _turbine_spec(doc, count: int, path: str, errors: list) -> TurbineSpec | None:
    local: list = []
    fields = _read(doc, {"preset": ("preset", str, False), **_SPEC}, path, local)
    preset = fields.pop("preset", None)
    make = TurbineSpec
    if local:
        errors.extend(local)
        return None
    if preset is None:
        local.extend(f"{path}.{f.name}: missing required key"
                     for f in dataclass_fields(TurbineSpec)
                     if f.default is MISSING and f.name not in fields)
    elif preset not in _SPEC_PRESETS:
        local.append(f"{path}.preset: unknown preset {preset!r}")
    else:
        make, overrides = _SPEC_PRESETS[preset]
        extra = set(fields) - set(overrides)
        if extra:
            local.append(f"{path}: preset {preset} only allows overrides "
                         f"{sorted(overrides)}, got {sorted(extra)}")
    errors.extend(local)
    return None if local else _make(make, {"count": count, **fields}, path, errors)


def _event(doc, path: str, errors: list) -> DisturbanceEvent | None:
    return _build(DisturbanceEvent, doc, _EVENT, path, errors)


def _non_finite_paths(obj, path: str = "$"):
    """JSON path of every number in a parsed document that is NaN, infinite,
    or an integer beyond the range of a float."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [] if abs(obj) <= sys.float_info.max else [path]
    if isinstance(obj, dict):
        return [p for key, v in obj.items() for p in _non_finite_paths(v, f"{path}.{key}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _non_finite_paths(v, f"{path}[{i}]")]
    return []


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse and validate a scenario document; raises ScenarioError with
    every problem found, each tagged with its JSON path."""
    # JSON readers accept NaN and Infinity; no field of the schema does
    errors: list = [f"{p}: must be a finite number" for p in _non_finite_paths(doc)]
    fields = {} if errors else _read(doc, _SCENARIO, "$", errors)
    if errors:
        raise ScenarioError("; ".join(errors))
    version = fields.pop("version")
    if version != 1:
        raise ScenarioError(f"$.version: unsupported version {version}")

    fields["grid"] = _build(_grid, fields["grid"], _GRID, "$.grid", errors)
    for key, parse in (("governors", _governor), ("turbines", _turbine), ("events", _event)):
        fields[key] = tuple(parse(item, f"$.{key}[{i}]", errors)
                            for i, item in enumerate(fields[key]))
    for key, make, table in (("solver", SolverOptions, _SOLVER), ("sim", SimOptions, _SIM)):
        if key in fields:
            fields[key] = _build(make, fields[key], table, f"$.{key}", errors)
    controllers = _read(fields.pop("controllers", {}), _CONTROLLERS, "$.controllers", errors)
    if "vic" in controllers:
        controllers["vic"] = _build(BaselineVic, controllers["vic"], _VIC,
                                    "$.controllers.vic", errors)
    if errors:
        raise ScenarioError("; ".join(errors))

    return Scenario(**fields, **controllers).check()


def _write(obj, table: dict, **values) -> dict:
    """The document section of obj under table; values holds the keys that
    are not a plain read of their field."""
    doc = {}
    for key, (field, _, _) in table.items():
        value = values[key] if key in values else attrgetter(field)(obj)
        doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def scenario_to_dict(sc: Scenario) -> dict:
    """Serialize a runtime scenario back to a (normalized) document.

    Governors are written in raw transfer-function form, which re-parses to
    identical dynamics regardless of the template that built them, and
    turbine specs in explicit form.
    """
    tf_params = _GOVERNOR_KINDS["transfer_function"][1]
    return _write(
        sc, _SCENARIO, version=1,
        grid=_write(sc.grid, _GRID, load_mw=sc.grid.load_pu * sc.grid.s_base_mva),
        governors=[_write(g, _GOVERNOR, kind="transfer_function", params=_write(g, tf_params))
                   for g in sc.governors],
        turbines=[_write(t, _TURBINE, spec=_write(t.spec, _SPEC)) for t in sc.turbines],
        events=[_write(e, _EVENT) for e in sc.events],
        solver=_write(sc.solver, _SOLVER),
        sim=_write(sc.sim, _SIM),
        controllers=_write(sc, _CONTROLLERS, vic=_write(sc.vic, _VIC)),
    )
