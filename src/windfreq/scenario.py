"""Scenario documents: schema validation and conversion to runtime objects.

A scenario is a flat JSON document (see README for the field reference).
Validation walks the document first, rejecting unknown or missing keys and
non-finite numbers with their location, so numerical work never starts on a
malformed input.
"""

import math

from .aapc import BaselineVic
from .grid import GovernorSpec, GridParameters, ReheatSteam, reheat_governor
from .simulator import (
    DisturbanceEvent,
    Scenario,
    ScenarioError,
    SimOptions,
    SolverOptions,
    TurbineEntry,
)
from .turbine import TurbineSpec, dfig5mw

__all__ = ["scenario_from_dict", "scenario_to_dict", "hydro_governor", "gas_governor"]


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


def _check_keys(obj: dict, allowed: dict, path: str, errors: list):
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown key")
    for key, required in allowed.items():
        if required and key not in obj:
            errors.append(f"{path}.{key}: missing required key")


_GOVERNOR_PARAM_KEYS = {
    "reheat_steam": {"mech_gain": True, "hp_fraction": True,
                     "reheat_time_s": True, "droop": True},
    "hydro_transient_droop": {"droop": True, "temporary_droop": True,
                              "washout_s": True},
    "gas_lag": {"droop": True, "lag_s": True},
    "transfer_function": {"num": True, "den": True},
}

_SPEC_KEYS = {
    "preset": False, "rated_mva": False, "rated_mw": False, "p_max_mw": False,
    "p_min_mw": False, "rated_speed_rpm": False, "min_speed_pu": False,
    "inertia_kgm2": False, "rotor_radius_m": False, "air_density": False,
}


def _turbine_spec(doc: dict, count: int, path: str, errors: list) -> TurbineSpec | None:
    _check_keys(doc, _SPEC_KEYS, path, errors)
    if errors:
        return None
    fields = {k: v for k, v in doc.items() if k != "preset"}
    if doc.get("preset") == "dfig5mw":
        base = dfig5mw(count=count)
        allowed_overrides = {"rotor_radius_m", "air_density"}
        extra = set(fields) - allowed_overrides
        if extra:
            errors.append(f"{path}: preset dfig5mw only allows overrides "
                          f"{sorted(allowed_overrides)}, got {sorted(extra)}")
            return None
        return dfig5mw(count=count, **fields)
    if "preset" in doc:
        errors.append(f"{path}.preset: unknown preset {doc['preset']!r}")
        return None
    try:
        return TurbineSpec(count=count, **fields)
    except (TypeError, ValueError) as exc:
        errors.append(f"{path}: {exc}")
        return None


def _non_finite_paths(obj, path: str = "$"):
    """JSON path of every NaN or infinite number in a parsed document."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for key, v in obj.items() for p in _non_finite_paths(v, f"{path}.{key}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _non_finite_paths(v, f"{path}[{i}]")]
    return []


def scenario_from_dict(doc: dict, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario document; raises ScenarioError with
    every problem found, each tagged with its JSON path."""
    # JSON readers accept NaN and Infinity; no field of the schema does
    errors: list = [f"{p}: must be a finite number" for p in _non_finite_paths(doc)]
    if errors:
        raise ScenarioError("; ".join(errors))
    _check_keys(doc, {
        "version": True, "name": False, "grid": True, "governors": True,
        "turbines": True, "events": True, "solver": False, "sim": False,
        "controllers": False,
    }, "$", errors)
    if errors:
        raise ScenarioError("; ".join(errors))
    if doc["version"] != 1:
        raise ScenarioError(f"$.version: unsupported version {doc['version']}")

    g = doc["grid"]
    _check_keys(g, {"inertia_s": True, "damping_pu": True, "f_base_hz": True,
                    "s_base_mva": True, "load_mw": True}, "$.grid", errors)
    grid = None
    if not errors:
        try:
            grid = GridParameters(
                inertia_s=float(g["inertia_s"]),
                damping=float(g["damping_pu"]),
                f_base_hz=float(g["f_base_hz"]),
                s_base_mva=float(g["s_base_mva"]),
                load_pu=float(g["load_mw"]) / float(g["s_base_mva"]),
            )
        except ValueError as exc:
            errors.append(f"$.grid: {exc}")

    governors = []
    for i, gov in enumerate(doc["governors"]):
        path = f"$.governors[{i}]"
        local: list = []
        _check_keys(gov, {"name": True, "rated_mva": True, "kind": True,
                          "params": True}, path, local)
        if local:
            errors.extend(local)
            continue
        kind = gov["kind"]
        if kind not in _GOVERNOR_PARAM_KEYS:
            errors.append(f"{path}.kind: unknown governor kind {kind!r}")
            continue
        _check_keys(gov["params"], _GOVERNOR_PARAM_KEYS[kind], f"{path}.params", local)
        if local:
            errors.extend(local)
            continue
        p = gov["params"]
        try:
            if kind == "reheat_steam":
                governors.append(reheat_governor(
                    ReheatSteam(mech_gain=p["mech_gain"], hp_fraction=p["hp_fraction"],
                                reheat_time_s=p["reheat_time_s"], droop=p["droop"]),
                    rated_mva=gov["rated_mva"], name=gov["name"]))
            elif kind == "hydro_transient_droop":
                governors.append(hydro_governor(
                    p["droop"], p["temporary_droop"], p["washout_s"],
                    rated_mva=gov["rated_mva"], name=gov["name"]))
            elif kind == "gas_lag":
                governors.append(gas_governor(
                    p["droop"], p["lag_s"], rated_mva=gov["rated_mva"],
                    name=gov["name"]))
            else:
                governors.append(GovernorSpec(
                    name=gov["name"], rated_mva=gov["rated_mva"],
                    num=tuple(p["num"]), den=tuple(p["den"])))
        except ValueError as exc:
            errors.append(f"{path}: {exc}")

    turbines = []
    for i, t in enumerate(doc["turbines"]):
        path = f"$.turbines[{i}]"
        local = []
        _check_keys(t, {"name": True, "count": True, "wind_speed_ms": True,
                        "pitch_deg": False, "controller": True, "spec": True},
                    path, local)
        if local:
            errors.extend(local)
            continue
        spec = _turbine_spec(t["spec"], int(t["count"]), f"{path}.spec", local)
        if spec is None or local:
            errors.extend(local)
            continue
        turbines.append(TurbineEntry(
            name=t["name"], spec=spec, wind_speed_ms=float(t["wind_speed_ms"]),
            pitch_deg=float(t.get("pitch_deg", 0.0)), controller=t["controller"]))

    events = []
    for i, e in enumerate(doc["events"]):
        path = f"$.events[{i}]"
        local = []
        _check_keys(e, {"time_s": True, "kind": True, "magnitude_pu": False,
                        "unit": False, "fraction": False}, path, local)
        if local:
            errors.extend(local)
            continue
        events.append(DisturbanceEvent(
            time_s=float(e["time_s"]), kind=e["kind"],
            magnitude_pu=float(e.get("magnitude_pu", 0.0)),
            unit=e.get("unit", ""), fraction=float(e.get("fraction", 1.0))))

    solver = SolverOptions()
    if "solver" in doc:
        s = doc["solver"]
        local = []
        _check_keys(s, {"nodes": False, "t_f_s": False,
                        "hypothetical_p_d_pu": False}, "$.solver", local)
        p_hyp = s.get("hypothetical_p_d_pu")
        if p_hyp is not None:
            p_hyp = float(p_hyp)
            # alpha is a nadir per unit deficit: a zero deficit leaves it undefined
            if not p_hyp > 0:
                local.append(f"$.solver.hypothetical_p_d_pu: must be > 0, got {p_hyp}")
        errors.extend(local)
        if not local:
            solver = SolverOptions(
                nodes=int(s.get("nodes", 60)),
                t_f=float(s.get("t_f_s", 30.0)),
                hypothetical_p_d_pu=p_hyp,
            )

    sim = SimOptions()
    if "sim" in doc:
        s = doc["sim"]
        local = []
        _check_keys(s, {"duration_s": False, "step_s": False}, "$.sim", local)
        errors.extend(local)
        if not local:
            sim = SimOptions(duration_s=float(s.get("duration_s", 60.0)),
                             step_s=float(s.get("step_s", 0.01)))

    vic = BaselineVic()
    alpha = None
    allocation = None
    exit_enabled = True
    if "controllers" in doc:
        c = doc["controllers"]
        local = []
        _check_keys(c, {"alpha": False, "vic": False, "allocation": False,
                        "exit_strategy": False}, "$.controllers", local)
        errors.extend(local)
        if not local:
            if "vic" in c:
                vic_local = []
                _check_keys(c["vic"], {"k_f": True, "k_in": True, "filter_s": False},
                            "$.controllers.vic", vic_local)
                errors.extend(vic_local)
                if not vic_local:
                    vic = BaselineVic(k_f=float(c["vic"]["k_f"]),
                                      k_in=float(c["vic"]["k_in"]),
                                      filter_s=float(c["vic"].get("filter_s", 0.1)))
            alpha = c.get("alpha")
            allocation = tuple(c["allocation"]) if c.get("allocation") else None
            exit_enabled = bool(c.get("exit_strategy", True))

    if errors:
        raise ScenarioError("; ".join(errors))

    sc = Scenario(
        grid=grid,
        governors=tuple(governors),
        turbines=tuple(turbines),
        events=tuple(events),
        solver=solver,
        sim=sim,
        vic=vic,
        alpha=alpha,
        allocation=allocation,
        exit_enabled=exit_enabled,
        name=doc.get("name", name),
    )
    problems = sc.validate()
    if problems:
        raise ScenarioError("; ".join(problems))
    return sc


def _governor_doc(gov: GovernorSpec) -> dict:
    return {"name": gov.name, "rated_mva": gov.rated_mva,
            "kind": "transfer_function",
            "params": {"num": list(gov.num), "den": list(gov.den)}}


def scenario_to_dict(sc: Scenario) -> dict:
    """Serialize a runtime scenario back to a (normalized) document.

    Governors are written in raw transfer-function form, which re-parses to
    identical dynamics regardless of the template that built them.
    """
    doc = {
        "version": 1,
        "name": sc.name,
        "grid": {
            "inertia_s": sc.grid.inertia_s,
            "damping_pu": sc.grid.damping,
            "f_base_hz": sc.grid.f_base_hz,
            "s_base_mva": sc.grid.s_base_mva,
            "load_mw": sc.grid.load_pu * sc.grid.s_base_mva,
        },
        "governors": [_governor_doc(g) for g in sc.governors],
        "turbines": [
            {
                "name": t.name,
                "count": t.spec.count,
                "wind_speed_ms": t.wind_speed_ms,
                "pitch_deg": t.pitch_deg,
                "controller": t.controller,
                "spec": {
                    "rated_mva": t.spec.rated_mva,
                    "rated_mw": t.spec.rated_mw,
                    "p_max_mw": t.spec.p_max_mw,
                    "p_min_mw": t.spec.p_min_mw,
                    "rated_speed_rpm": t.spec.rated_speed_rpm,
                    "min_speed_pu": t.spec.min_speed_pu,
                    "inertia_kgm2": t.spec.inertia_kgm2,
                    "rotor_radius_m": t.spec.rotor_radius_m,
                    "air_density": t.spec.air_density,
                },
            }
            for t in sc.turbines
        ],
        "events": [
            {"time_s": e.time_s, "kind": e.kind, "magnitude_pu": e.magnitude_pu,
             "unit": e.unit, "fraction": e.fraction}
            for e in sc.events
        ],
        "solver": {"nodes": sc.solver.nodes, "t_f_s": sc.solver.t_f,
                   "hypothetical_p_d_pu": sc.solver.hypothetical_p_d_pu},
        "sim": {"duration_s": sc.sim.duration_s, "step_s": sc.sim.step_s},
        "controllers": {
            "alpha": sc.alpha,
            "vic": {"k_f": sc.vic.k_f, "k_in": sc.vic.k_in,
                    "filter_s": sc.vic.filter_s},
            "allocation": list(sc.allocation) if sc.allocation else None,
            "exit_strategy": sc.exit_enabled,
        },
    }
    return doc
