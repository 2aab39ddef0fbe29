"""Shipped case-study systems.

``two_machine``: one reheat-steam unit feeding a 150 MW load alongside a
20-unit 5 MW DFIG fleet at 9 m/s. The generator constants follow the study
this reproduces; the swing damping and system base are not published with it,
so the preset carries the calibration D = 1.0 pu, S_base = 200 MVA under
which the synthesized gains land on the reported values.

``multi_machine``: a ten-governor single-frequency surrogate of the New
England 39-bus study: IEEEG1-class steam units become reheat governors, the
two hydro units a lead-lag with temporary droop, the gas unit a first-order
lag. Five 80-unit DFIG fleets run at staggered wind speeds. Ratings, inertias
and the load level are documented approximations: orderings and limit
behavior are meaningful here, not absolute Hz values.

Both presets override the turbine rotor radius to 45 m so the study wind
speeds map into the allowed speed band with realistic support margins.
"""

import copy
import hashlib
import json

__all__ = ["PRESET_NAMES", "load_preset", "preset_checksum"]


def _two_machine() -> dict:
    return {
        "version": 1,
        "name": "two_machine",
        "grid": {"inertia_s": 4.2, "damping_pu": 1.0, "f_base_hz": 50.0,
                 "s_base_mva": 200.0, "load_mw": 150.0},
        "governors": [
            {
                "name": "G1",
                "rated_mva": 200.0,
                "kind": "reheat_steam",
                "params": {"mech_gain": 0.85, "hp_fraction": 0.3,
                           "reheat_time_s": 8.0, "droop": 0.05},
            }
        ],
        "turbines": [
            {
                "name": "WF1",
                "count": 20,
                "wind_speed_ms": 9.0,
                "pitch_deg": 0.0,
                "controller": "optimal_aapc",
                "spec": {"preset": "dfig5mw", "rotor_radius_m": 45.0},
            }
        ],
        "events": [
            {"time_s": 0.0, "kind": "load_surge", "magnitude_pu": 0.075}
        ],
        "solver": {"nodes": 60, "t_f_s": 30.0, "hypothetical_p_d_pu": 0.075},
        "sim": {"duration_s": 60.0, "step_s": 0.01},
        "controllers": {"vic": {"k_f": 20.0, "k_in": 10.0, "filter_s": 0.1},
                        "exit_strategy": True},
    }


def _multi_machine() -> dict:
    reheat = {"mech_gain": 0.85, "hp_fraction": 0.3, "reheat_time_s": 8.0, "droop": 0.05}
    governors = []
    steam_units = [
        ("G1", 2500.0), ("G2", 800.0), ("G5", 600.0), ("G6", 800.0),
        ("G7", 700.0), ("G8", 600.0), ("G9", 900.0),
    ]
    for name, mva in steam_units:
        governors.append({"name": name, "rated_mva": mva,
                          "kind": "reheat_steam", "params": dict(reheat)})
    for name, mva in (("G3", 800.0), ("G10", 1100.0)):
        governors.append({"name": name, "rated_mva": mva,
                          "kind": "hydro_transient_droop",
                          "params": {"droop": 0.05, "temporary_droop": 0.38,
                                     "washout_s": 5.0}})
    governors.append({"name": "G4", "rated_mva": 700.0, "kind": "gas_lag",
                      "params": {"droop": 0.05, "lag_s": 1.0}})

    turbines = []
    for idx, wind in enumerate((6.5, 7.5, 8.5, 9.5, 10.5), start=1):
        turbines.append({
            "name": f"WT{idx}",
            "count": 80,
            "wind_speed_ms": wind,
            "pitch_deg": 0.0,
            "controller": "optimal_aapc",
            "spec": {"preset": "dfig5mw", "rotor_radius_m": 44.0},
        })
    return {
        "version": 1,
        "name": "multi_machine",
        "grid": {"inertia_s": 4.08, "damping_pu": 1.0, "f_base_hz": 60.0,
                 "s_base_mva": 10000.0, "load_mw": 4000.0},
        "governors": governors,
        "turbines": turbines,
        "events": [
            {"time_s": 0.0, "kind": "load_surge", "magnitude_pu": 0.04}
        ],
        # K = 40 is within 0.3% of the exact step-and-hold optimum (alpha
        # 1.3054; K = 40, 60 and 100 give 1.3088, 1.3070 and 1.3060); the
        # condensed LP also solves the higher orders
        "solver": {"nodes": 40, "t_f_s": 30.0, "hypothetical_p_d_pu": 0.04},
        "sim": {"duration_s": 60.0, "step_s": 0.01},
        "controllers": {"vic": {"k_f": 20.0, "k_in": 10.0, "filter_s": 0.1},
                        "exit_strategy": True},
    }


_BUILDERS = {"two_machine": _two_machine, "multi_machine": _multi_machine}
PRESET_NAMES = tuple(sorted(_BUILDERS))


def load_preset(name: str) -> dict:
    """Deep copy of the named scenario document."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return copy.deepcopy(builder())


def preset_checksum(name: str) -> str:
    """Stable digest of the preset document, recorded in reports."""
    doc = load_preset(name)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
