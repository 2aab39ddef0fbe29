"""Seeded scenarios and the op lists of the three benchmark workloads.

Case 0 of a workload is its nominal shipped preset. Case i >= 1 is variant
i, drawn from ``random.Random(f"{workload}/{seed}/{i}")``, so the same seed
always gives the same files. A pass runs the workload's op list (one CLI
call per op) on one case. Timed runs read case 0 in every pass. With
``run.py --variants``, pass i of a workload in ``ROTATES_VARIANTS`` reads
variant i instead.
The collocation order and, for ``fleet_compare``, the AAPC ratio alpha are
written into every generated file, so a later edit of a preset's defaults
cannot silently change what is timed.

Perturbation ranges (each draw is independent and uniform, and keeps every
value inside the schema):

    grid.inertia_s            x [0.90, 1.10]
    governor droop            [0.045, 0.055]       every governor kind
    reheat_time_s             x [0.85, 1.15]       reheat_steam governors
    turbine wind_speed_ms     + [-0.5, +0.5] m/s   each turbine entry, raised
                                                   to 2 % above the wind whose
                                                   tracking speed is the rotor
                                                   speed floor
    deficit                   x [0.85, 1.15]       surge magnitude, the
                                                   hypothetical deficit and
                                                   the trip fraction
"""

import copy
import json
import random
from dataclasses import dataclass, field

STRATEGIES = ("none", "classic_vic", "optimal_aapc")

OUTPUTS = {
    "solve": ("trajectory.csv", "solve_metrics.json"),
    "synthesize": ("controller.json",),
    "simulate": ("sim_trace.csv", "sim_metrics.json"),
    "compare": tuple(f"compare_{s}_{kind}" for s in STRATEGIES
                     for kind in ("trace.csv", "metrics.json")) + ("compare.json",),
    "sweep": ("sweep.csv", "sweep.json"),
}

# Preset digests when the workloads were defined; a mismatch is reported so
# that a preset edit shows up next to the numbers it changes.
PRESET_CHECKSUMS = {"two_machine": "147766349c473de5",
                    "multi_machine": "2997c97cf21ae33f"}

TWO_MACHINE_NODES = 60
FLEET_NODES = 40
NOMINAL_TRIP_FRACTION = 0.1


@dataclass
class Op:
    """One CLI call: ``windfreq <pipeline> --scenario <file> <extra...>``."""

    pipeline: str
    role: str                     # which scenario file of the pass it reads
    extra: tuple = ()

    def label(self) -> str:
        return " ".join((self.pipeline, *self.extra)) + f" [{self.role}]"


@dataclass
class Case:
    """The scenario documents one pass reads, by role."""

    index: int                    # 0 nominal, >= 1 seeded variant
    docs: dict = field(default_factory=dict)


# Workloads whose later passes can read seeded variants. A fleet pass takes
# 20-35 s, so a run holds one pass and a fleet seed has no effect; and a
# fleet variant costs another time than the nominal case (its K=60 solve
# succeeds in ~20 s where the nominal one fails in ~13 s), so a run that
# fitted a second pass would mix two kinds of sample in one median.
ROTATES_VARIANTS = {"two_machine_study"}

WORKLOADS = {
    # the paper's two-machine study run as a user runs it, one CLI call per step
    "two_machine_study": (
        "two_machine",
        (Op("solve", "surge", ("--nodes", str(TWO_MACHINE_NODES))),
         Op("synthesize", "surge"),
         Op("simulate", "trip"),
         Op("compare", "surge"),
         Op("sweep", "surge")),
    ),
    # the 12-state fleet LP alone; the nominal K=60 solve fails today (exit 3)
    "fleet_solve": (
        "multi_machine",
        (Op("solve", "surge", ("--nodes", "40")),
         Op("solve", "surge", ("--nodes", "60"))),
    ),
    # three 71-state closed loops with alpha pinned, so no LP is solved
    "fleet_compare": (
        "multi_machine",
        (Op("compare", "surge"),),
    ),
}


def _perturb(doc: dict, rng: random.Random) -> float:
    """Apply one seeded draw in place; returns the deficit factor."""
    doc["grid"]["inertia_s"] *= rng.uniform(0.90, 1.10)
    for gov in doc["governors"]:
        params = gov["params"]
        params["droop"] = rng.uniform(0.045, 0.055)
        if gov["kind"] == "reheat_steam":
            params["reheat_time_s"] *= rng.uniform(0.85, 1.15)
    for turbine in doc["turbines"]:
        turbine["wind_speed_ms"] += rng.uniform(-0.5, 0.5)
    factor = rng.uniform(0.85, 1.15)
    for event in doc["events"]:
        event["magnitude_pu"] *= factor
    doc["solver"]["hypothetical_p_d_pu"] *= factor
    _keep_above_speed_floor(doc)
    return factor


def _keep_above_speed_floor(doc: dict) -> None:
    """Raise each wind speed whose tracking speed would sit below the floor."""
    from windfreq.scenario import scenario_from_dict
    from windfreq.turbine import mppt_equilibrium_speed

    for turbine, entry in zip(doc["turbines"], scenario_from_dict(doc).turbines):
        floor_ms = entry.spec.floor_speed_rad / mppt_equilibrium_speed(1.0, entry.spec)
        turbine["wind_speed_ms"] = max(turbine["wind_speed_ms"], 1.02 * floor_ms)


def make_case(workload: str, seed: int, index: int) -> Case:
    """Scenario documents of case ``index`` (alpha is pinned later)."""
    from windfreq.presets import load_preset

    preset, _ = WORKLOADS[workload]
    doc = load_preset(preset)
    doc["solver"]["nodes"] = TWO_MACHINE_NODES if preset == "two_machine" else FLEET_NODES
    factor = 1.0
    if index:
        doc["name"] = f"{preset}-{workload}-s{seed}-v{index}"
        factor = _perturb(doc, random.Random(f"{workload}/{seed}/{index}"))
    case = Case(index=index, docs={"surge": doc})
    if workload == "two_machine_study":
        trip = copy.deepcopy(doc)
        trip["events"] = [{"time_s": 0.0, "kind": "generation_trip",
                           "unit": doc["governors"][0]["name"],
                           "fraction": NOMINAL_TRIP_FRACTION * factor}]
        case.docs["trip"] = trip
    return case


def oracle(doc: dict):
    """Euler-oracle solution for the document's hypothetical deficit."""
    from windfreq import trajopt
    from windfreq.scenario import scenario_from_dict

    sc = scenario_from_dict(doc)
    problem = trajopt.build_problem(sc.grid, list(sc.governors),
                                    sc.solver.hypothetical_p_d_pu, sc.solver.t_f)
    return trajopt.euler_oracle(problem)


def pin_alpha(workload: str, case: Case, reference) -> None:
    """fleet_compare reads ``controllers.alpha`` from the oracle, not the LP."""
    if workload == "fleet_compare":
        case.docs["surge"]["controllers"]["alpha"] = reference.alpha


def canonical(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
