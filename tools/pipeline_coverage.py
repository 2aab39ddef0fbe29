"""List every function of the ``windfreq`` package that no CLI pipeline enters.

Usage: python tools/pipeline_coverage.py

It runs, in this process and one after another, the five pipelines (solve,
synthesize, simulate, compare, sweep) on each shipped preset, then
``--dump-preset``, a ``simulate`` of a ``generation_trip`` with no
``magnitude_pu`` and one invalid scenario, and records every Python function
call with ``sys.setprofile``. Every closed loop runs for its preset's support
window (``$.solver.t_f_s``) rather than its ``$.sim.duration_s``, and each
preset's sweep takes two deficits (``--range 0.05:0.1:2``) rather than ten:
the same functions run, in less time. The profiler starts before
``windfreq`` is imported, so module-level code and the functions it calls
count as entered. The process is pinned to one CPU, so
``simulator._map_runs`` runs its items inline rather than in forked workers
that the profiler would not see.

It then prints every ``def`` in the package's source that no run entered,
one per line as ``module.qualname (file:line)``, and exits 1 if one of them
is not in ``ALLOWED`` or a run exited with another code than expected.
``ALLOWED`` names the functions the package keeps although no pipeline
runs them, each with its reason; an entry that the runs enter, or that no
longer names a ``def``, also makes it exit 1.

Like ``tools/pipeline_outputs.py`` it uses the ``windfreq`` found on the
import path:

    PYTHONPATH=src python tools/pipeline_coverage.py
"""

import ast
import contextlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

PIPELINES = ("solve", "synthesize", "simulate", "compare", "sweep")
SIMULATING = ("simulate", "compare", "sweep")
SWEEP_RANGE = ["--range", "0.05:0.1:2"]

# module.qualname -> why the package keeps it although no pipeline enters it
ALLOWED = {
    "trajopt.euler_oracle": "the Euler reference of acceptance criterion 4; perfbench's "
                            "fleet_compare pins alpha from it",
    "backend_name": "perfbench records it with each run",
    "lp._solve_standard": "the cold two-phase simplex; every preset solve starts from a "
                          "feasible contact crash",
    "scenario.scenario_to_dict": "the schema's writer, whose round trip the tests check; "
                                 "no command writes a scenario",
    "scenario._write": "the helper of scenario_to_dict",
    "simulator._run_share": "the calling process's share of forked runs; runs here are serial",
    "simulator._worker": "the body of a forked worker; runs here are serial",
}


def package_defs(package_dir: Path) -> dict:
    """(file, first line of the code object) -> module.qualname of every def.

    A decorated function's code starts at its first decorator.
    """
    defs = {}

    def visit(node, module, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path, first)] = f"{module}{name}"
                visit(child, module, f"{name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(package_dir.glob("*.py")):
        module = "" if path.stem == "__init__" else f"{path.stem}."
        visit(ast.parse(path.read_text(), str(path)), module, "", str(path.resolve()))
    return defs


def runs(work: Path) -> list:
    """(argv, expected exit code) of every run, writing the scenario files
    they read into ``work``."""
    from windfreq.presets import PRESET_NAMES, load_preset

    def scenario_file(name, doc):
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def short(doc):
        doc["sim"]["duration_s"] = doc["solver"]["t_f_s"]
        return doc

    out = []
    for preset in PRESET_NAMES:
        cut = ["--scenario", scenario_file(preset, short(load_preset(preset)))]
        for pipeline in PIPELINES:
            source = cut if pipeline in SIMULATING else ["--preset", preset]
            extra = SWEEP_RANGE if pipeline == "sweep" else []
            out.append(([pipeline, *source, *extra,
                         "--out", str(work / f"{preset}-{pipeline}")], 0))
    out.append((["--dump-preset", "two_machine", "--out", str(work / "dumped.json")], 0))
    doc = short(load_preset("two_machine"))
    doc["events"] = [{"time_s": 0.0, "kind": "generation_trip", "unit": "G1", "fraction": 0.1}]
    out.append((["simulate", "--scenario", scenario_file("trip", doc),
                 "--out", str(work / "trip")], 0))
    doc = load_preset("two_machine")
    doc["grid"]["inertia_s"] = "4.2"  # a string where the schema wants a number
    out.append((["simulate", "--scenario", scenario_file("invalid", doc),
                 "--out", str(work / "invalid")], 2))
    return out


def main() -> int:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    failed = []
    sys.setprofile(profile)
    try:
        from windfreq.cli import main as windfreq_main

        with tempfile.TemporaryDirectory() as tmp:
            for run_argv, expected in runs(Path(tmp)):
                with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
                        contextlib.redirect_stderr(null):
                    rc = windfreq_main(run_argv)
                if rc != expected:
                    failed.append(f"windfreq {' '.join(run_argv)}: exited {rc}, "
                                  f"expected {expected}")
    finally:
        sys.setprofile(None)

    package_dir = Path(importlib.util.find_spec("windfreq").submodule_search_locations[0])
    defs = package_defs(package_dir)
    entered = {defs.get((os.path.realpath(f), line)) for f, line in entered}
    missed = [(name, f"{Path(f).name}:{line}") for (f, line), name in defs.items()
              if name not in entered]
    for name, where in missed:
        reason = ALLOWED.get(name)
        print(f"{name} ({where})" + (f": allowed, {reason}" if reason else ": NOT ALLOWED"))
        if reason is None:
            failed.append(f"{name} is entered by no run")
    names = set(defs.values())
    for name in ALLOWED:
        if name not in names:
            failed.append(f"allowed {name} is no def of the package")
        elif name in entered:
            failed.append(f"allowed {name} is entered by a run")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
