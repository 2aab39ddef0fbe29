"""Spans around the public functions of each windfreq module, from outside.

The program imports several functions by name (``cli`` binds ``run``,
``metrics`` and ``synthesize``; ``simulator`` binds ``synthesize``,
``allocate`` and ``tf_to_statespace``; ``trajopt`` binds ``solve_lp``), so
patching one module would miss those calls. ``Tracer.install`` therefore
replaces the function object under every name, in every loaded ``windfreq.*``
module, that is bound to it, and ``uninstall`` puts the originals back. A
target that a later refactor deleted or renamed is recorded as absent; the
run goes on without it.
"""

import hashlib
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _lp_counts(bound, result):
    """Pivots, plus flops of a dense pivot on the standard-form tableau.

    The tableau has one row per constraint and one column per variable,
    per negated copy of a free variable and per inequality slack (see
    ``lp.solve_lp``); a pivot updates every (rows+1) x (cols+1) cell with
    one multiply and one subtract. Computed from shapes, not measured.
    """
    args = bound.arguments
    n_var = np.asarray(args["c"]).size
    rows_eq = 0 if args.get("a_eq") is None else np.atleast_2d(args["a_eq"]).shape[0]
    rows_ub = 0 if args.get("a_ub") is None else np.atleast_2d(args["a_ub"]).shape[0]
    nonneg = args.get("nonneg")
    n_free = n_var if nonneg is None else n_var - int(np.count_nonzero(nonneg))
    rows, cols = rows_eq + rows_ub, n_var + n_free + rows_ub
    pivots = int(result.iterations)
    return {"pivots": pivots, "flops_computed": pivots * 2 * (rows + 1) * (cols + 1)}


def _problem_key(bound, result):
    problem, grid = bound.arguments["problem"], bound.arguments["grid"]
    digest = hashlib.sha256(np.ascontiguousarray(problem.a).tobytes())
    digest.update(repr((problem.p_d, problem.t_f, grid.order)).encode())
    return {"key": digest.hexdigest()}


def _lp_cells(bound, result):
    rows = result.a_eq.shape[0] + result.a_ub.shape[0]
    return {"lp_cells": rows * result.c.size}


def _points(bound, result):
    return {"points": int(np.size(bound.arguments["t"]))}


def _sim_counts(bound, result):
    return {"steps": len(result.t) - 1, "exit_events": len(result.exit_events)}


# module -> {function: counter from (bound arguments, return value)}
TARGETS = {
    "lp": {"solve_lp": _lp_counts},
    "trajopt": {"build_problem": None, "transcribe": _lp_cells,
                "extract_solution": None, "solve_max_nadir": _problem_key},
    "collocation": {"make_grid": None, "lagrange_coefficients": None,
                    "interpolate": _points},
    "simulator": {"run": _sim_counts, "metrics": None},
    "aapc": {"synthesize": None, "allocate": None},
    "turbine": {"make_state": None},
    "grid": {"tf_to_statespace": None, "aggregate_governors": None},
    "scenario": {"scenario_from_dict": None},
    "cli": {f"cmd_{name}": None
            for name in ("solve", "synthesize", "simulate", "compare", "sweep")},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int                       # index into Tracer.spans, -1 at the top
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while ``recording`` is set; install once per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.recording = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "windfreq" or name.startswith("windfreq."))]
        for mod_name, functions in TARGETS.items():
            try:
                module = importlib.import_module(f"windfreq.{mod_name}")
            except ImportError:
                self.absent.extend(f"{mod_name}.{fn}" for fn in functions)
                continue
            for fn_name, counter in functions.items():
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, func, counter):
        signature = inspect.signature(func)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = func
        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def as_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "failed": s.failed, "counts": s.counts} for s in self.spans]


# per-layer metrics in report order: (name, unit); see README.md for the
# end-to-end metric and workload each should move
LAYER_METRICS = (
    ("lp.solve_lp.calls", "count"), ("lp.solve_lp.self_s", "s"),
    ("lp.solve_lp.pivots", "count"), ("lp.solve_lp.s_per_pivot", "s"),
    ("lp.solve_lp.failed", "count"), ("lp.solve_lp.flops_computed", "flop"),
    ("trajopt.solve_max_nadir.calls", "count"),
    ("trajopt.solve_max_nadir.distinct_frac", "1"),
    ("trajopt.extract_solution.self_s", "s"), ("trajopt.transcribe.self_s", "s"),
    ("trajopt.transcribe.lp_cells", "count"), ("trajopt.build_problem.self_s", "s"),
    ("collocation.interpolate.calls", "count"), ("collocation.interpolate.points", "count"),
    ("collocation.interpolate.self_s", "s"),
    ("collocation.lagrange_coefficients.calls", "count"),
    ("collocation.make_grid.self_s", "s"),
    ("simulator.run.calls", "count"), ("simulator.run.self_s", "s"),
    ("simulator.run.steps", "count"), ("simulator.run.us_per_step", "us"),
    ("simulator.run.exit_events", "count"), ("simulator.metrics.self_s", "s"),
    ("aapc.synthesize.calls", "count"), ("aapc.synthesize.self_s", "s"),
    ("aapc.allocate.self_s", "s"),
    ("turbine.make_state.calls", "count"), ("turbine.make_state.self_s", "s"),
    ("grid.tf_to_statespace.self_s", "s"), ("grid.aggregate_governors.self_s", "s"),
    ("scenario.scenario_from_dict.self_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(tracer: Tracer, bytes_written: int, overhead_s: float):
    """({metric: (value, unit)}, absent span names) from one traced pass."""
    own = tracer.self_times()
    roots = []                        # the CLI call each span belongs to
    for i, span in enumerate(tracer.spans):
        roots.append(i if span.parent < 0 else roots[span.parent])
    agg: dict[str, dict] = {}
    for span, self_s, root in zip(tracer.spans, own, roots):
        name = "cli" if span.name.startswith("cli.cmd_") else span.name
        a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0, "keys": set()})
        a["calls"] += 1
        a["self_s"] += self_s
        a["failed"] += span.failed
        for key, value in span.counts.items():
            if key == "key":          # distinct within one CLI call, as a user sees it
                a["keys"].add((root, value))
            else:
                a[key] = a.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    values = {"cli.bytes_written": bytes_written, "trace.overhead_s": overhead_s}
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        span_name, stat = name.rsplit(".", 1)
        a = agg.get(span_name, {})
        if stat == "s_per_pivot":
            values[name] = ratio(a.get("self_s", 0.0), a.get("pivots", 0))
        elif stat == "us_per_step":
            values[name] = 1e6 * ratio(a.get("self_s", 0.0), a.get("steps", 0))
        elif stat == "distinct_frac":
            values[name] = ratio(len(a.get("keys", ())), a.get("calls", 0))
        else:
            values[name] = a.get(stat, 0)
    absent = sorted(tracer.absent)
    if all(f"cli.cmd_{p}" in absent for p in ("solve", "synthesize", "simulate",
                                                 "compare", "sweep")):
        absent.append("cli")
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}, absent
