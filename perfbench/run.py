"""End-to-end and per-layer benchmark of the windfreq CLI pipelines.

    python3 perfbench/run.py --workload two_machine_study --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One workload runs per process, in this process, through
``windfreq.cli.main([...])`` on scenario files it generates (see
``workloads.py``). Passes of the workload's op list, one case each, repeat
while the next one is expected to finish within ``--seconds``; at least one
pass always runs. Every pass reads the nominal case. With ``--variants`` the
passes of ``two_machine_study`` after the first read variants drawn from
the seed instead; some of them fail the exit power-step check today, so the
timed runs leave them out (see ``README.md``). Before each op the program's
``functools`` caches are emptied, so that every op starts as cold as a fresh
CLI process. Outputs are checked after each op, outside the timed region.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` runs the nominal case three times: an untraced warm-up pass,
an untraced pass and a traced pass. It reports per-layer metrics from spans
around each module's public functions (``tracer.py``), and the traced pass's
time minus the untraced pass's time as the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines above it are the readable report,
including the per-pipeline times and the failure fraction. The full record
(machine, inputs and their checksums, every op) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>[-variants]/record.json``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS runs with nproc threads, the default a user gets. Do not lower it to
# steady the figures: the nominal multi_machine K=60 LP fails with 2 threads
# and solves with 1, so the thread count is part of the workload.
SETUP_REPEATS = 25
SETUP_CODE = ("import time; t0 = time.perf_counter(); import windfreq.cli as cli; "
              "cli.build_parser(); print(time.perf_counter() - t0)")
RESIDUAL_TOL = 1e-8
POWER_STEP_TOL = 1e-6
ORACLE_REL_TOL = 5e-3


@dataclass
class OpResult:
    pass_index: int
    label: str
    pipeline: str
    seconds: float
    exit_code: int | None         # None when main() raised
    message: str = ""
    problems: list = field(default_factory=list)
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_record() -> dict:
    """Everything that must match before two runs may be compared."""
    import numpy
    import windfreq

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    git = {"sha": None, "dirty": None}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=10)
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    digest = hashlib.sha256()
    for path in sorted((SRC / "windfreq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "backend": windfreq.backend_name(),
        "git_sha": git["sha"],
        "git_dirty": git["dirty"],
        "src_sha256": digest.hexdigest(),
    }


def program_caches() -> list:
    """Every ``functools`` cache bound in a loaded ``windfreq.*`` module."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "windfreq" or name.startswith("windfreq.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    caches[id(value)] = value
    return list(caches.values())


def measure_setup(repeats: int) -> list[float]:
    """Import of windfreq.cli plus parser construction, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Bench:
    """Generated inputs, their oracle references and the op runner of one run."""

    def __init__(self, workload: str, seed: int, run_dir: Path, variants: bool = False):
        self.workload = workload
        self.seed = seed
        self.variants = variants and workload in wl.ROTATES_VARIANTS
        self.run_dir = run_dir
        self.preset, self.ops = wl.WORKLOADS[workload]
        self.inputs: list[dict] = []
        self._cases: dict[int, tuple] = {}
        self._op_count = 0
        self._caches = program_caches()

    def case(self, index: int):
        """(case, oracle reference, paths by role), generated once and written."""
        if index not in self._cases:
            from windfreq.scenario import scenario_from_dict

            case = wl.make_case(self.workload, self.seed, index)
            reference = wl.oracle(case.docs["surge"])
            wl.pin_alpha(self.workload, case, reference)
            paths = {}
            for role, doc in case.docs.items():
                scenario_from_dict(doc)           # every draw must validate
                blob = wl.canonical(doc)
                path = self.run_dir / "inputs" / f"case{index}-{role}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(blob)
                paths[role] = path
                self.inputs.append({"case": index, "role": role,
                                    "file": str(path.relative_to(ROOT)),
                                    "sha256": hashlib.sha256(blob).hexdigest()})
            self._cases[index] = (case, reference, paths)
        return self._cases[index]

    def pass_case(self, pass_index: int) -> int:
        """Nominal first; then variant i in pass i when variants are asked for."""
        return pass_index if self.variants else 0

    def run_pass(self, pass_index: int, case_index: int | None = None) -> list[OpResult]:
        index = self.pass_case(pass_index) if case_index is None else case_index
        case, reference, paths = self.case(index)
        return [self.run_op(pass_index, op, case, reference, paths) for op in self.ops]

    def run_op(self, pass_index, op, case, reference, paths) -> OpResult:
        import windfreq.cli

        self._op_count += 1
        op_dir = self.run_dir / "ops" / f"op{self._op_count}"
        argv = [op.pipeline, "--scenario", str(paths[op.role]), "--out", str(op_dir), *op.extra]
        stdout, stderr = io.StringIO(), io.StringIO()
        label = f"{op.label()} case{case.index}"
        for cache in self._caches:               # a user's every call starts cold
            cache.cache_clear()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = windfreq.cli.main(argv)
                message = stderr.getvalue().strip()
            except Exception:                      # a crash is a result, not an abort
                code, message = None, traceback.format_exc(limit=3)
            finally:
                seconds = time.perf_counter() - t0
        result = OpResult(pass_index, label, op.pipeline, seconds, code, message)
        if code == 0:
            result.problems = check_outputs(op, op_dir, reference)
        if op_dir.exists():
            result.bytes_written = sum(p.stat().st_size for p in op_dir.iterdir())
            shutil.rmtree(op_dir)
        return result


def check_outputs(op: wl.Op, op_dir: Path, reference) -> list[str]:
    """Problems with one op's outputs; an empty list means they are correct."""
    problems = [f"missing {name}" for name in wl.OUTPUTS[op.pipeline]
                if not (op_dir / name).is_file()]
    if problems:
        return problems
    for path in sorted(op_dir.glob("*_metrics.json")):
        doc = json.loads(path.read_text())
        residual = doc.get("max_swing_residual")
        if residual is not None and not residual <= RESIDUAL_TOL:
            problems.append(f"{path.name}: max_swing_residual {residual:.3e}")
        for event in doc.get("exit_events", []):
            if not event["power_step_pu"] <= POWER_STEP_TOL:
                problems.append(f"{path.name}: exit power step {event['power_step_pu']:.3e}"
                                f" pu at {event['t_e_s']:.3f} s")
    if op.pipeline == "solve":
        doc = json.loads((op_dir / "solve_metrics.json").read_text())
        diag = doc["diagnostics"]
        for key in ("primal_eq_residual", "primal_ub_residual"):
            if not diag[key] <= RESIDUAL_TOL:
                problems.append(f"solve_metrics.json: {key} {diag[key]:.3e}")
        rel = abs(doc["nadir_pu"] - reference.nadir_pu) / abs(reference.nadir_pu)
        if not rel <= ORACLE_REL_TOL:
            problems.append(f"nadir {doc['nadir_pu']:.6g} pu is {rel:.2%} from the "
                            f"Euler oracle {reference.nadir_pu:.6g} pu")
    if op.pipeline == "synthesize":
        alpha = json.loads((op_dir / "controller.json").read_text())["alpha"]
        rel = abs(alpha - reference.alpha) / reference.alpha
        if not rel <= ORACLE_REL_TOL:
            problems.append(f"alpha {alpha:.6g} is {rel:.2%} from the Euler oracle "
                            f"{reference.alpha:.6g}")
    return problems


def pass_seconds(results: list[OpResult], pipeline: str | None = None) -> list[float]:
    """Seconds per pass, in all ops or in one pipeline's ops."""
    totals: dict[int, float] = {}
    for r in results:
        totals.setdefault(r.pass_index, 0.0)
        if pipeline is None or r.pipeline == pipeline:
            totals[r.pass_index] += r.seconds
    return list(totals.values())


def timed_passes(bench: Bench, seconds: float) -> list[OpResult]:
    """Whole passes while the next is expected to end within ``seconds``."""
    results: list[OpResult] = []
    start = time.perf_counter()
    pass_index = 0
    while True:
        t0 = time.perf_counter()
        results.extend(bench.run_pass(pass_index))
        last = time.perf_counter() - t0
        pass_index += 1
        if time.perf_counter() - start + last > seconds:
            return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, setup) -> tuple[dict, list]:
    """(metrics for the result line, readable rows with sample counts)."""
    walls = pass_seconds(results)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    rows = [(name, *value) for name, value in metrics.items()]
    for pipeline in wl.OUTPUTS:
        if any(r.pipeline == pipeline for r in results):
            per_pass = pass_seconds(results, pipeline)
            rows.append((f"{pipeline}_s", statistics.median(per_pass), "s", len(per_pass)))
    failed = sum(r.failed for r in results)
    rows.append(("fail_frac", failed / len(results), "1", len(results)))
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, rows


def print_report(args, machine, rows, results, extra_lines=()):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={machine['backend']} numpy={machine['numpy']} nproc={machine['nproc']}")
    for name, value, unit, count in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={count}")
    for r in results:
        if r.failed:
            why = "; ".join(r.problems) or (r.message.splitlines() or ["no message"])[-1]
            print(f"  FAILED pass {r.pass_index} {r.label}: exit {r.exit_code}: {why}")
    for line in extra_lines:
        print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--variants", action="store_true",
                        help="after the nominal pass, pass i reads seeded variant i "
                             "(two_machine_study only; not part of the timed benchmark)")
    args = parser.parse_args(argv)

    if not (SRC / "windfreq" / "cli.py").is_file():
        print(f"perfbench: no windfreq sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:              # before numpy loads its BLAS
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    import windfreq.cli  # noqa: F401  (loads every module the tracer wraps)
    from windfreq.presets import preset_checksum
    from tracer import Tracer, layer_metrics

    machine = machine_record()
    run_dir = OUT_ROOT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          + ("-variants" if args.variants else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # half the set-up samples before the passes and half after, so that the
    # median spans the run, as wall_s does, and not one burst of seconds
    setup = measure_setup(SETUP_REPEATS // 2)
    bench = Bench(args.workload, args.seed, run_dir, args.variants)
    bench.case(0)                             # inputs and oracle before timing

    notes = []
    checksum_now = preset_checksum(bench.preset)
    if checksum_now != wl.PRESET_CHECKSUMS[bench.preset]:
        notes.append(f"preset {bench.preset} changed: checksum {checksum_now}, "
                     f"workload defined at {wl.PRESET_CHECKSUMS[bench.preset]}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "variants": bench.variants, "machine": machine,
              "setup_s_samples": setup}

    if args.trace:
        # nominal case only, so that every count repeats exactly across seeds;
        # the overhead compares the traced pass with a warm untraced one
        warmup = bench.run_pass(0, case_index=0)
        untraced = bench.run_pass(1, case_index=0)
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
        try:
            traced = bench.run_pass(2, case_index=0)
        finally:
            tracer.recording = False
            tracer.uninstall()
        results, timed = warmup + untraced + traced, untraced
        overhead = sum(pass_seconds(traced)) - sum(pass_seconds(untraced))
        layers, absent = layer_metrics(tracer, sum(r.bytes_written for r in traced), overhead)
        if absent:
            notes.append("absent spans (reported as 0): " + ", ".join(absent))
        record["spans"] = tracer.as_records()
        record["absent"] = absent
    else:
        results = timed = timed_passes(bench, args.seconds)
    setup += measure_setup(SETUP_REPEATS - len(setup))
    metrics, rows = end_to_end(timed, setup)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        rows += [(name, v, u, 1) for name, (v, u) in layers.items()]

    failed = sum(r.failed for r in results)
    # a refusal or a crash is a failed op; an output that fails a check is
    # also a wrong result
    correct = not any(r.problems for r in results)
    record.update(inputs=bench.inputs, ops=[asdict(r) for r in results],
                  report=[list(row) for row in rows], notes=notes)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print_report(args, machine, rows, results,
                 notes + [f"record: {(run_dir / 'record.json').relative_to(ROOT)}"])
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
