"""Timing comparison of the numba-jitted kernels against the numpy fallback.

Runs the three hot workloads (Legendre-Gauss grid construction, the K=60
trajectory LP, and a closed-loop simulation) under the current backend, then
re-launches itself with WINDFREQ_DISABLE_NUMBA=1 and prints both columns.
Exits with status 1 when numba is not importable.

    python benchmarks/backend_bench.py
"""

import json
import os
import subprocess
import sys
import time

REPEATS = 3


def _workloads():
    from dataclasses import replace

    from windfreq import collocation as coll
    from windfreq import trajopt as to
    from windfreq.presets import load_preset
    from windfreq.scenario import scenario_from_dict
    from windfreq.simulator import run

    sc = scenario_from_dict(load_preset("two_machine"))
    prob = to.build_problem(sc.grid, list(sc.governors), 0.075, 30.0)

    def grid_build():
        coll.make_grid(100, 0.0, 30.0)

    def lp_solve():
        to.solve_max_nadir(prob, coll.make_grid(60, 0.0, 30.0))

    sol = to.solve_max_nadir(prob, coll.make_grid(60, 0.0, 30.0))
    sim_sc = replace(sc, sim=replace(sc.sim, duration_s=60.0))

    def closed_loop():
        run(sim_sc, alpha_override=sol.alpha)

    return [
        ("legendre_gauss grid, K=100", grid_build),
        ("trajectory LP, K=60", lp_solve),
        ("closed-loop sim, 60 s @ 10 ms", closed_loop),
    ]


def measure() -> dict:
    import windfreq

    results = {"backend": windfreq.backend_name()}
    for name, fn in _workloads():
        fn()  # warm-up: JIT compile / cache load
        best = min(_timed(fn) for _ in range(REPEATS))
        results[name] = best
    return results


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main():
    try:
        import numba  # noqa: F401
    except ImportError:
        raise SystemExit("backend_bench: numba is not importable, so there is no "
                         "numba backend to compare against numpy") from None
    mine = measure()
    env = dict(os.environ)
    env["WINDFREQ_DISABLE_NUMBA"] = "0" if mine["backend"] == "numpy" else "1"
    out = subprocess.run([sys.executable, __file__, "--emit-json"], env=env,
                         capture_output=True, text=True)
    if out.returncode != 0:
        print(out.stderr, file=sys.stderr)
        raise SystemExit("secondary backend run failed")
    other = json.loads(out.stdout.strip().splitlines()[-1])

    numba_col = mine if mine["backend"] == "numba" else other
    numpy_col = other if mine["backend"] == "numba" else mine
    width = max(len(k) for k in mine if k != "backend")
    print(f"{'workload':<{width}}  {'numba [s]':>10}  {'numpy [s]':>10}  {'speedup':>8}")
    for name in mine:
        if name == "backend":
            continue
        tn, tp = numba_col[name], numpy_col[name]
        print(f"{name:<{width}}  {tn:>10.3f}  {tp:>10.3f}  {tp / tn:>7.1f}x")


if __name__ == "__main__":
    if "--emit-json" in sys.argv:
        print(json.dumps(measure()))
    else:
        main()
