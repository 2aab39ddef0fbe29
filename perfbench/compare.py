"""Compare saved benchmark records of two commits, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a ``record.json`` written by ``run.py``. The comparison is
refused (exit 2) unless every record comes from the same workload, trace
mode and variants setting, on the same machine, interpreter, numpy, scipy,
BLAS, thread count and windfreq backend: a gap between two of those is not a
change in the program.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads", "backend")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)

    records = {side: [json.loads(Path(path).read_text()) for path in paths]
               for side, paths in (("base", args.base), ("new", args.new))}
    first = records["base"][0]
    for side, recs in records.items():
        for rec in recs:
            diff = [key for key in MUST_MATCH if rec["machine"][key] != first["machine"][key]]
            diff += [key for key in ("workload", "trace", "variants")
                     if rec.get(key) != first.get(key)]
            if diff:
                print(f"refusing to compare: {side} record (seed {rec['seed']}) differs in "
                      + ", ".join(diff), file=sys.stderr)
                return 2

    values = {side: {} for side in records}
    units = {}
    for side, recs in records.items():
        for rec in recs:
            for name, value, unit, _count in rec["report"]:
                values[side].setdefault(name, []).append(value)
                units[name] = unit
    print(f"{first['workload']} trace={first['trace']}: "
          f"{len(records['base'])} base runs, {len(records['new'])} new runs; "
          "median [q1, q3]")
    for name, unit in units.items():
        base, new = values["base"].get(name), values["new"].get(name)
        if not base or not new:
            print(f"  {name:<40} only in {'base' if base else 'new'}")
            continue
        b1, b2, b3 = _quartiles(base)
        n1, n2, n3 = _quartiles(new)
        ratio = f"{n2 / b2:8.3f}x" if b2 else "       -"
        print(f"  {name:<40} {b2:12.6g} [{b1:.4g}, {b3:.4g}]  ->  "
              f"{n2:12.6g} [{n1:.4g}, {n3:.4g}] {unit:<5} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
