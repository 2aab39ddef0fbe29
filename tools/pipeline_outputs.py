"""Write the outputs of every CLI pipeline on both presets, or size their diff.

Usage: python tools/pipeline_outputs.py OUT_DIR
       python tools/pipeline_outputs.py --diff OLD_DIR NEW_DIR

The first form runs solve, synthesize, simulate, compare and sweep on each
shipped preset, each into OUT_DIR/<preset>-<pipeline>/. It uses the
``windfreq`` found on the import path, so one copy of this script serves two
checkouts, and exits 1 if any pipeline exits nonzero:

    PYTHONPATH=old/src python tools/pipeline_outputs.py /tmp/old
    PYTHONPATH=new/src python tools/pipeline_outputs.py /tmp/new
    python tools/pipeline_outputs.py --diff /tmp/old /tmp/new

The outputs depend on how many threads OpenBLAS uses, so the script runs
it on one thread unless ``OPENBLAS_NUM_THREADS`` is set already; with that,
the outputs are byte-reproducible, and ``--diff`` stays silent on identical
trees. In each file that differs it prints, one line each, the largest
relative difference of every CSV column that moved, against the column's
largest magnitude, and that of every numeric JSON leaf that moved, against
max(|old|, |new|). Headers, strings, lengths and files present on one side
only are printed verbatim, a JSON key present on one side only as one
``$.path: only in OLD`` (or ``NEW``) line, and each of these makes ``--diff``
exit 1; the keys both sides share are still compared.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy is imported

import numpy as np  # noqa: E402

PIPELINES = ("solve", "synthesize", "simulate", "compare", "sweep")


def write_outputs(out_dir: Path) -> int:
    from windfreq.cli import main as windfreq_main
    from windfreq.presets import PRESET_NAMES

    failed = []
    for preset in PRESET_NAMES:
        for pipeline in PIPELINES:
            target = out_dir / f"{preset}-{pipeline}"
            rc = windfreq_main([pipeline, "--preset", preset, "--out", str(target)])
            if rc != 0:
                failed.append(f"{preset}-{pipeline} exited {rc}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


def _csv_diff(old: Path, new: Path, numeric: dict, verbatim: list) -> None:
    head_old, head_new = (p.read_text().split("\n", 1)[0] for p in (old, new))
    if head_old != head_new:
        verbatim.append(f"header {head_old!r} != {head_new!r}")
        return
    try:
        a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (old, new))
    except ValueError as exc:
        verbatim.append(f"not numeric: {exc}")
        return
    if a.shape != b.shape:
        verbatim.append(f"shape {a.shape} != {b.shape}")
        return
    scale = np.maximum(np.abs(a).max(axis=0, initial=0.0), np.abs(b).max(axis=0, initial=0.0))
    rel = np.abs(a - b).max(axis=0, initial=0.0) / np.where(scale > 0, scale, 1.0)
    for name, value in zip(head_old.split(","), rel):
        if value:
            numeric[name] = float(value)


def _json_diff(a, b, path: str, numeric: dict, verbatim: list) -> None:
    def is_number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if is_number(a) and is_number(b):
        if a != b:
            numeric[path] = abs(a - b) / max(abs(a), abs(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key in a and key in b:
                _json_diff(a[key], b[key], f"{path}.{key}", numeric, verbatim)
            else:
                verbatim.append(f"{path}.{key}: only in {'OLD' if key in a else 'NEW'}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (u, v) in enumerate(zip(a, b)):
            _json_diff(u, v, f"{path}[{i}]", numeric, verbatim)
    elif a != b:
        verbatim.append(f"{path}: {json.dumps(a)} != {json.dumps(b)}")


def diff_outputs(old_dir: Path, new_dir: Path) -> int:
    files = {p.relative_to(d) for d in (old_dir, new_dir) for p in d.rglob("*") if p.is_file()}
    structural = False
    for rel in sorted(files):
        old, new = old_dir / rel, new_dir / rel
        if not (old.is_file() and new.is_file()):
            print(f"{rel}: only in {old_dir if old.is_file() else new_dir}")
            structural = True
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        numeric, verbatim = {}, []
        if rel.suffix == ".csv":
            _csv_diff(old, new, numeric, verbatim)
        elif rel.suffix == ".json":
            _json_diff(json.loads(old.read_text()), json.loads(new.read_text()), "$",
                       numeric, verbatim)
        else:
            verbatim.append("contents differ")
        for where, value in numeric.items():
            print(f"{rel}: {where} {value:.2e}")
        for line in verbatim:
            print(f"{rel}: {line}")
        structural = structural or bool(verbatim)
    return 1 if structural else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 1 and not args[0].startswith("-"):
        return write_outputs(Path(args[0]))
    if len(args) == 3 and args[0] == "--diff":
        return diff_outputs(Path(args[1]), Path(args[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
