"""Write the outputs of every CLI pipeline on both presets, for a diff.

Usage: python tools/pipeline_outputs.py OUT_DIR

Runs solve, synthesize, simulate, compare and sweep on each shipped preset,
each into OUT_DIR/<preset>-<pipeline>/. The outputs are byte-reproducible, so
two checkouts compare with one ``diff -r``:

    PYTHONPATH=old/src python tools/pipeline_outputs.py /tmp/old
    PYTHONPATH=new/src python tools/pipeline_outputs.py /tmp/new
    diff -r /tmp/old /tmp/new

It uses the ``windfreq`` found on the import path, so one copy of this script
serves both checkouts. Exits 1 if any pipeline exits nonzero.
"""

import sys
from pathlib import Path

from windfreq.cli import main as windfreq_main
from windfreq.presets import PRESET_NAMES

PIPELINES = ("solve", "synthesize", "simulate", "compare", "sweep")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(args[0])
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


if __name__ == "__main__":
    sys.exit(main())
