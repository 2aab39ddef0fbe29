"""The package holds what its pipelines run.

``tools/pipeline_coverage.py`` runs every CLI pipeline in a fresh
interpreter and exits 1 if a ``def`` of ``src/windfreq`` that none of them
enters is missing from its allow-list, or an allow-list entry is stale.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_function_runs_in_a_pipeline_or_is_allowed():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pipeline_coverage.py")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
