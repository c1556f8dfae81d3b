"""Smoke test of the end-to-end benchmark at tiny sizes.

Runs ``perfbench/run.py --smoke`` in a fresh process (the benchmark pins
BLAS threads before numpy loads, so it cannot share this interpreter).  The
smoke mode runs every workload untraced and traced, and fails unless the
printed metric names and units match ``BENCHMARK.json`` and every output
check passed.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_prints_declared_metrics_and_passes_every_check():
    completed = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=RUN.parent.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
    assert completed.stdout.rstrip().endswith("smoke: ok")
