"""``import repro`` pays only for what every call uses."""

import subprocess
import sys


def test_import_leaves_scipy_stats_and_signal_unloaded():
    # scipy.stats alone took over half of ``import repro``; it (and
    # scipy.signal, which imports it) load on first use: the chi-square
    # threshold from a false-alarm probability, multi-input pole placement.
    code = (
        "import sys, repro; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
