"""``import repro`` pays only for what every call uses."""

import subprocess
import sys


def _loaded_after_import(modules: tuple[str, ...]) -> str:
    """The subset of ``modules`` a fresh ``import repro`` leaves in ``sys.modules``."""
    code = (
        "import sys, repro; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_import_leaves_scipy_stats_and_signal_unloaded():
    # scipy.stats alone took over half of ``import repro``; it (and
    # scipy.signal, which imports it) load on first use: the chi-square
    # threshold from a false-alarm probability, multi-input pole placement.
    assert _loaded_after_import(("scipy.stats", "scipy.signal")) == "[]"


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize loads on the first LP or optimizer solve, so the fleet
    # and serve entry points, which solve nothing, never pay for it.
    assert _loaded_after_import(("scipy.optimize",)) == "[]"


def test_import_leaves_scipy_linalg_and_sparse_unloaded():
    # scipy.linalg (about 0.3 s over numpy) loads on the first ZOH
    # discretisation or DARE solve, scipy.sparse (about 0.13 s) on the
    # first LP matrix assembly.
    assert _loaded_after_import(("scipy.linalg", "scipy.sparse")) == "[]"
