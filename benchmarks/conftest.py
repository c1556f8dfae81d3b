"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation is regenerated by one test
module in this directory.  The expensive artefacts (the synthesized attack
vectors and threshold vectors for the trajectory-tracking and VSC case
studies) are computed once per session here and shared by all benchmarks, so
``pytest benchmarks/ --benchmark-only`` stays within a few minutes.

Each benchmark prints the same rows / series the paper reports, next to the
paper's own values where it gives them (§IV of the paper cited in
PAPER.md), so the console output of a benchmark run doubles as the
reproduction record and the paper-vs-measured comparison.

Besides the console record, every benchmark test appends one JSON record to
``BENCH_<test_name>.json`` (see :func:`_record_benchmark`): name, elapsed
seconds, whatever the test put in ``benchmark.extra_info`` (throughput,
instance-steps, ...), and a timestamp — ``BENCH_TIMESTAMP`` in the
environment (CI passes the workflow's start time so one run shares one
stamp) or the current time.  The files accumulate run over run, so the
perf trajectory of the repo is machine-readable; ``BENCH_DIR`` overrides
where they land (default: the repository root).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro import (
    FalseAlarmEvaluator,
    PivotThresholdSynthesizer,
    StaticThresholdSynthesizer,
    StepwiseThresholdSynthesizer,
    ThresholdRelaxer,
    get_case_study,
    synthesize_attack,
)


#: Records kept per BENCH_*.json file; older entries roll off the front.
_BENCH_HISTORY_CAP = 50


def _bench_dir() -> Path:
    """Directory the BENCH_*.json records land in (repo root by default)."""
    override = os.environ.get("BENCH_DIR", "").strip()
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent


#: Lazily computed once per session (None = not yet computed).
_GIT_PROVENANCE: dict | None = None


def _git_provenance() -> dict:
    """Best-effort ``{git_sha, git_dirty}`` of the working tree.

    Empty outside a git checkout (or without a ``git`` binary), so records
    stay writable anywhere; ``repro.obs.watch`` uses the stamp to attribute
    a detected regression to a commit.  Computed once per session.
    """
    global _GIT_PROVENANCE
    if _GIT_PROVENANCE is not None:
        return _GIT_PROVENANCE
    provenance: dict = {}
    root = Path(__file__).resolve().parent.parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode == 0 and sha.stdout.strip():
            provenance["git_sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=root, capture_output=True, text=True, timeout=10,
            )
            if status.returncode == 0:
                provenance["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        provenance = {}
    _GIT_PROVENANCE = provenance
    return provenance


def _bench_timestamp() -> float:
    """One shared stamp per CI run (``BENCH_TIMESTAMP``), else now."""
    raw = os.environ.get("BENCH_TIMESTAMP", "").strip()
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return time.time()


@pytest.fixture(autouse=True)
def _record_benchmark(request):
    """Append one machine-readable perf record per benchmark test.

    Runs after every test in this directory that used the ``benchmark``
    fixture.  The record carries the measured elapsed time when timing ran
    (absent under ``--benchmark-disable``) plus everything the test attached
    via ``benchmark.extra_info`` — the convention here is ``throughput`` and
    ``elapsed_s`` from the test's own report, which survive even in disabled
    smoke runs.  Each record is also stamped with the current git SHA and a
    dirty-tree flag (best-effort: absent outside a git checkout) so
    ``repro.obs.watch`` can attribute regressions to commits.
    """
    if "benchmark" not in request.fixturenames:
        yield
        return
    # Materialised at setup: in teardown the fixture would already be gone.
    bench = request.getfixturevalue("benchmark")
    yield
    record = {
        "name": request.node.name,
        "timestamp": _bench_timestamp(),
        "timing_disabled": bool(bench.disabled),
        **_git_provenance(),
    }
    stats = getattr(bench, "stats", None)
    if stats is not None:
        record["elapsed"] = float(stats.stats.total)
    record.update(
        {key: value for key, value in bench.extra_info.items() if _json_native(value)}
    )
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    path = _bench_dir() / f"BENCH_{safe}.json"
    history = []
    try:
        history = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []
    history.append(record)
    path.write_text(
        json.dumps(history[-_BENCH_HISTORY_CAP:], indent=2) + "\n", encoding="utf-8"
    )


def _json_native(value) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments here are synthesis loops taking seconds to minutes, so
    repeating them for statistical timing would dominate the harness; a
    single measured round is enough to record the cost alongside the result.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def trajectory_case():
    """The Fig. 1 trajectory-tracking case study."""
    return get_case_study("trajectory")


@pytest.fixture(scope="session")
def vsc_case():
    """The §IV VSC case study."""
    return get_case_study("vsc")


@pytest.fixture(scope="session")
def trajectory_attack(trajectory_case):
    """Synthesized attack against the trajectory system (no residue detector)."""
    return synthesize_attack(trajectory_case.problem, threshold=None, backend="lp")


@pytest.fixture(scope="session")
def vsc_attack(vsc_case):
    """Synthesized attack against the VSC (existing monitors only) — Fig. 2."""
    return synthesize_attack(vsc_case.problem, threshold=None, backend="lp")


def _synthesize_all(case, max_rounds=500):
    problem = case.problem
    floor = case.extras["reproduction"]["min_threshold"]
    pivot = PivotThresholdSynthesizer(
        backend="lp", min_threshold=floor, max_rounds=max_rounds
    ).synthesize(problem)
    stepwise = StepwiseThresholdSynthesizer(
        backend="lp", min_threshold=floor, max_rounds=max_rounds
    ).synthesize(problem)
    static = StaticThresholdSynthesizer(backend="lp").synthesize(problem)
    relaxer = ThresholdRelaxer(backend="lp")
    return {
        "pivot": pivot,
        "stepwise": stepwise,
        "static": static,
        "pivot_relaxed": relaxer.relax(problem, pivot.threshold, verify_input=False),
        "stepwise_relaxed": relaxer.relax(problem, stepwise.threshold, verify_input=False),
    }


@pytest.fixture(scope="session")
def trajectory_synthesis(trajectory_case):
    """Thresholds synthesized for the trajectory system (Alg. 2, Alg. 3, static)."""
    return _synthesize_all(trajectory_case)


@pytest.fixture(scope="session")
def vsc_synthesis(vsc_case):
    """Thresholds synthesized for the VSC (Alg. 2, Alg. 3, static) — Fig. 3 / FAR study."""
    return _synthesize_all(vsc_case)


@pytest.fixture(scope="session")
def vsc_far_evaluator(vsc_case):
    """Benign-noise population for the §IV FAR study."""
    reproduction = vsc_case.extras["reproduction"]
    return FalseAlarmEvaluator(
        vsc_case.problem,
        noise_model=FalseAlarmEvaluator.default_noise_model(
            vsc_case.problem, scale=reproduction["far_noise_scale"]
        ),
        count=reproduction["far_count"],
        seed=0,
        initial_state_spread=reproduction["far_initial_state_spread"],
    )


def print_series(title: str, times: np.ndarray, series: dict[str, np.ndarray]) -> None:
    """Print a figure's data as aligned columns (the textual analogue of the plot)."""
    print(f"\n--- {title}")
    header = "t[s]".rjust(8) + "".join(label.rjust(18) for label in series)
    print(header)
    for index, t in enumerate(times):
        row = f"{t:8.3f}"
        for values in series.values():
            value = values[index] if index < len(values) else float("nan")
            row += f"{value:18.6g}"
        print(row)
