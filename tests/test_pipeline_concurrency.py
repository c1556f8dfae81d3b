"""``run_pipeline``'s side-by-side algorithms against the sequential oracle.

``run_pipeline`` runs each algorithm (and its relaxation pass) on its own
forked session on a worker thread, or — with one usable CPU, a GIL-holding
backend, a pool worker process or a wall-clock budget — one after another
on the calling thread's session.  The contract: the report equals the
one-thread, one-shared-session pipeline of
:func:`synthesis_oracle.sequential_pipeline` field for field on all six case
studies, whatever the worker count; the per-algorithm solve counts and the
merged metrics repeat exactly; a failing algorithm's exception reaches the
caller with no thread left running and the other algorithms' metrics
merged.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from synthesis_oracle import sequential_pipeline

from repro import get_case_study
from repro.api import FARConfig, SynthesisConfig, run_pipeline
from repro.api import execute
from repro.core.session import SynthesisSession
from repro.core.static_synthesis import StaticThresholdSynthesizer
from repro.falsification.optimizer import OptimizationFalsifier
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.registry import SYNTHESIZERS
from repro.utils import cpus

CASE_STUDIES = ("cruise", "dcmotor", "pendulum", "quadtank", "trajectory", "vsc")

CONFIG = SynthesisConfig(
    algorithms=("pivot", "stepwise", "static"), backend="lp", relax={"floor": 1.0}
)

# No pfc/mdc filter: short-horizon dcmotor keeps no benign trace under them.
FAR = FARConfig(count=50, seed=0, filter_pfc=False, filter_mdc=False)

COUNTERS = (
    "synthesis_solves_total",
    "synthesis_memo_hits_total",
    "synthesis_witness_hits_total",
)


@pytest.fixture(scope="module")
def problems():
    return {case: get_case_study(case).problem for case in CASE_STUDIES}


def _threshold_values(threshold):
    return None if threshold is None else threshold.values


def assert_same_report(expected, got):
    """Raw and relaxed vectors bitwise, loop outcomes, relaxation and FAR rates."""
    assert expected.vulnerability.status == got.vulnerability.status
    assert list(expected.synthesis) == list(got.synthesis)
    for name, want in expected.synthesis.items():
        have = got.synthesis[name]
        np.testing.assert_array_equal(
            _threshold_values(want.threshold), _threshold_values(have.threshold)
        )
        assert (want.converged, want.status, want.rounds) == (
            have.converged,
            have.status,
            have.rounds,
        ), name
    assert list(expected.relaxation) == list(got.relaxation)
    for name, want in expected.relaxation.items():
        have = got.relaxation[name]
        np.testing.assert_array_equal(
            _threshold_values(want.threshold), _threshold_values(have.threshold)
        )
        for field in ("certified", "raised_instants", "floored_instants", "rounds"):
            assert getattr(want, field) == getattr(have, field), (name, field)
    if expected.far_study is None:
        assert got.far_study is None
    else:
        assert expected.far_study.rates == got.far_study.rates
        assert expected.far_study.kept == got.far_study.kept


@pytest.mark.parametrize("case", CASE_STUDIES)
def test_matches_sequential_shared_session_oracle(problems, case):
    problem = problems[case]
    assert_same_report(
        sequential_pipeline(problem, CONFIG, FAR), run_pipeline(problem, CONFIG, FAR)
    )


def _no_fork(self):
    raise AssertionError("one worker must run on the calling thread's session")


def test_one_usable_cpu_gives_the_same_report_on_one_session(problems, monkeypatch):
    problem = problems["quadtank"]
    expected = run_pipeline(problem, CONFIG, FAR)
    monkeypatch.setattr(cpus.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(SynthesisSession, "fork", _no_fork)
    assert cpus.default_workers() == 1
    assert_same_report(expected, run_pipeline(problem, CONFIG, FAR))


def test_budgeted_runs_match_the_sequential_oracle_on_one_session(monkeypatch):
    """A wall-clock budget is never shared between loops running side by side."""
    config = SynthesisConfig(
        algorithms=("pivot", "stepwise", "static"),
        backend="lp",
        time_budget_per_call=60.0,
        relax={"floor": 1.0},
    )
    problem = get_case_study("trajectory", horizon=8).problem
    expected = sequential_pipeline(problem, config, FAR)
    monkeypatch.setattr(SynthesisSession, "fork", _no_fork)
    assert_same_report(expected, run_pipeline(problem, config, FAR))


class _RecordingPool(ThreadPoolExecutor):
    sizes: list[int] = []

    def __init__(self, max_workers=None, **kwargs):
        _RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


@pytest.mark.parametrize(
    "usable, algorithms, pools",
    [
        ({0, 1, 2, 3}, ("pivot", "stepwise", "static"), [3]),
        ({0, 1}, ("pivot", "stepwise", "static"), [2]),
        ({0}, ("pivot", "stepwise", "static"), []),
        ({0, 1, 2, 3}, ("static",), []),
    ],
)
def test_worker_count_is_algorithms_capped_by_usable_cpus(
    problems, monkeypatch, usable, algorithms, pools
):
    monkeypatch.setattr(cpus.os, "sched_getaffinity", lambda pid: usable, raising=False)
    monkeypatch.setattr(execute, "ThreadPoolExecutor", _RecordingPool)
    _RecordingPool.sizes = []
    run_pipeline(problems["trajectory"], SynthesisConfig(algorithms=algorithms, backend="lp"))
    assert _RecordingPool.sizes == pools


def test_one_worker_where_side_by_side_loops_cannot_gain(monkeypatch):
    fresh = ["pivot", "stepwise", "static"]
    monkeypatch.setattr(execute, "default_workers", lambda: 4)
    lp = SynthesisConfig(backend="lp")
    assert execute._synthesis_workers(lp, lp.build_backend(), fresh) == 3
    budgeted = SynthesisConfig(backend="lp", time_budget_per_call=5.0)
    assert execute._synthesis_workers(budgeted, budgeted.build_backend(), fresh) == 1
    # The simulation-based falsifier holds the GIL for its whole search.
    assert execute._synthesis_workers(lp, OptimizationFalsifier(), fresh) == 1
    # A batch pool worker: its pool already runs one process per CPU.
    monkeypatch.setattr(execute.multiprocessing, "parent_process", lambda: object())
    assert execute._synthesis_workers(lp, lp.build_backend(), fresh) == 1


def test_default_workers_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(cpus.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cpus.os, "cpu_count", lambda: 3)
    assert cpus.default_workers() == 3


def _solves_per_algorithm(problem) -> dict[str, int]:
    """Backend solves under each ``pipeline.synthesis`` span, by algorithm."""
    tracer = Tracer(enabled=True)
    with use_tracer(tracer), tracer.span("caller"):
        run_pipeline(problem, CONFIG)
    by_id = {record.span_id: record for record in tracer.records}
    counts: dict[str, int] = {}
    for record in tracer.records:
        if record.name != "synthesis.solve":
            continue
        parent = by_id[record.parent_id]
        if parent.name == "pipeline.synthesis":
            algorithm = parent.labels["algorithm"]
            counts[algorithm] = counts.get(algorithm, 0) + 1
    return counts


@pytest.mark.parametrize("case", ["dcmotor", "quadtank"])
def test_per_algorithm_solve_counts_repeat(problems, case):
    runs = [_solves_per_algorithm(problems[case]) for _ in range(3)]
    assert set(runs[0]) == {"pivot", "stepwise", "static"}
    assert runs[0] == runs[1] == runs[2]


def _counter_cells(registry) -> dict[str, dict]:
    snapshot = registry.snapshot()["counters"]
    return {
        name: {
            tuple(sorted(cell["labels"].items())): cell["value"]
            for cell in snapshot.get(name, {"values": []})["values"]
        }
        for name in COUNTERS
    }


def _per_algorithm_sums(problem, algorithms=CONFIG.algorithms) -> dict[str, dict]:
    """The counters of the vulnerability solve plus each algorithm alone on a fork."""
    registries = [MetricsRegistry(enabled=True)]
    with use_registry(registries[0]):
        session = SynthesisSession(problem, backend=CONFIG.build_backend())
        session.solve(None)
    relaxer = CONFIG.build_relaxer(backend=session.solver)
    for name in algorithms:
        registries.append(MetricsRegistry(enabled=True))
        with use_registry(registries[-1]):
            fork = session.fork()
            synthesizer = CONFIG.build_synthesizer(name, backend=session.solver)
            result = synthesizer.synthesize(problem, session=fork)
            relaxer.relax(
                problem,
                result.threshold,
                verify_input=CONFIG.relax.verify_input,
                session=fork,
            )
    total = MetricsRegistry(enabled=True)
    for registry in registries:
        total.merge(registry.snapshot())
    return _counter_cells(total)


def test_merged_metrics_equal_per_algorithm_sums_and_repeat(problems, monkeypatch):
    monkeypatch.setattr(execute, "default_workers", lambda: 3)
    problem = problems["dcmotor"]
    expected = _per_algorithm_sums(problem)
    assert expected["synthesis_witness_hits_total"]
    for _ in range(3):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            run_pipeline(problem, CONFIG)
        assert _counter_cells(registry) == expected


def test_disabled_registry_records_nothing(problems):
    registry = MetricsRegistry(enabled=False)
    with use_registry(registry):
        run_pipeline(problems["trajectory"], CONFIG)
    assert all(not cells for cells in _counter_cells(registry).values())


class _Raising:
    """Plugin synthesizer that fails with its registered message."""

    message = ""

    def __init__(self, backend="lp", **_):
        self.backend = backend

    def synthesize(self, problem, session=None):
        raise RuntimeError(self.message)


def test_first_failing_algorithm_in_order_propagates(problems, monkeypatch):
    monkeypatch.setattr(execute, "default_workers", lambda: 3)
    first = type("RaiseFirst", (_Raising,), {"message": "first"})
    second = type("RaiseSecond", (_Raising,), {"message": "second"})
    SYNTHESIZERS.register("raise-first-test")(first)
    SYNTHESIZERS.register("raise-second-test")(second)
    threads = threading.active_count()
    try:
        with pytest.raises(RuntimeError, match="^first$"):
            run_pipeline(
                problems["trajectory"],
                SynthesisConfig(
                    algorithms=("stepwise", "raise-first-test", "raise-second-test"),
                    backend="lp",
                ),
                FAR,
            )
    finally:
        SYNTHESIZERS.unregister("raise-first-test")
        SYNTHESIZERS.unregister("raise-second-test")
    assert threading.active_count() == threads


def test_finished_algorithms_metrics_are_merged_when_another_raises(
    problems, monkeypatch
):
    monkeypatch.setattr(execute, "default_workers", lambda: 2)
    problem = problems["dcmotor"]
    expected = _per_algorithm_sums(problem, ("stepwise",))
    SYNTHESIZERS.register("raise-first-test")(type("RaiseFirst", (_Raising,), {"message": "first"}))
    registry = MetricsRegistry(enabled=True)
    try:
        with use_registry(registry), pytest.raises(RuntimeError, match="^first$"):
            run_pipeline(
                problem,
                SynthesisConfig(
                    algorithms=("raise-first-test", "stepwise"),
                    backend="lp",
                    relax={"floor": 1.0},
                ),
            )
    finally:
        SYNTHESIZERS.unregister("raise-first-test")
    assert _counter_cells(registry) == expected


def test_synthesizer_without_session_parameter_runs_beside_the_others(problems, monkeypatch):
    monkeypatch.setattr(execute, "default_workers", lambda: 2)
    class OldStyleSynthesizer:
        def __init__(self, backend="lp", **_):
            self.backend = backend

        def synthesize(self, problem):  # no session kwarg
            return StaticThresholdSynthesizer(backend=self.backend).synthesize(problem)

    problem = problems["trajectory"]
    SYNTHESIZERS.register("old-style-concurrent-test")(OldStyleSynthesizer)
    try:
        report = run_pipeline(
            problem,
            SynthesisConfig(
                algorithms=("stepwise", "old-style-concurrent-test"), backend="lp"
            ),
        )
    finally:
        SYNTHESIZERS.unregister("old-style-concurrent-test")
    alone = StaticThresholdSynthesizer(backend="lp").synthesize(problem)
    np.testing.assert_array_equal(
        report.synthesis["old-style-concurrent-test"].threshold.values,
        alone.threshold.values,
    )
    assert set(report.synthesis) == {"stepwise", "old-style-concurrent-test"}
