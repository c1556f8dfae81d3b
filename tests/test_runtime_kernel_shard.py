"""Shard determinism: ``workers``-independence of the fused engine, bit for bit.

The fused engine may carve the fleet into contiguous per-worker column
shards.  The sharding contract (``docs/runtime-kernel.md``) promises that
the observable output is independent of ``workers`` — traces, report
statistics and the alarm *event stream including its order* are bit-identical
for every worker count, in float64 and float32 alike.  The engine honours
that two ways: shard layouts the BLAS reproduces exactly run sharded
(verified by :func:`~repro.runtime.kernel.runner.probe_shard_stability`),
and layouts it would perturb are clamped to a single shard.  These tests
assert the contract over worker counts {1, 2, 7, N}, so they hold on every
BLAS regardless of which branch the probe picks.  In float64 every worker
count is compared against the independent per-step oracle
(``fleet_oracle`` in ``tests/conftest.py``); float32 has no oracle, so its
reference is the unsharded run.
"""

import numpy as np
import pytest

from repro.attacks.templates import BiasAttack
from repro.detectors.cusum import CusumDetector
from repro.registry import CASE_STUDIES
from repro.runtime.events import InMemorySink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack
from repro.runtime.kernel.runner import _shard_bounds

N_INSTANCES = 37
HORIZON = 50
WORKER_COUNTS = (1, 2, 7, N_INSTANCES)

TRACE_FIELDS = (
    "states",
    "estimates",
    "inputs",
    "measurements",
    "true_outputs",
    "residues",
)


@pytest.fixture(scope="module")
def quadtank_problem():
    return CASE_STUDIES.create("quadtank").problem


def _simulator(problem, sink, **engine):
    return FleetSimulator(
        problem.system,
        N_INSTANCES,
        HORIZON,
        detectors={
            "static": problem.static_threshold(0.1),
            "cusum": CusumDetector(bias=0.05, threshold=0.5),
        },
        x0=problem.x0,
        attacks=[ScheduledAttack(BiasAttack(bias=0.4), fraction=0.3, start=12)],
        sinks=[] if sink is None else [sink],
        seed=5,
        record_traces=True,
        metrics=False,
        **engine,
    )


def _run(problem, *, workers, dtype):
    sink = InMemorySink()
    simulator = _simulator(
        problem,
        sink,
        engine="fused",
        engine_options={"dtype": dtype, "workers": workers},
    )
    report = simulator.run()
    stats = {label: s.to_dict() for label, s in report.detectors.items()}
    return stats, simulator.trace, list(sink.events), report


def _reference(problem, fleet_oracle, dtype):
    """The float64 oracle, or the unsharded run in float32."""
    if dtype == "float64":
        stats, _, trace, events = fleet_oracle(_simulator(problem, None, engine="legacy"))
        return stats, trace, events
    return _run(problem, workers=1, dtype=dtype)[:3]


class TestWorkerIndependence:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_worker_count_matches_unsharded(
        self, quadtank_problem, fleet_oracle, dtype
    ):
        ref_stats, ref_trace, ref_events = _reference(quadtank_problem, fleet_oracle, dtype)
        for workers in WORKER_COUNTS:
            stats, trace, events, _ = _run(quadtank_problem, workers=workers, dtype=dtype)
            for field in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(trace, field), getattr(ref_trace, field)
                ), f"{field!r} diverged at workers={workers} ({dtype})"
            # Event identity AND order: sharding must not reorder alarms.
            assert events == ref_events, f"event stream diverged at workers={workers}"
            assert stats == ref_stats, f"stats diverged at workers={workers}"

    def test_effective_workers_never_exceed_the_fleet(self, quadtank_problem):
        report = _run(quadtank_problem, workers=500, dtype="float64")[3]
        assert 1 <= report.metadata["engine"]["workers"] <= N_INSTANCES

    def test_metadata_records_shard_stability_verdict(self, quadtank_problem):
        report = _run(quadtank_problem, workers=2, dtype="float64")[3]
        engine = report.metadata["engine"]
        assert isinstance(engine["shard_stable"], bool)
        if not engine["shard_stable"]:
            # An unstable verdict must have been enforced by the clamp.
            assert engine["workers"] == 1


class TestShardBounds:
    """The contiguous-carve helper the sharding contract is built on."""

    @pytest.mark.parametrize("n, workers", [(37, 1), (37, 2), (37, 7), (37, 37), (5, 8), (1, 4)])
    def test_bounds_are_contiguous_and_cover_the_fleet(self, n, workers):
        bounds = _shard_bounds(n, workers)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo, "shards must tile the instance axis contiguously"
        assert all(hi > lo for lo, hi in bounds)
        assert len(bounds) == min(workers, n)

    def test_shard_sizes_are_balanced(self):
        sizes = [hi - lo for lo, hi in _shard_bounds(37, 7)]
        assert max(sizes) - min(sizes) <= 1
