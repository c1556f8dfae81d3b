"""Tests for repro.obs.metrics: instruments, snapshots, merge, scoping."""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    timed,
    use_registry,
    use_thread_registry,
)
from repro.utils.validation import ValidationError


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_labels_and_totals():
    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("events_total", "events seen")
    counter.inc()
    counter.inc(2, detector="cusum")
    counter.inc(3, detector="cusum")
    counter.inc(4, detector="static")
    assert counter.value() == 1.0
    assert counter.value(detector="cusum") == 5.0
    assert counter.value(detector="static") == 4.0
    assert counter.value(detector="unknown") == 0.0
    assert counter.total() == 10.0


def test_counter_rejects_negative_increment():
    counter = MetricsRegistry(enabled=True).counter("events_total")
    with pytest.raises(ValidationError):
        counter.inc(-1)


def test_gauge_set_and_inc():
    gauge = MetricsRegistry(enabled=True).gauge("depth")
    gauge.set(7.0)
    assert gauge.value() == 7.0
    gauge.set(3.0)
    assert gauge.value() == 3.0
    gauge.inc(-1.5)
    assert gauge.value() == 1.5
    gauge.set(2.0, queue="alarms")
    assert gauge.value(queue="alarms") == 2.0
    assert gauge.value() == 1.5


def test_histogram_buckets_observations():
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    cell = histogram._values[()]
    assert cell["counts"] == [1, 2, 1, 1]  # three buckets + overflow
    assert histogram.count() == 5
    assert histogram.sum() == pytest.approx(56.05)
    assert histogram.total_count() == 5


def test_histogram_boundary_lands_in_lower_bucket():
    # Prometheus buckets are upper-inclusive: observe(le) counts into le's bucket.
    histogram = MetricsRegistry(enabled=True).histogram("h", buckets=(1.0, 2.0))
    histogram.observe(1.0)
    assert histogram._values[()]["counts"] == [1, 0, 0]


def test_histogram_validation():
    registry = MetricsRegistry(enabled=True)
    with pytest.raises(ValidationError):
        registry.histogram("empty", buckets=())
    with pytest.raises(ValidationError):
        registry.histogram("unsorted", buckets=(1.0, 1.0))


def test_default_buckets_are_strictly_increasing():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_instruments_are_idempotent_but_kind_checked():
    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("metric_total", "help text")
    assert registry.counter("metric_total") is counter
    with pytest.raises(ValidationError):
        registry.gauge("metric_total")
    histogram = registry.histogram("h", buckets=(1.0, 2.0))
    assert registry.histogram("h") is histogram
    assert registry.histogram("h", buckets=(1.0, 2.0)) is histogram
    with pytest.raises(ValidationError):
        registry.histogram("h", buckets=(1.0, 3.0))


def test_disabled_registry_records_nothing():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("events_total")
    gauge = registry.gauge("depth")
    histogram = registry.histogram("latency")
    counter.inc(5)
    gauge.set(3.0)
    histogram.observe(1.0)
    assert counter.total() == 0.0
    assert gauge.value() == 0.0
    assert histogram.total_count() == 0
    registry.enable()
    counter.inc(5)
    assert counter.total() == 5.0
    registry.disable()
    counter.inc(5)
    assert counter.total() == 5.0  # values kept, recording stopped


def test_reset_clears_values_but_keeps_instruments():
    registry = MetricsRegistry(enabled=True)
    registry.counter("a_total").inc(3)
    registry.gauge("b").set(1.0)
    registry.reset()
    assert registry.names() == ["a_total", "b"]
    assert registry.get("a_total").total() == 0.0
    assert registry.get("b").value() == 0.0
    assert registry.get("missing") is None


# ----------------------------------------------------------------------
# Snapshot / merge
# ----------------------------------------------------------------------
def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    registry.counter("events_total", "events").inc(3, detector="cusum")
    registry.counter("events_total").inc(1, detector="static")
    registry.gauge("depth", "queue depth").set(4.0)
    histogram = registry.histogram("latency_seconds", "latency", buckets=(0.1, 1.0))
    histogram.observe(0.05, stage="solve")
    histogram.observe(0.5, stage="solve")
    histogram.observe(5.0, stage="far")
    return registry


def test_snapshot_shape_is_deterministic_and_json_native():
    import json

    snap = _populated_registry().snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    assert snap["counters"]["events_total"]["values"] == [
        {"labels": {"detector": "cusum"}, "value": 3.0},
        {"labels": {"detector": "static"}, "value": 1.0},
    ]
    assert snap["histograms"]["latency_seconds"]["buckets"] == [0.1, 1.0]
    json.dumps(snap)  # must be JSON-native end to end
    assert snap == _populated_registry().snapshot()


def test_snapshot_includes_empty_instruments():
    registry = MetricsRegistry(enabled=True)
    registry.counter("silent_total", "never incremented")
    snap = registry.snapshot()
    assert snap["counters"]["silent_total"] == {
        "help": "never incremented",
        "values": [],
    }


def test_merge_adds_counters_and_histograms_overwrites_gauges():
    target = _populated_registry()
    target.merge(_populated_registry().snapshot())
    assert target.get("events_total").value(detector="cusum") == 6.0
    assert target.get("depth").value() == 4.0  # last-write-wins, not 8.0
    assert target.get("latency_seconds").count(stage="solve") == 4
    assert target.get("latency_seconds").sum(stage="solve") == pytest.approx(1.1)


def test_merge_into_empty_registry_reproduces_snapshot():
    snap = _populated_registry().snapshot()
    target = MetricsRegistry(enabled=True)
    target.merge(snap)
    assert target.snapshot() == snap


def test_merge_applies_even_when_disabled():
    # Merge moves already-recorded values between registries; the enabled
    # flag only gates *new* record calls.
    target = MetricsRegistry(enabled=False)
    target.merge(_populated_registry().snapshot())
    assert target.get("events_total").total() == 4.0


def test_merge_disjoint_metric_sets_is_a_union():
    # Merging registries with no metric in common simply unions them — the
    # multiprocessing-worker case where each worker touched different layers.
    left = MetricsRegistry(enabled=True)
    left.counter("left_total", "only here").inc(2)
    right = MetricsRegistry(enabled=True)
    right.gauge("right_depth", "only there").set(5.0)
    right.histogram("right_seconds", buckets=(1.0,)).observe(0.5)
    left.merge(right.snapshot())
    snap = left.snapshot()
    assert set(snap["counters"]) == {"left_total"}
    assert set(snap["gauges"]) == {"right_depth"}
    assert set(snap["histograms"]) == {"right_seconds"}
    assert left.get("left_total").total() == 2.0  # untouched by the merge
    assert left.get("right_depth").value() == 5.0
    assert left.get("right_seconds").count() == 1


def test_merge_gauge_last_write_wins_depends_on_ordering():
    # Gauges report most-recent state, so A.merge(B) and B.merge(A) disagree:
    # whichever snapshot is merged *in* wins. Counters stay symmetric.
    def fresh(gauge_value, counter_value):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("depth").set(gauge_value)
        registry.counter("steps_total").inc(counter_value)
        return registry

    a_then_b = fresh(1.0, 10.0)
    a_then_b.merge(fresh(2.0, 20.0).snapshot())
    b_then_a = fresh(2.0, 20.0)
    b_then_a.merge(fresh(1.0, 10.0).snapshot())
    assert a_then_b.get("depth").value() == 2.0
    assert b_then_a.get("depth").value() == 1.0
    assert a_then_b.get("steps_total").total() == 30.0
    assert b_then_a.get("steps_total").total() == 30.0


def test_merge_unions_disjoint_label_cells_of_one_metric():
    left = MetricsRegistry(enabled=True)
    left.counter("events_total").inc(3, detector="cusum")
    right = MetricsRegistry(enabled=True)
    right.counter("events_total").inc(4, detector="static")
    left.merge(right.snapshot())
    assert left.get("events_total").value(detector="cusum") == 3.0
    assert left.get("events_total").value(detector="static") == 4.0
    assert left.get("events_total").total() == 7.0


def test_merge_rejects_bucket_mismatch():
    snap = _populated_registry().snapshot()
    target = MetricsRegistry(enabled=True)
    target.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    with pytest.raises(ValidationError):
        target.merge(snap)


# ----------------------------------------------------------------------
# Module-level default, scoping, timing
# ----------------------------------------------------------------------
def test_default_registry_starts_disabled_and_use_registry_scopes():
    assert metrics_enabled() is False  # test suite runs without REPRO_METRICS
    scoped = MetricsRegistry(enabled=True)
    with use_registry(scoped) as active:
        assert active is scoped
        assert get_registry() is scoped
        get_registry().counter("scoped_total").inc()
    assert get_registry() is not scoped
    assert scoped.get("scoped_total").total() == 1.0
    assert get_registry().get("scoped_total") is None


def test_thread_registry_overrides_the_default_on_its_thread_only():
    scoped = MetricsRegistry(enabled=True)
    inner = MetricsRegistry(enabled=True)
    seen = []
    with use_thread_registry(scoped):
        assert get_registry() is scoped
        thread = threading.Thread(target=lambda: seen.append(get_registry()))
        thread.start()
        thread.join(timeout=10)
        with use_thread_registry(inner):
            assert get_registry() is inner
        assert get_registry() is scoped
        # A process-wide swap does not reach past this thread's override.
        with use_registry(MetricsRegistry(enabled=True)):
            assert get_registry() is scoped
    assert seen and seen[0] is not scoped
    assert get_registry() is not scoped


def test_thread_registries_merge_to_exact_totals():
    """Private per-thread registries, merged after the join, lose no increment.

    More threads than cores and a tiny switch interval make a lost
    read-modify-write likely if two threads shared an instrument.
    """
    threads_n, increments = 4, 20_000

    def work(registry: MetricsRegistry) -> None:
        with use_thread_registry(registry):
            counter = get_registry().counter("work_total")
            histogram = get_registry().histogram("work_seconds", buckets=(1.0,))
            for _ in range(increments):
                counter.inc(kind="a")
                histogram.observe(0.5)

    registries = [MetricsRegistry(enabled=True) for _ in range(threads_n)]
    threads = [threading.Thread(target=work, args=(r,)) for r in registries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    parent = MetricsRegistry(enabled=True)
    for registry in registries:
        parent.merge(registry.snapshot())
    assert parent.get("work_total").value(kind="a") == threads_n * increments
    assert parent.get("work_seconds").total_count() == threads_n * increments


def test_timed_observes_block_duration():
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("block_seconds", buckets=(10.0,))
    with timed(histogram, stage="quick"):
        pass
    assert histogram.count(stage="quick") == 1
    assert 0.0 <= histogram.sum(stage="quick") < 10.0


def test_timed_observes_even_when_block_raises():
    registry = MetricsRegistry(enabled=True)
    histogram = registry.histogram("block_seconds", buckets=(10.0,))
    with pytest.raises(RuntimeError):
        with timed(histogram):
            raise RuntimeError("boom")
    assert histogram.count() == 1


def test_env_variable_enables_fresh_process_registry():
    import os
    import subprocess
    import sys

    script = (
        "from repro.obs import metrics_enabled\n"
        "print(metrics_enabled())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "REPRO_METRICS": "1"},
        check=True,
    )
    assert out.stdout.strip() == "True"


# ----------------------------------------------------------------------
# Cross-process shipping (the BatchRunner worker pattern)
# ----------------------------------------------------------------------
def _worker_snapshot(n: int) -> dict:
    """Record ``n`` events into a scoped registry and ship its snapshot."""
    scoped = MetricsRegistry(enabled=True)
    with use_registry(scoped):
        get_registry().counter("worker_events_total", "per-worker events").inc(
            n, worker=str(n)
        )
        get_registry().histogram("worker_seconds", buckets=(1.0,)).observe(0.5)
    return scoped.snapshot()


def test_snapshots_merge_across_multiprocessing_workers():
    with multiprocessing.get_context("fork").Pool(2) as pool:
        snapshots = pool.map(_worker_snapshot, [1, 2, 3])
    parent = MetricsRegistry(enabled=True)
    for snap in snapshots:
        parent.merge(snap)
    counter = parent.get("worker_events_total")
    assert counter.total() == 6.0
    assert counter.value(worker="2") == 2.0
    assert parent.get("worker_seconds").total_count() == 3
