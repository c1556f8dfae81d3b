"""Alarm bookkeeping: the one-index tally against a step-ordered oracle.

The fleet simulator hands its ``(T, N)`` alarm stacks to
:class:`~repro.runtime.report.AlarmTally`, which takes one ``flatnonzero``
alarm index per detector, derives every count and first index from it and
emits slices of it as column-backed
:class:`~repro.runtime.events.AlarmBatch` objects.  The reference is the
step-ordered loop the fleet ran before (``alarm_oracle.step_ordered_oracle``),
and the properties check the tally against it on random stacks — across
the stepping loop's block edges, all-quiet and all-alarming — attack masks,
starts and sink retention caps: counts, first indices, benign alarm-steps,
the full event stream (order, ``first`` flags and per-step batching), the
column contract of every emitted batch and the alarm counter's value at
each batch.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np
import pytest
from alarm_oracle import step_ordered_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.obs.metrics import MetricsRegistry
from repro.runtime.events import AlarmBatch, AlarmEvent, EventSink, InMemorySink, JSONLSink
from repro.runtime.report import AlarmTally, build_detector_stats
from repro.serve.backpressure import POLICIES, BufferedSink
from repro.utils.validation import ValidationError


class EagerSink(EventSink):
    """The pre-batch ``InMemorySink``: extends a list/deque on every emit."""

    def __init__(self, maxlen=None):
        self.maxlen = maxlen
        self.events = [] if maxlen is None else deque(maxlen=maxlen)
        self.evicted = 0

    def emit(self, events):
        if self.maxlen is not None:
            overflow = len(self.events) + len(events) - self.maxlen
            if overflow > 0:
                self.evicted += overflow
        self.events.extend(events)


class BatchRecorder(EventSink):
    """Keeps every emitted batch object as received."""

    def __init__(self):
        self.batches = []

    def emit(self, events):
        self.batches.append(events)


class CounterReader(EventSink):
    """Reads a counter's per-detector values at every emitted batch."""

    def __init__(self, counter):
        self.counter = counter
        self.seen = []

    def emit(self, events):
        self.seen.append(dict(self.counter._values))


def _alarm_counter():
    return MetricsRegistry().counter("fleet_alarms_total", help="Detector alarms.")


@st.composite
def fleets(draw):
    """Random alarm stacks with an attack mask and per-instance starts.

    Horizons reach past two 32-step blocks of the stepping loop; a stack
    may be all quiet or all alarming, and starts favour the horizon's ends.
    """
    T = draw(st.integers(1, 70))
    N = draw(st.integers(1, 40))
    n_labels = draw(st.integers(0, 3))
    stack = st.one_of(
        hnp.arrays(bool, (T, N)),
        st.booleans().map(lambda value: np.full((T, N), value)),
    )
    stacks = {f"det-{index}": draw(stack) for index in range(n_labels)}
    attacked = draw(hnp.arrays(bool, N))
    start = st.one_of(st.sampled_from([0, T]), st.integers(0, T))
    starts = draw(hnp.arrays(np.int64, N, elements=start))
    attack_start = np.where(attacked, starts, T)
    return T, stacks, attacked, attack_start


class TestTallyMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(fleet=fleets(), maxlen=st.one_of(st.none(), st.integers(1, 40)))
    def test_counts_firsts_and_event_stream(self, fleet, maxlen):
        T, stacks, attacked, attack_start = fleet
        expected_batches, eager = BatchRecorder(), EagerSink(maxlen)
        expected_counter = _alarm_counter()
        expected_reads = CounterReader(expected_counter)
        counts, benign, first_alarm, first_detection = step_ordered_oracle(
            stacks,
            attacked,
            attack_start,
            sinks=[expected_batches, eager, expected_reads],
            counter=expected_counter,
        )

        tally = AlarmTally(stacks, attacked, attack_start, T)
        counter = _alarm_counter()
        batches, lazy, reads = BatchRecorder(), InMemorySink(maxlen), CounterReader(counter)
        tally.publish([batches, lazy, reads], counter=counter)

        assert tally.alarm_counts == counts
        assert tally.benign_alarm_steps == benign
        for label in stacks:
            assert np.array_equal(tally.first_alarm[label], first_alarm[label])
            assert np.array_equal(tally.first_detection[label], first_detection[label])
        # Same batching (one per step and detector), same order, same flags.
        assert all(isinstance(batch, AlarmBatch) for batch in batches.batches)
        assert [list(batch) for batch in batches.batches] == expected_batches.batches
        assert [len(batch) for batch in batches.batches] == [
            len(batch) for batch in expected_batches.batches
        ]
        assert len(lazy) == len(eager.events)
        assert list(lazy.events) == list(eager.events)
        assert lazy.evicted == eager.evicted
        # The counter holds the same per-detector values at every batch.
        assert reads.seen == expected_reads.seen
        assert dict(counter._values) == dict(expected_counter._values)
        # Batches built without per-batch checks keep the public contract.
        for batch in batches.batches:
            for column, dtype in (
                (batch.instance, np.int64),
                (batch.step, np.int64),
                (batch.first, np.bool_),
            ):
                assert column.dtype == dtype and column.ndim == 1
                assert not column.flags.writeable
            assert batch.instance.shape == batch.step.shape == batch.first.shape

    @settings(max_examples=60, deadline=None)
    @given(fleet=fleets())
    def test_stats_match_oracle_stats(self, fleet):
        T, stacks, attacked, attack_start = fleet
        counts, benign, first_alarm, first_detection = step_ordered_oracle(
            stacks, attacked, attack_start
        )
        tally = AlarmTally(stacks, attacked, attack_start, T)
        for label in stacks:
            expected = build_detector_stats(
                label=label,
                first_alarm=first_alarm[label],
                first_detection=first_detection[label],
                alarm_count=counts[label],
                benign_alarm_steps=benign[label],
                attacked_mask=attacked,
                attack_start=attack_start,
                horizon=T,
            )
            assert tally.stats(label) == expected


class TestInMemorySinkRetention:
    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 7), max_size=12),
        reads=st.lists(st.booleans(), min_size=12, max_size=12),
        maxlen=st.one_of(st.none(), st.integers(1, 10)),
    )
    def test_lazy_sink_matches_eager_sink_under_interleaved_reads(
        self, sizes, reads, maxlen
    ):
        lazy, eager = InMemorySink(maxlen), EagerSink(maxlen)
        step = 0
        for size, read in zip(sizes, reads):
            instances = np.arange(size)
            batch = AlarmBatch(
                "a", instances, np.full(size, step), instances % 2 == 0
            )
            step += 1
            lazy.emit(batch)
            eager.emit(list(batch))
            assert len(lazy) == len(eager.events)
            assert lazy.evicted == eager.evicted
            if read:
                assert list(lazy.events) == list(eager.events)
        assert list(lazy) == list(eager.events)
        assert type(lazy.events) is type(eager.events)

    def test_events_keeps_its_identity_across_reads(self):
        sink = InMemorySink()
        sink.emit([AlarmEvent(0, 1, "a")])
        events = sink.events
        sink.emit(AlarmBatch("a", np.array([2]), np.array([3]), np.array([True])))
        assert sink.events is events
        assert events == [AlarmEvent(0, 1, "a"), AlarmEvent(2, 3, "a", first=True)]

    def test_plain_lists_are_copied_at_emit(self):
        sink = InMemorySink()
        batch = [AlarmEvent(0, 1, "a")]
        sink.emit(batch)
        batch.append(AlarmEvent(1, 1, "a"))
        assert len(sink) == 1 and sink.events == [AlarmEvent(0, 1, "a")]


class TestBufferedSinkWithBatches:
    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(0, 9), max_size=15), capacity=st.integers(1, 8))
    def test_accounting_invariant_holds(self, policy, sizes, capacity):
        inner = InMemorySink()
        sink = BufferedSink(inner, capacity=capacity, policy=policy)
        for step, size in enumerate(sizes):
            instances = np.arange(size)
            sink.emit(AlarmBatch("a", instances, np.full(size, step), instances == 0))
            assert sink.emitted == sink.forwarded + sink.dropped + len(sink)
        sink.close()
        assert sink.emitted == sink.forwarded + sink.dropped
        assert len(inner) == sink.forwarded
        assert all(isinstance(event, AlarmEvent) for event in inner.events)


class TestAlarmBatch:
    def test_sequence_protocol_builds_events_on_demand(self):
        batch = AlarmBatch(
            "cusum", np.array([1, 4, 6]), np.array([9, 9, 9]), np.array([True, False, True])
        )
        assert len(batch) == 3
        assert batch[1] == AlarmEvent(4, 9, "cusum", first=False)
        assert batch[-1] == AlarmEvent(6, 9, "cusum", first=True)
        assert list(batch[1:]) == [batch[1], batch[2]]
        assert AlarmEvent(1, 9, "cusum", first=True) in batch
        assert type(batch[0].instance) is int and type(batch[0].first) is bool
        with pytest.raises(IndexError):
            batch[3]

    def test_columns_take_event_field_types(self):
        (event,) = AlarmBatch("a", [3], [4], [1])
        assert event == AlarmEvent(3, 4, "a", first=True)
        assert type(event.first) is bool and type(event.instance) is int

    def test_columns_are_read_only(self):
        batch = AlarmBatch("a", np.array([0]), np.array([0]), np.array([False]))
        with pytest.raises(ValueError):
            batch.instance[0] = 5

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValidationError):
            AlarmBatch("a", np.array([0, 1]), np.array([0]), np.array([False]))


class TestJSONLWithBatches:
    @settings(max_examples=50, deadline=None)
    @given(
        size=st.integers(0, 30),
        label=st.sampled_from(['static', 'q"uote\\back\nslash', "café %s {0}", "☃"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_writes_the_same_lines_as_its_event_list(self, tmp_path_factory, size, label, seed):
        rng = np.random.default_rng(seed)
        batch = AlarmBatch(
            label,
            np.sort(rng.choice(10**6, size=size, replace=False)),
            np.full(size, int(rng.integers(0, 10**5))),
            rng.random(size) < 0.5,
        )
        directory = tmp_path_factory.mktemp("jsonl")
        from_batch, from_list = directory / "batch.jsonl", directory / "list.jsonl"
        with JSONLSink(from_batch) as sink:
            sink.emit(batch)
        with JSONLSink(from_list) as sink:
            sink.emit(list(batch))
        expected = "".join(json.dumps(event.to_dict()) + "\n" for event in batch)
        if size:
            assert from_batch.read_bytes() == from_list.read_bytes() == expected.encode("utf-8")
            assert JSONLSink.read(from_batch) == list(batch)
        else:
            assert not from_batch.exists() and not from_list.exists()
