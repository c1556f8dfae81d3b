"""Tests for the service event log and the deterministic replay driver."""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ServiceConfig, replay, run_service
from repro.detectors.threshold import ThresholdVector
from repro.runtime.events import InMemorySink
from repro.serve import EVENT_KINDS, MonitorService, ServiceEvent, ServiceLog
from repro.utils.validation import ValidationError


class TestServiceEvent:
    def test_round_trips_through_dict(self):
        event = ServiceEvent(
            seq=4, kind="alarm", instance=2, step=9, data={"detector": "static"}
        )
        assert ServiceEvent.from_dict(event.to_dict()) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            ServiceEvent(seq=0, kind="mystery")


class TestServiceLog:
    def test_in_memory_append_assigns_sequence(self):
        log = ServiceLog()
        first = log.append("start")
        second = log.append("attach", instance=0)
        assert (first.seq, second.seq) == (0, 1)
        assert len(log) == 2 and list(log) == [first, second]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "service.jsonl"
        with ServiceLog(path) as log:
            log.append("start", data={"metadata": {"x": 1}})
            log.append("measurement", instance=0, data={"measurement": [0.5]})
        loaded = ServiceLog.read(path)
        assert loaded == log.events

    def test_truncated_tail_dropped_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "service.jsonl"
        with ServiceLog(path) as log:
            for _ in range(3):
                log.append("round")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "ro')  # killed mid-append
        assert len(ServiceLog.read(path)) == 3

        lines = path.read_text().splitlines()
        lines[1] = "{corrupt interior}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            ServiceLog.read(path)

    def test_negative_flush_every_rejected(self):
        with pytest.raises(ValidationError):
            ServiceLog(flush_every=-1)

    def test_events_view_is_read_only_and_cached_until_the_next_append(self):
        log = ServiceLog()
        log.append("measurement", instance=0, data={"measurement": [0.5]})
        view = log.events
        assert log.events is view
        with pytest.raises(TypeError):
            view[0] = None
        log.append("round")
        assert log.events is not view and len(log.events) == 2 and len(view) == 1

    def test_snapshot_caches_nothing_and_reuses_a_cached_view(self):
        log = ServiceLog()
        log.append("measurement", instance=0, data={"measurement": [0.5]})
        log.append("round")
        snapshot = log.snapshot()
        assert log._view is None and snapshot == tuple(log.events)
        # A second full copy of the events is what the snapshot avoids.
        assert all(a is b for a, b in zip(log.snapshot(), log.events))

    def test_logged_measurements_leave_no_tracked_objects(self):
        # Each logged sample used to keep its event tuple, data dict and
        # float list alive, about 3000 objects for the cyclic collector to
        # walk per 1000 samples.  The columns hold floats, not objects.
        log = ServiceLog()
        log.append("start")
        gc.collect()
        before = len(gc.get_objects())
        for k in range(1000):
            log.append(
                "measurement",
                instance=k % 10,
                data={"measurement": [float(k)], "residue": [0.5]},
            )
            log.append("measurement", instance=k % 10, data={"measurement": [1.0, 2.0]})
        gc.collect()
        assert len(gc.get_objects()) - before < 50


_finite = st.floats(allow_nan=False)
_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _finite, st.text(max_size=4)
)
_json_payload = st.dictionaries(
    st.text(max_size=6), st.one_of(_json_scalar, st.lists(_json_scalar, max_size=3)), max_size=3
)
_instance = st.one_of(st.none(), st.integers(0, 2**63 - 1), st.integers(-5, -1), st.just(2**64))


@st.composite
def _measurement_payload(draw):
    """Column-shaped payloads, and near misses the columns must not take."""
    width = draw(st.integers(0, 4))
    floats = st.lists(_finite, min_size=width, max_size=width)
    shape = draw(
        st.sampled_from(
            ["plain", "residue", "residue first", "other width", "extra key", "non-float", "wide"]
        )
    )
    if shape == "plain":
        return {"measurement": draw(floats)}
    if shape == "residue":
        return {"measurement": draw(floats), "residue": draw(floats)}
    if shape == "residue first":
        return {"residue": draw(floats), "measurement": draw(floats)}
    if shape == "other width":
        return {"measurement": draw(floats), "residue": draw(floats) + [1.0]}
    if shape == "extra key":
        return {"measurement": draw(floats), draw(st.text(max_size=3)): draw(_json_scalar)}
    if shape == "non-float":
        values = draw(st.lists(st.one_of(_finite, _json_scalar), min_size=1, max_size=4))
        return {"measurement": values}
    return {"measurement": [0.25] * 200}


_appends = st.lists(
    st.one_of(
        st.tuples(
            st.just("measurement"),
            _instance,
            st.one_of(st.none(), st.integers(0, 9)),
            st.one_of(_measurement_payload(), st.none()),
        ),
        st.tuples(
            st.sampled_from([kind for kind in EVENT_KINDS if kind != "measurement"]),
            st.one_of(st.none(), st.integers(0, 99)),
            st.one_of(st.none(), st.integers(0, 99)),
            st.one_of(_json_payload, st.none()),
        ),
    ),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(appends=_appends)
def test_columnar_log_round_trips_every_event_shape(appends, tmp_path_factory):
    """The rebuilt events, the JSONL lines and the read-back file all agree."""
    path = tmp_path_factory.mktemp("log") / "service.jsonl"
    with ServiceLog(path) as log:
        returned = [
            log.append(kind, instance=instance, step=step, data=data)
            for kind, instance, step, data in appends
        ]
    assert len(log) == len(returned)
    assert log.events == returned and list(log) == returned
    assert [event.seq for event in log.events] == list(range(len(returned)))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(event.to_dict()) for event in log.events]
    assert ServiceLog.read(path) == log.events


def _drive(service, problem, steps=15, seed=0):
    """Attach two instances and push a fixed random measurement stream."""
    rng = np.random.default_rng(seed)
    m = problem.system.plant.n_outputs
    a = service.attach()
    b = service.attach()
    for k in range(steps):
        service.ingest(a, rng.normal(size=m))
        service.ingest(b, rng.normal(size=m))
        if k == steps // 2:
            service.detach(a)
            a = service.attach()
    return service


class TestReplay:
    def test_replay_reproduces_alarms_bit_identically(self, dcmotor_problem):
        config = ServiceConfig(static_thresholds={"static": 0.5})
        sink = InMemorySink()
        service = _drive(
            run_service(config, problem=dcmotor_problem, sinks=[sink]), dcmotor_problem
        )
        assert sink.events, "the scenario must raise alarms"
        result = replay(service.log, problem=dcmotor_problem)
        assert result.matches
        assert result.recorded == list(sink.events)

    def test_replay_leaves_only_the_columns_on_the_log(self, dcmotor_problem):
        # A replay used to cache its rebuilt event view on the log, holding
        # a tuple, dict and float list per logged sample until the next
        # append, which a closed log never gets.
        config = ServiceConfig(static_thresholds={"static": 0.5})
        service = run_service(config, problem=dcmotor_problem)
        _drive(service, dcmotor_problem, steps=2000)
        service.close()
        log = service.log
        columns = len(log._codes) + sum(
            len(column) * column.itemsize for column in (log._instances, log._floats)
        )
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = replay(log, problem=dcmotor_problem)
            assert result.matches
            del result
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < columns, f"{held} bytes held after replay, columns take {columns}"
        assert log._view is None

    def test_replay_standalone_from_log_file(self, tmp_path):
        # With case_study in the config, the recorded file is self-contained:
        # replay rebuilds problem, bank and service with no other context.
        path = tmp_path / "service.jsonl"
        config = ServiceConfig(
            case_study="dcmotor", static_thresholds={"static": 0.5}, log_path=str(path)
        )
        service = run_service(config)
        from repro import get_case_study

        _drive(service, get_case_study("dcmotor").problem)
        service.close()
        result = replay(path)
        assert result.matches and result.recorded

    def test_logs_recorded_with_an_engine_choice_still_replay(self, tmp_path):
        # Logs written while ServiceConfig still carried an engine name keep
        # it in their start config; replay drops the two keys.
        path = tmp_path / "service.jsonl"
        config = ServiceConfig(
            case_study="dcmotor", static_thresholds={"static": 0.5}, log_path=str(path)
        )
        sink = InMemorySink()
        service = run_service(config, sinks=[sink])
        from repro import get_case_study

        _drive(service, get_case_study("dcmotor").problem)
        service.close()
        lines = path.read_text().splitlines()
        start = json.loads(lines[0])
        assert start["kind"] == "start"
        start["data"]["metadata"]["config"].update(engine="legacy", engine_options={})
        lines[0] = json.dumps(start)
        path.write_text("\n".join(lines) + "\n")

        result = replay(path)
        assert sink.events, "the scenario must raise alarms"
        assert result.matches
        assert result.replayed == list(sink.events)

    def test_replay_reproduces_drop_oldest_evictions(self, dcmotor_problem):
        config = ServiceConfig(
            static_thresholds={"static": 0.5},
            ring_capacity=2,
            overflow="drop-oldest",
            auto_drain=False,
        )
        service = run_service(config, problem=dcmotor_problem)
        service.attach()
        rng = np.random.default_rng(1)
        m = dcmotor_problem.system.plant.n_outputs
        for _ in range(5):
            service.ingest(0, rng.normal(size=m) * 2)
        service.drain()  # only the 2 surviving samples
        assert service.rounds_processed == 2 and service.samples_dropped == 3
        result = replay(service.log, problem=dcmotor_problem)
        assert result.matches
        assert result.service.samples_dropped == 3

    def test_replay_reapplies_threshold_swaps(self, dcmotor_problem):
        config = ServiceConfig(static_thresholds={"static": 10.0})
        service = run_service(config, problem=dcmotor_problem)
        service.attach()
        rng = np.random.default_rng(2)
        m = dcmotor_problem.system.plant.n_outputs
        for _ in range(5):
            service.ingest(0, rng.normal(size=m))
        service.swap_thresholds(
            {"static": ThresholdVector(np.full(dcmotor_problem.horizon, 1e-6))}
        )
        for _ in range(5):
            service.ingest(0, rng.normal(size=m))
        result = replay(service.log, problem=dcmotor_problem)
        assert result.matches
        # The swap must actually have fired alarms post-swap.
        assert {event.step for event in result.recorded} >= {5}

    def test_monitor_swaps_are_not_replayable(self, dcmotor_problem):
        service = MonitorService(
            dcmotor_problem.system,
            {"mdc": dcmotor_problem.mdc, "static": dcmotor_problem.static_threshold(0.5)},
        )
        service.attach()
        service.swap_thresholds({"mdc": dcmotor_problem.mdc})
        fresh = MonitorService(
            dcmotor_problem.system,
            {"mdc": dcmotor_problem.mdc, "static": dcmotor_problem.static_threshold(0.5)},
        )
        with pytest.raises(ValidationError):
            replay(service.log, service=fresh)

    def test_log_without_config_needs_an_explicit_service(self, dcmotor_problem):
        service = MonitorService(
            dcmotor_problem.system, {"static": dcmotor_problem.static_threshold(0.5)}
        )
        service.attach()
        with pytest.raises(ValidationError):
            replay(service.log)
