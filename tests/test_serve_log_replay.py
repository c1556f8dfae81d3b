"""Tests for the service event log and the deterministic replay driver."""

import gc
import json
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ServiceConfig, get_case_study, replay, run_service
from repro.detectors.threshold import ThresholdVector
from repro.runtime.events import InMemorySink
from repro.serve import EVENT_KINDS, RESIDUE_SOURCES, MonitorService, ServiceEvent, ServiceLog
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

    def test_iterating_a_closed_log_holds_nothing_after(self):
        # A closed log is not appended to again, so an events view cached by
        # iteration would hold a tuple, dict and float list per logged
        # sample for good.
        log = ServiceLog()
        log.append("start")
        for k in range(500):
            for instance in range(100):
                log.append_sample(instance, [0.25 * k], False)
            log.append("round", data={"members": list(range(100))})
        view = log.events
        log.close()
        assert log._view is None
        del view
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            events = list(log)
            assert len(events) == 1 + 500 * 101
            del events
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1 << 20, f"{held} bytes held after iterating a closed log"
        assert log._view is None

    def test_logged_measurements_leave_no_tracked_objects(self, dcmotor_problem):
        # Each logged sample used to keep its event tuple, data dict and
        # float list alive, about 3000 objects for the cyclic collector to
        # walk per 1000 samples.  The columns hold floats, not objects:
        # neither the typed writer nor the ingest path that feeds it leaves
        # one behind.
        log = ServiceLog()
        log.append("start")
        gc.collect()
        before = len(gc.get_objects())
        for k in range(1000):
            log.append_sample(k % 10, [float(k), 0.5], True)
            log.append_sample(k % 10, [1.0, 2.0], False)
        gc.collect()
        assert len(gc.get_objects()) - before < 50

        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.5)},
            ring_capacity=100,
            auto_drain=False,
        )
        for _ in range(10):
            service.attach()
        sample = np.array([0.25])
        gc.collect()
        before = len(gc.get_objects())
        for k in range(1000):
            service.ingest(k % 10, sample)
        gc.collect()
        assert service.samples_ingested == 1000 and service.rounds_processed == 0
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
    """Measurement payloads of every shape; ``append`` keeps each one whole."""
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


#: Finite floats, with the ones the float column and the JSON text must keep
#: exactly always in reach: signed zero, subnormals, the ends of the range.
_exact_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308]
    ),
)


def _payload(values, with_residue):
    """A sample's ``"measurement"`` payload, as ingest used to hand it to ``append``."""
    if not with_residue:
        return {"measurement": [float(v) for v in values]}
    width = len(values) // 2
    return {
        "measurement": [float(v) for v in values[:width]],
        "residue": [float(v) for v in values[width:]],
    }


@st.composite
def _typed_append(draw):
    """One ``append_sample`` call, or a rare event between two of them."""
    if draw(st.integers(0, 3)) == 0:
        return None, None, draw(st.lists(st.integers(0, 9), max_size=3))
    with_residue = draw(st.booleans())
    # 127 channels is one past the widest entry the code byte describes.
    width = draw(st.one_of(st.integers(0, 4), st.just(127)))
    count = width * (2 if with_residue else 1)
    if width > 4:
        values = [draw(_exact_float)] * count
    else:
        values = draw(st.lists(_exact_float, min_size=count, max_size=count))
    instance = draw(st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([2**63, 2**64])))
    return instance, values, with_residue


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(appends=st.lists(_typed_append(), min_size=1, max_size=25), on_disk=st.booleans())
def test_typed_writer_logs_what_the_generic_append_logged(appends, on_disk, tmp_path_factory):
    """``append_sample`` against ``append("measurement", ...)``, which wrote every sample before.

    The rebuilt events are equal and alike in every float's sign and type,
    the JSONL files are byte-identical, and the typed log's file reads back
    to its events.  Instance ids past int64 and widths past the code byte
    take the whole-event fallback.
    """
    directory = tmp_path_factory.mktemp("log")
    paths = (directory / "typed.jsonl", directory / "generic.jsonl") if on_disk else (None, None)
    with ServiceLog(paths[0]) as typed, ServiceLog(paths[1]) as generic:
        for instance, values, with_residue in appends:
            if values is None:
                typed.append("round", data={"members": with_residue})
                generic.append("round", data={"members": with_residue})
                continue
            typed.append_sample(instance, list(values), with_residue)
            generic.append("measurement", instance=instance, data=_payload(values, with_residue))
    assert len(typed) == len(generic) == len(appends)
    assert typed.events == generic.events
    assert repr(typed.events) == repr(generic.events)
    if on_disk:
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert ServiceLog.read(paths[0]) == typed.events


#: A two-output plant, so every sample's measurement and residue are lists.
QUADTANK = get_case_study("quadtank").problem
M2 = QUADTANK.system.plant.n_outputs


@st.composite
def _ingest_op(draw):
    """An attach, or one sample with an optional non-finite value planted in it."""
    if draw(st.integers(0, 5)) == 0:
        return ("attach",)
    floats = st.lists(_exact_float, min_size=M2, max_size=M2)
    poison = draw(
        st.none()
        | st.tuples(
            st.sampled_from(["measurement", "residue"]),
            st.integers(0, M2 - 1),
            st.sampled_from([np.nan, np.inf, -np.inf]),
        )
    )
    return ("ingest", draw(st.integers(0, 7)), draw(floats), draw(floats), poison)


def _ring_floats(service):
    """Every ring row's pending floats, in order, as bytes (so ``-0.0`` differs from ``0.0``)."""
    return [array("d", row).tobytes() for row in service._ring._rows]


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    source=st.sampled_from(RESIDUE_SOURCES),
    residue_free=st.booleans(),
    on_disk=st.booleans(),
    ops=st.lists(_ingest_op(), min_size=1, max_size=30),
)
def test_ingest_logs_what_the_generic_append_logged(
    source, residue_free, on_disk, ops, tmp_path_factory
):
    """``MonitorService.ingest`` on both residue sources, in memory and on disk.

    The accepted samples are logged as ``append("measurement", ...)`` logged
    them: equal events, alike in every float's sign and type, and
    byte-identical JSONL.  A NaN or infinity in the measurement or the
    residue leaves the ring, the log and ``serve_samples_ingested_total``
    as they were and counts once in ``service_nonfinite_samples_total``.
    With ``residue_free`` in ``"ingest"`` mode only the measurement-reading
    monitor is deployed, so a sample may come without a residue, which the
    log records as zeros.
    """
    directory = tmp_path_factory.mktemp("service")
    path = directory / "service.jsonl" if on_disk else None
    bank = (
        {"mdc": QUADTANK.mdc}
        if residue_free
        else {"static": ThresholdVector(np.full(QUADTANK.horizon, 1e6))}
    )
    service = MonitorService(
        QUADTANK.system,
        bank,
        residue_source=source,
        ring_capacity=64,
        auto_drain=False,
        log=ServiceLog(path),
    )
    ingested = service.metrics.get("serve_samples_ingested_total")
    nonfinite = service.metrics.get("service_nonfinite_samples_total")
    with_residue = source == "ingest"
    expected = []  # (instance, payload) of every accepted sample, in order
    service.attach()
    for op in ops:
        if op[0] == "attach":
            service.attach()
            continue
        _, pick, measurement, residue, poison = op
        instance = service.members[pick % service.n_members]
        if not with_residue or residue_free and pick % 2:
            residue = None
        if poison is not None:
            where, index, value = poison
            (measurement if where == "measurement" or residue is None else residue)[index] = value
            before = (service.pending(), _ring_floats(service), len(service.log))
            counts = (ingested.total(), nonfinite.total())
            with pytest.raises(ValidationError, match="non-finite"):
                service.ingest(
                    instance,
                    np.array(measurement),
                    residue=None if residue is None else np.array(residue),
                )
            assert (service.pending(), _ring_floats(service), len(service.log)) == before
            assert (ingested.total(), nonfinite.total()) == (counts[0], counts[1] + 1)
            continue
        assert service.ingest(
            instance, np.array(measurement), residue=None if residue is None else np.array(residue)
        )
        if with_residue:
            measurement = measurement + (residue or [0.0] * M2)
        expected.append((instance, _payload(measurement, with_residue)))
    service.close()
    assert ingested.total() == len(expected)

    oracle_path = directory / "oracle.jsonl" if on_disk else None
    with ServiceLog(oracle_path) as oracle:
        samples = iter(expected)
        for event in service.log.events:
            if event.kind == "measurement":
                instance, payload = next(samples)
                oracle.append("measurement", instance=instance, data=payload)
            else:
                oracle.append(event.kind, instance=event.instance, step=event.step, data=event.data)
    assert next(samples, None) is None
    assert service.log.events == oracle.events
    assert repr(service.log.events) == repr(oracle.events)
    if on_disk:
        assert path.read_bytes() == oracle_path.read_bytes()
        assert ServiceLog.read(path) == service.log.events


#: The forms a producer may send a sample in.  A 1-D float64 array takes
#: ingest's one-call conversion; big-endian float64 and every other form
#: take the generic one.
_FORMS = ("float64", "big-endian", "float32", "int64", "row", "strided", "list", "tuple")


def _as_form(form, values):
    """``values`` in one of the :data:`_FORMS`."""
    if form == "float32":
        with np.errstate(over="ignore"):  # past float32's range is infinity
            return np.array(values, dtype=np.float32)
    if form == "row":
        return np.array(values).reshape(1, -1)
    if form == "strided":
        spaced = np.full(2 * len(values), 7.0)
        spaced[::2] = values
        return spaced[::2]
    if form == "list":
        return list(values)
    if form == "tuple":
        return tuple(values)
    return np.array(values, dtype={"int64": np.int64, "big-endian": ">f8"}.get(form, float))


@st.composite
def _form_op(draw):
    """An attach, or one sample (measurement and residue forms), maybe with a non-finite value."""
    if draw(st.integers(0, 5)) == 0:
        return ("attach",)
    forms = draw(st.tuples(st.sampled_from(_FORMS), st.sampled_from(_FORMS)))

    def channels(form):
        scalar = st.integers(-(2**63), 2**63 - 1) if form == "int64" else _exact_float
        return draw(st.lists(scalar, min_size=M2, max_size=M2))

    values = [channels(form) for form in forms]
    poisonable = [where for where, form in zip(("measurement", "residue"), forms) if form != "int64"]
    poison = None
    if poisonable:
        poison = draw(
            st.none()
            | st.tuples(
                st.sampled_from(poisonable),
                st.integers(0, M2 - 1),
                st.sampled_from([np.nan, np.inf, -np.inf]),
            )
        )
    return ("ingest", draw(st.integers(0, 7)), forms, *values, poison)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    source=st.sampled_from(RESIDUE_SOURCES),
    on_disk=st.booleans(),
    ops=st.lists(_form_op(), min_size=1, max_size=30),
)
def test_ingest_converts_every_input_form_as_the_generic_chain(
    source, on_disk, ops, tmp_path_factory
):
    """Each input form against the same sample as ``np.asarray(x, float).ravel().tolist()``.

    The measurement and, with ``residue_source="ingest"``, the residue each
    take a form of their own.  Two services take the same operations, one
    the sample in its forms, the other their generic conversion.  Their answers, ring rows, logs (events
    alike in every float's sign and type, byte-identical JSONL) and counters
    agree.  A NaN or infinity, planted or from a float32 overflow, leaves
    the ring, the log and ``serve_samples_ingested_total`` as they were.
    """
    directory = tmp_path_factory.mktemp("service")
    paths = [directory / f"{name}.jsonl" if on_disk else None for name in ("forms", "generic")]
    services = [
        MonitorService(
            QUADTANK.system,
            {"static": ThresholdVector(np.full(QUADTANK.horizon, 1e6))},
            residue_source=source,
            ring_capacity=64,
            auto_drain=False,
            log=ServiceLog(path),
        )
        for path in paths
    ]
    forms, generic = services
    ingested = forms.metrics.get("serve_samples_ingested_total")
    for service in services:
        service.attach()
    for op in ops:
        if op[0] == "attach":
            for service in services:
                service.attach()
            continue
        _, pick, (form, residue_form), measurement, residue, poison = op
        if poison is not None:
            where, index, value = poison
            if where == "residue" and source != "ingest":
                poison = None
            else:
                (residue if where == "residue" else measurement)[index] = value
        instance = forms.members[pick % forms.n_members]
        sent = (
            _as_form(form, measurement),
            _as_form(residue_form, residue) if source == "ingest" else None,
        )
        converted = [None if x is None else np.asarray(x, dtype=float).ravel().tolist() for x in sent]
        before = (forms.pending(), _ring_floats(forms), len(forms.log), ingested.total())
        answers = []
        for service, (x, r) in zip(services, (sent, converted)):
            try:
                answers.append(service.ingest(instance, x, residue=r))
            except ValidationError as error:
                answers.append(str(error))
        assert answers[0] == answers[1]
        assert _ring_floats(forms) == _ring_floats(generic)
        if answers[0] is not True:
            assert "non-finite" in answers[0]
            assert (forms.pending(), _ring_floats(forms), len(forms.log), ingested.total()) == before
        elif poison is not None:
            raise AssertionError(f"a {poison[0]} with {poison[2]} in it was accepted")
    for service in services:
        service.close()
    assert forms.log.events == generic.log.events
    assert repr(forms.log.events) == repr(generic.log.events)
    if on_disk:
        assert paths[0].read_bytes() == paths[1].read_bytes()
    for name in (
        "serve_samples_ingested_total",
        "serve_samples_dropped_total",
        "service_nonfinite_samples_total",
    ):
        assert forms.metrics.get(name).total() == generic.metrics.get(name).total()


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
