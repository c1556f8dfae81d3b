"""Tests for the always-on monitoring service: ingest, membership, hot swap."""

import functools
import gc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.threshold import ThresholdVector
from repro.registry import ATTACK_TEMPLATES, CASE_STUDIES
from repro.runtime.engine import _innovation_covariance
from repro.runtime.events import AlarmEvent, InMemorySink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack
from repro.runtime.online import OnlineDetector
from repro.serve import BatchObserver, MonitorService, RingBuffer
from repro.utils.validation import ValidationError


class TestRingBuffer:
    def test_fifo_order_and_wraparound(self):
        ring = RingBuffer(3, 2, rows=1)
        for value in range(3):
            assert ring.push(0, [value, value])
        assert not ring.push(0, [9, 9])  # full: refused, nothing stored
        np.testing.assert_array_equal(ring.pop_round(), [[0, 0]])
        assert ring.push(0, [3, 3])
        for expected in (1, 2, 3):
            np.testing.assert_array_equal(ring.pop_round(), [[expected, expected]])
        assert ring.pending() == [0] and ring.ready == 0

    def test_drop_oldest_makes_room(self):
        ring = RingBuffer(2, 1, rows=1)
        ring.push(0, [1.0])
        ring.push(0, [2.0])
        ring.drop_oldest(0)
        ring.push(0, [3.0])
        np.testing.assert_array_equal(ring.pop_round(), [[2.0]])
        np.testing.assert_array_equal(ring.pop_round(), [[3.0]])

    def test_width_and_empty_validation(self):
        ring = RingBuffer(2, 2, rows=2)
        with pytest.raises(ValidationError):
            ring.push(0, [1.0])
        with pytest.raises(ValidationError):
            ring.pop_round()
        ring.push(0, [1.0, 2.0])
        with pytest.raises(ValidationError):
            ring.pop_round()  # row 1 has nothing pending
        assert ring.pending() == [1, 0]

    def test_wrong_width_raises_on_a_full_row(self):
        # Width comes before fullness: a full row answering False would send
        # a drop-oldest caller to evict a valid sample before the error.
        ring = RingBuffer(1, 2, rows=1)
        assert ring.push(0, [1.0, 2.0])
        with pytest.raises(ValidationError):
            ring.push(0, [3.0])
        assert ring.pending() == [1]
        np.testing.assert_array_equal(ring.pop_round(), [[1.0, 2.0]])

    def test_pending_grow_and_compact(self):
        ring = RingBuffer(4, 1)
        ring.grow(3)
        ring.push(0, [5.0])
        ring.push(0, [6.0])
        ring.push(2, [7.0])
        assert ring.pending() == [2, 0, 1] and ring.ready == 2
        ring.compact([0, 2])
        assert ring.pending() == [2, 1] and ring.ready == 2
        ring.push(1, [8.0])  # the kept row moved with its pending samples
        np.testing.assert_array_equal(ring.pop_round(), [[5.0], [7.0]])
        np.testing.assert_array_equal(ring.pop_round(), [[6.0], [8.0]])
        assert ring.pending() == [0, 0] and ring.ready == 0

    def test_push_copies_the_callers_values_as_floats(self):
        ring = RingBuffer(2, 2, rows=1)
        values = [1, np.float32(2.5)]
        assert ring.push(0, values)
        values[0] = 9.0  # a later change to the caller's list
        assert [type(value) for value in ring._rows[0]] == [float, float]
        np.testing.assert_array_equal(ring.pop_round(), [[1.0, 2.5]])

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("rows", [0, 1, 4])
    def test_pop_round_is_a_float64_rows_by_width_block(self, rows, width):
        ring = RingBuffer(2, width, rows=rows)
        for row in range(rows):
            ring.push(row, [float(row * width + k) for k in range(width)])
        block = ring.pop_round()
        assert block.dtype == np.float64 and block.shape == (rows, width)
        np.testing.assert_array_equal(block.reshape(-1), np.arange(rows * width))
        assert ring.pending() == [0] * rows and ring.ready == 0

    def test_pending_samples_add_few_tracked_objects(self):
        # Each row holds its pending floats, which the cyclic garbage
        # collector does not track, in one deque.
        ring = RingBuffer(100, 2, rows=10)
        gc.collect()
        before = len(gc.get_objects())
        for k in range(1000):
            ring.push(k % 10, [float(k), -float(k)])
        gc.collect()
        assert ring.pending() == [100] * 10
        assert len(gc.get_objects()) - before < 50


_ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 7), st.floats(-1e3, 1e3)),
        st.tuples(st.just("drop"), st.integers(0, 7)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("grow"), st.integers(1, 2)),
        st.tuples(st.just("compact"), st.lists(st.booleans(), min_size=8, max_size=8)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(1, 4), width=st.sampled_from([2, 3]), rows=st.integers(0, 3), ops=_ring_ops
)
def test_ring_matches_per_row_deques(capacity, width, rows, ops):
    """Push / drop / pop-round sequences against one ``deque`` per row."""
    ring = RingBuffer(capacity, width, rows=rows)
    model = [deque() for _ in range(rows)]
    for op in ops:
        if op[0] in ("push", "drop") and not model:
            continue
        if op[0] == "push":
            row = op[1] % len(model)
            sample = [op[2], -op[2], 2 * op[2]][:width]
            accepted = len(model[row]) < capacity
            assert ring.push(row, sample) == accepted
            if accepted:
                model[row].append(sample)
        elif op[0] == "drop":
            row = op[1] % len(model)
            ring.drop_oldest(row)
            if model[row]:
                model[row].popleft()
        elif op[0] == "pop":
            if all(model):
                expected = np.array([queue.popleft() for queue in model]).reshape(-1, width)
                np.testing.assert_array_equal(ring.pop_round(), expected)
            else:
                with pytest.raises(ValidationError):
                    ring.pop_round()
        elif op[0] == "grow":
            ring.grow(op[1])
            model.extend(deque() for _ in range(op[1]))
        else:
            keep = [row for row, kept in enumerate(op[1][: len(model)]) if kept]
            ring.compact(keep)
            model = [model[row] for row in keep]
        assert ring.pending() == [len(queue) for queue in model]
        assert ring.rows == len(model)
        assert ring.ready == sum(1 for queue in model if queue)


class TestMembership:
    def _service(self, dcmotor_problem, **kwargs):
        return MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.5)},
            **kwargs,
        )

    def test_needs_a_detector(self, dcmotor_problem):
        with pytest.raises(ValidationError):
            MonitorService(dcmotor_problem.system, {})

    def test_attach_assigns_increasing_ids(self, dcmotor_problem):
        service = self._service(dcmotor_problem)
        assert service.attach() == 0
        assert service.attach() == 1
        assert service.attach(7) == 7
        assert service.attach() == 8
        assert service.members == (0, 1, 7, 8)

    def test_duplicate_attach_and_unknown_detach_rejected(self, dcmotor_problem):
        service = self._service(dcmotor_problem)
        service.attach(3)
        with pytest.raises(ValidationError):
            service.attach(3)
        with pytest.raises(ValidationError):
            service.detach(99)
        with pytest.raises(ValidationError):
            service.ingest(99, [0.0])

    def test_detach_keeps_other_instances_state(self, dcmotor_problem):
        detector = CusumDetector(bias=0.01, threshold=50.0)
        service = MonitorService(dcmotor_problem.system, {"cusum": detector})
        for _ in range(3):
            service.attach()
        rng = np.random.default_rng(3)
        m = dcmotor_problem.system.plant.n_outputs
        for _ in range(6):
            for i in range(3):
                service.ingest(i, rng.normal(size=m) * (i + 1))
        before = service.detectors["cusum"].state["statistic"].copy()
        service.detach(1)
        after = service.detectors["cusum"].state["statistic"]
        np.testing.assert_array_equal(after, before[[0, 2]])
        assert service.members == (0, 2)

    def test_observer_mode_rejects_explicit_residues(self, dcmotor_problem):
        service = self._service(dcmotor_problem)
        service.attach()
        with pytest.raises(ValidationError):
            service.ingest(0, [0.1], residue=[0.1])

    def test_ingest_mode_requires_residues_for_residue_detectors(self, dcmotor_problem):
        service = self._service(dcmotor_problem, residue_source="ingest")
        service.attach()
        with pytest.raises(ValidationError):
            service.ingest(0, [0.1])
        assert service.ingest(0, [0.1], residue=[0.1])


class TestOverflowPolicies:
    def _tiny_service(self, dcmotor_problem, overflow):
        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.5)},
            ring_capacity=2,
            overflow=overflow,
            auto_drain=False,
        )
        service.attach()
        return service

    def test_drop_newest_refuses_and_counts(self, dcmotor_problem):
        service = self._tiny_service(dcmotor_problem, "drop-newest")
        assert service.ingest(0, [1.0]) and service.ingest(0, [2.0])
        assert not service.ingest(0, [3.0])
        assert service.samples_dropped == 1
        # The refused sample never entered the stream: draining sees 1, 2.
        service.drain()
        assert service.rounds_processed == 2

    def test_drop_oldest_evicts_and_counts(self, dcmotor_problem):
        service = self._tiny_service(dcmotor_problem, "drop-oldest")
        for value in (1.0, 2.0, 3.0, 4.0):
            assert service.ingest(0, [value])
        assert service.samples_dropped == 2
        assert service.pending() == {0: 2}

    def test_error_policy_raises(self, dcmotor_problem):
        service = self._tiny_service(dcmotor_problem, "error")
        service.ingest(0, [1.0])
        service.ingest(0, [2.0])
        with pytest.raises(ValidationError):
            service.ingest(0, [3.0])

    def test_lockstep_waits_for_every_member(self, dcmotor_problem):
        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.5)},
            auto_drain=False,
        )
        service.attach()
        service.attach()
        service.ingest(0, [1.0])
        assert service.drain() == 0  # instance 1 has nothing pending
        service.ingest(1, [1.0])
        assert service.drain() == 1


_BANK_LABELS = ("static", "cusum", "chi", "mdc")

_PINNED_SCENARIO = {
    "case": "dcmotor",
    "n_instances": 6,
    "horizon": 30,
    "seed": 7,
    "attacked": (1, 4),
    "start": 3,
    "labels": list(_BANK_LABELS),
}


@functools.lru_cache(maxsize=None)
def _equivalence_case(case: str):
    """A case study's problem and a bank of every detector kind on it."""
    problem = CASE_STUDIES.create(case).problem
    bank = {
        "static": problem.static_threshold(0.4),
        "cusum": CusumDetector(bias=0.1, threshold=1.0, norm=2),
        "chi": ChiSquareDetector(innovation_cov=_innovation_covariance(problem), threshold=5.0),
        "mdc": problem.mdc,
    }
    return problem, bank


@st.composite
def _equivalence_scenarios(draw):
    """A fixed-membership fleet run: case study, size, seed, attack and bank."""
    n_instances = draw(st.integers(1, 6))
    horizon = draw(st.integers(1, 30))
    return {
        "case": draw(st.sampled_from(["dcmotor", "quadtank"])),
        "n_instances": n_instances,
        "horizon": horizon,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "attacked": tuple(sorted(draw(st.sets(st.integers(0, n_instances - 1))))),
        "start": draw(st.integers(0, horizon - 1)),
        "labels": sorted(draw(st.sets(st.sampled_from(_BANK_LABELS), min_size=1))),
    }


class TestOfflineEquivalence:
    """The service must reproduce FleetSimulator's alarms bit for bit."""

    def _fleet_run(
        self, problem, bank, n_instances=6, horizon=None, seed=7, attacked=(1, 4), start=3
    ):
        sink = InMemorySink()
        ramp = ATTACK_TEMPLATES.create("ramp", slope=0.4)
        simulator = FleetSimulator(
            problem.system,
            n_instances,
            problem.horizon if horizon is None else horizon,
            detectors={label: obj for label, obj in bank.items()},
            attacks=[ScheduledAttack(ramp, start, attacked)] if attacked else [],
            sinks=[sink],
            seed=seed,
            record_traces=True,
            x0=problem.x0,
        )
        simulator.run()
        return simulator.trace, list(sink.events)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(scenario=_equivalence_scenarios())
    @example(scenario=_PINNED_SCENARIO)
    def test_observer_service_is_bit_identical_to_fleet(self, scenario):
        # An observer-mode service fed the fleet's recorded measurements in
        # round order emits exactly the fleet sink's events.
        run = dict(scenario)
        problem, full_bank = _equivalence_case(run.pop("case"))
        bank = {label: full_bank[label] for label in run.pop("labels")}
        trace, fleet_events = self._fleet_run(problem, bank, **run)
        if scenario == _PINNED_SCENARIO:
            assert fleet_events, "the scenario must actually raise alarms"

        sink = InMemorySink()
        service = MonitorService(problem.system, dict(bank), sinks=[sink])
        for _ in range(trace.n_instances):
            service.attach()
        for k in range(trace.horizon):
            for i in range(trace.n_instances):
                service.ingest(i, trace.measurements[i, k])
        assert list(sink.events) == fleet_events

    def test_attach_detach_leaves_other_instances_bit_identical(self, dcmotor_problem):
        # Ingest mode feeds the recorded residues directly, so every detector
        # op is row-elementwise and the mid-run batch-size change cannot
        # perturb instances 0..5 even at the bit level.
        problem = dcmotor_problem
        bank = {
            "static": problem.static_threshold(0.4),
            "cusum": CusumDetector(bias=0.1, threshold=1.0, norm=2),
            "mdc": problem.mdc,
        }
        trace, fleet_events = self._fleet_run(problem, bank)
        N, T = trace.n_instances, trace.horizon

        sink = InMemorySink()
        service = MonitorService(
            problem.system, dict(bank), residue_source="ingest", sinks=[sink]
        )
        for _ in range(N):
            service.attach()
        guest = None
        rng = np.random.default_rng(11)
        m = problem.system.plant.n_outputs
        for k in range(T):
            if k == T // 3:
                guest = service.attach()
            if k == 2 * T // 3:
                service.detach(guest)
                guest = None
            for i in range(N):
                service.ingest(
                    i, trace.measurements[i, k], residue=trace.residues[i, k]
                )
            if guest is not None:
                service.ingest(
                    guest, rng.normal(size=m), residue=rng.normal(size=m) * 0.5
                )
        original = [event for event in sink.events if event.instance < N]
        assert original == fleet_events


class TestHotSwap:
    def test_swap_preserves_cusum_state_vs_no_swap_run(self, dcmotor_problem):
        problem = dcmotor_problem
        old = CusumDetector(bias=0.05, threshold=100.0)
        new = CusumDetector(bias=0.5, threshold=100.0)
        rng = np.random.default_rng(5)
        m = problem.system.plant.n_outputs
        stream = rng.normal(size=(20, m))

        swapped = MonitorService(problem.system, {"cusum": old}, residue_source="ingest")
        fresh = MonitorService(problem.system, {"cusum": new}, residue_source="ingest")
        for service in (swapped, fresh):
            service.attach()
        for k in range(10):
            for service in (swapped, fresh):
                service.ingest(0, np.zeros(m), residue=stream[k])

        before = swapped.detectors["cusum"].state
        swapped.swap_thresholds({"cusum": new})
        after = swapped.detectors["cusum"].state
        # The swap itself changes nothing but the parameters: accumulator and
        # position survive untouched.
        np.testing.assert_array_equal(after["statistic"], before["statistic"])
        assert after["step"] == before["step"]

        for k in range(10, 20):
            for service in (swapped, fresh):
                service.ingest(0, np.zeros(m), residue=stream[k])
        # Both ran the final 10 samples under identical parameters, but the
        # swapped run carries the bias=0.05 history: had the swap reset the
        # accumulator, the two statistics would agree.
        assert (
            swapped.detectors["cusum"].state["statistic"][0]
            != fresh.detectors["cusum"].state["statistic"][0]
        )

    def test_threshold_swap_keeps_per_instance_position(self, dcmotor_problem):
        problem = dcmotor_problem
        T = problem.horizon
        quiet = ThresholdVector(np.full(T, 10.0))
        service = MonitorService(problem.system, {"static": quiet}, residue_source="ingest")
        sink = InMemorySink()
        service.sinks.append(sink)
        service.attach()
        m = problem.system.plant.n_outputs
        for _ in range(5):
            service.ingest(0, np.zeros(m), residue=np.full(m, 1.0))
        assert not sink.events

        # Sensitive only from position 5 on: an alarm on the next sample
        # proves the detector kept its position through the swap (a reset
        # would compare against position 0's 10.0 and stay silent).
        values = np.full(T, 10.0)
        values[5:] = 0.01
        service.swap_thresholds({"static": ThresholdVector(values)})
        service.ingest(0, np.zeros(m), residue=np.full(m, 1.0))
        assert [event.step for event in sink.events] == [5]

    def test_swap_is_atomic_across_labels(self, dcmotor_problem):
        problem = dcmotor_problem
        service = MonitorService(
            problem.system,
            {
                "static": problem.static_threshold(0.4),
                "cusum": CusumDetector(bias=0.1, threshold=1.0),
            },
            residue_source="ingest",
        )
        service.attach()
        original = service.detectors["static"].threshold
        with pytest.raises(ValidationError):
            service.swap_thresholds(
                {
                    "static": ThresholdVector(np.full(problem.horizon, 2.0)),
                    "cusum": "not a cusum detector",
                }
            )
        # The valid half of the failed batch must not have been applied.
        assert service.detectors["static"].threshold is original
        assert service.swaps_applied == 0

    def test_unknown_label_rejected(self, dcmotor_problem):
        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.4)},
        )
        with pytest.raises(ValidationError):
            service.swap_thresholds({"nope": ThresholdVector(np.ones(3))})


class TestBatchObserver:
    def test_matches_fleet_estimator_bit_for_bit(self, dcmotor_problem):
        problem = dcmotor_problem
        simulator = FleetSimulator(
            problem.system,
            4,
            problem.horizon,
            seed=9,
            record_traces=True,
            x0=problem.x0,
        )
        simulator.run()
        trace = simulator.trace
        observer = BatchObserver(problem.system)
        observer.grow(4)
        for k in range(trace.horizon):
            residues = observer.step(trace.measurements[:, k])
            np.testing.assert_array_equal(residues, trace.residues[:, k])

    def test_grow_and_compact_validate(self, dcmotor_problem):
        observer = BatchObserver(dcmotor_problem.system)
        with pytest.raises(ValidationError):
            observer.grow(0)
        observer.grow(3)
        with pytest.raises(ValidationError):
            observer.compact(np.array([0, 3]))
        observer.compact(np.array([0, 2]))
        assert observer.n_instances == 2


def _churn_script(m, *, swap_at=None, membership_churn=False, seed=23):
    """A service scenario: attach/detach/swap/round actions over 40 rounds."""
    rng = np.random.default_rng(seed)
    ids = list(range(6))
    script = [("attach", i) for i in ids]
    next_id = len(ids)
    for k in range(40):
        if membership_churn and k == 12:
            script.append(("attach", next_id))
            ids.append(next_id)
            next_id += 1
        if membership_churn and k == 28:
            script.append(("detach", ids.pop(3)))
        if swap_at is not None and k == swap_at:
            script.append(("swap", CusumDetector(bias=0.05, threshold=0.6, norm=2)))
        script.append(
            ("round", [(i, rng.normal(size=m), rng.normal(size=m) * 0.4) for i in ids])
        )
    return script


def _per_instance_reference(bank, script):
    """The scenario's alarm stream from one width-1 online detector per instance.

    Each attached instance gets its own
    :class:`~repro.runtime.online.OnlineDetector` per label; a round steps
    every member's detectors label by label in attach order — the event
    order of a service round.  Nothing here
    grows, compacts or rebinds a shared batch, so the service's
    membership bookkeeping is checked against per-instance state.
    """
    members: dict[int, dict] = {}
    steps: dict[int, int] = {}
    alarmed: dict[int, set] = {}
    events = []
    for action, payload in script:
        if action == "attach":
            members[payload] = {label: OnlineDetector(obj) for label, obj in bank.items()}
            steps[payload], alarmed[payload] = 0, set()
        elif action == "detach":
            del members[payload]
        elif action == "swap":
            for detectors in members.values():
                detectors["cusum"].rebind(payload)
        else:
            residues = {instance: residue for instance, _, residue in payload}
            for label in bank:
                for instance, detectors in members.items():
                    if detectors[label].step(residues[instance]):
                        first = label not in alarmed[instance]
                        alarmed[instance].add(label)
                        events.append(AlarmEvent(instance, steps[instance], label, first))
            for instance in members:
                steps[instance] += 1
    return events


class TestServiceRoundsMatchPerInstanceDetectors:
    """Service rounds against the per-instance reference.

    Regression scope: growing or compacting the bank mid-run (an
    attach/detach) or hot-swapping thresholds must never reset any
    surviving instance's detector state.  Every test drives one scenario
    through the service and through :func:`_per_instance_reference` and
    requires identical alarm streams.
    """

    def _compare(self, problem, **scenario):
        bank = {
            "static": problem.static_threshold(0.4),
            "cusum": CusumDetector(bias=0.1, threshold=1.0, norm=2),
        }
        script = _churn_script(problem.system.plant.n_outputs, **scenario)
        sink = InMemorySink()
        service = MonitorService(
            problem.system, bank, residue_source="ingest", sinks=[sink]
        )
        for action, payload in script:
            if action == "attach":
                assert service.attach() == payload
            elif action == "detach":
                service.detach(payload)
            elif action == "swap":
                service.swap_thresholds({"cusum": payload})
            else:
                for instance, measurement, residue in payload:
                    service.ingest(instance, measurement, residue=residue)
        service.close()
        expected = _per_instance_reference(bank, script)
        assert expected, "the scenario must actually raise alarms"
        assert list(sink.events) == expected
        assert service.alarms_emitted == len(expected)

    def test_rounds_match_per_instance_detectors(self, dcmotor_problem):
        self._compare(dcmotor_problem)

    def test_grow_compact_mid_run_keeps_survivor_state(self, dcmotor_problem):
        # An attach after rounds have run must leave the survivors' CUSUM
        # accumulators and threshold positions untouched.
        self._compare(dcmotor_problem, membership_churn=True)

    def test_hot_swap_mid_run_takes_effect(self, dcmotor_problem):
        # The swap lands mid-run; the stale pre-swap parameters must never
        # be applied to a post-swap round.
        self._compare(dcmotor_problem, swap_at=15)

    def test_service_runs_the_fused_engine_by_default(self, dcmotor_problem):
        from repro.api.config import ServiceConfig
        from repro.serve.engine import run_service

        config = ServiceConfig(static_thresholds={"static": 0.4}, include_mdc=False)
        assert "engine" not in config.to_dict()
        service = run_service(config, dcmotor_problem)
        assert service.engine == "fused"
        start = service.log.events[0]
        assert start.data["engine"] == "fused"
        service.close()


class TestNonFiniteInput:
    """A NaN or infinite sample fails loudly instead of silencing an instance."""

    def test_nan_sample_is_rejected_and_detection_continues(self, dcmotor_problem):
        # Let through, the NaN poisons the instance's state estimate for good
        # and its detector goes quiet (9 alarms over 100 rounds against its
        # twin's 99).
        sink = InMemorySink()
        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.1)},
            sinks=[sink],
        )
        ids = [service.attach(), service.attach()]
        m = dcmotor_problem.system.plant.n_outputs
        sample = np.full(m, 0.5)
        poisoned = sample.copy()
        poisoned[0] = np.nan
        for k in range(100):
            if k == 10:
                with pytest.raises(ValidationError, match="non-finite"):
                    service.ingest(ids[0], poisoned)
                assert service.pending()[ids[0]] == 0
            for instance in ids:
                service.ingest(instance, sample)
        counts = {instance: 0 for instance in ids}
        for event in sink.events:
            counts[event.instance] += 1
        assert counts[ids[0]] == counts[ids[1]] > 0
        assert service.rounds_processed == 100
        assert service.metrics.get("service_nonfinite_samples_total").total() == 1
        logged = [e for e in service.log.events if e.kind == "measurement"]
        assert len(logged) == 200
        assert all(np.isfinite(e.data["measurement"]).all() for e in logged)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_ingest_mode_rejects_non_finite_residues(self, dcmotor_problem, bad):
        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.1)},
            residue_source="ingest",
        )
        service.attach()
        m = dcmotor_problem.system.plant.n_outputs
        residue = np.zeros(m)
        residue[-1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            service.ingest(0, np.zeros(m), residue=residue)
        assert service.samples_ingested == 0 and service.pending() == {0: 0}
        assert service.metrics.get("service_nonfinite_samples_total").total() == 1
        assert [e.kind for e in service.log.events] == ["start", "attach"]
