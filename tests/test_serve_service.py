"""Tests for the always-on monitoring service: ingest, membership, hot swap."""

import numpy as np
import pytest

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.threshold import ThresholdVector
from repro.registry import ATTACK_TEMPLATES
from repro.runtime.engine import _innovation_covariance
from repro.runtime.events import InMemorySink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack
from repro.serve import BatchObserver, MonitorService, RingBuffer
from repro.utils.validation import ValidationError


class TestRingBuffer:
    def test_fifo_order_and_wraparound(self):
        ring = RingBuffer(3, 2)
        for value in range(3):
            assert ring.push([value, value])
        assert ring.is_full and not ring.push([9, 9])
        np.testing.assert_array_equal(ring.pop(), [0, 0])
        assert ring.push([3, 3])
        for expected in (1, 2, 3):
            np.testing.assert_array_equal(ring.pop(), [expected, expected])
        assert len(ring) == 0

    def test_drop_oldest_makes_room(self):
        ring = RingBuffer(2, 1)
        ring.push([1.0])
        ring.push([2.0])
        ring.drop_oldest()
        ring.push([3.0])
        np.testing.assert_array_equal(ring.pop(), [2.0])
        np.testing.assert_array_equal(ring.pop(), [3.0])

    def test_width_and_empty_validation(self):
        ring = RingBuffer(2, 2)
        with pytest.raises(ValidationError):
            ring.push([1.0])
        with pytest.raises(ValidationError):
            ring.pop()
        with pytest.raises(ValidationError):
            ring.peek()

    def test_peek_and_clear(self):
        ring = RingBuffer(4, 1)
        ring.push([5.0])
        ring.push([6.0])
        np.testing.assert_array_equal(ring.peek(), [5.0])
        assert len(ring) == 2
        assert ring.clear() == 2
        assert len(ring) == 0


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


class TestOfflineEquivalence:
    """The service must reproduce FleetSimulator's alarms bit for bit."""

    def _fleet_run(self, problem, bank, n_instances=6):
        sink = InMemorySink()
        simulator = FleetSimulator(
            problem.system,
            n_instances,
            problem.horizon,
            detectors={label: obj for label, obj in bank.items()},
            attacks=[
                ScheduledAttack(
                    template=ATTACK_TEMPLATES.create("ramp", slope=0.4),
                    start=3,
                    instances=(1, 4),
                )
            ],
            sinks=[sink],
            seed=7,
            record_traces=True,
            x0=problem.x0,
        )
        simulator.run()
        return simulator.trace, list(sink.events)

    def test_observer_service_is_bit_identical_to_fleet(self, dcmotor_problem):
        problem = dcmotor_problem
        bank = {
            "static": problem.static_threshold(0.4),
            "cusum": CusumDetector(bias=0.1, threshold=1.0, norm=2),
            "chi": ChiSquareDetector(
                innovation_cov=_innovation_covariance(problem), threshold=5.0
            ),
            "mdc": problem.mdc,
        }
        trace, fleet_events = self._fleet_run(problem, bank)
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


class TestFusedEngineRounds:
    """Service rounds under both engine names.

    Regression scope: growing or compacting the bank mid-run (an
    attach/detach) or hot-swapping thresholds must never reset any
    surviving instance's detector state, whichever engine name the service
    runs under.  Every test drives the identical scenario through both
    engines and requires bit-identical alarm streams and counters.
    """

    def _drive(self, problem, engine, *, swap_at=None, membership_churn=False):
        bank = {
            "static": problem.static_threshold(0.4),
            "cusum": CusumDetector(bias=0.1, threshold=1.0, norm=2),
        }
        sink = InMemorySink()
        service = MonitorService(
            problem.system,
            bank,
            residue_source="ingest",
            sinks=[sink],
            engine=engine,
        )
        ids = [service.attach() for _ in range(6)]
        rng = np.random.default_rng(23)
        m = problem.system.plant.n_outputs
        for k in range(40):
            if membership_churn and k == 12:
                ids.append(service.attach())
            if membership_churn and k == 28:
                service.detach(ids.pop(3))
            if swap_at is not None and k == swap_at:
                service.swap_thresholds(
                    {"cusum": CusumDetector(bias=0.05, threshold=0.6, norm=2)}
                )
            for i in ids:
                service.ingest(
                    i, rng.normal(size=m), residue=rng.normal(size=m) * 0.4
                )
        stats = service.stats()
        service.close()
        return list(sink.events), stats

    def test_fused_rounds_match_legacy_bit_for_bit(self, dcmotor_problem):
        legacy_events, legacy_stats = self._drive(dcmotor_problem, "legacy")
        fused_events, fused_stats = self._drive(dcmotor_problem, "fused")
        assert legacy_events, "the scenario must actually raise alarms"
        assert fused_events == legacy_events
        assert fused_stats == legacy_stats

    def test_grow_compact_mid_run_rebuilds_the_plan_without_resets(
        self, dcmotor_problem
    ):
        # An attach after rounds have run must leave the survivors' CUSUM
        # accumulators and threshold positions untouched.
        legacy_events, legacy_stats = self._drive(
            dcmotor_problem, "legacy", membership_churn=True
        )
        fused_events, fused_stats = self._drive(
            dcmotor_problem, "fused", membership_churn=True
        )
        assert legacy_events, "the scenario must actually raise alarms"
        assert fused_events == legacy_events
        assert fused_stats == legacy_stats

    def test_hot_swap_after_plan_build_takes_effect(self, dcmotor_problem):
        # The swap lands mid-run; the stale pre-swap parameters must never
        # be applied to a post-swap round.
        legacy_events, legacy_stats = self._drive(dcmotor_problem, "legacy", swap_at=15)
        fused_events, fused_stats = self._drive(dcmotor_problem, "fused", swap_at=15)
        assert legacy_events, "the scenario must actually raise alarms"
        assert fused_events == legacy_events
        assert fused_stats == legacy_stats

    def test_config_round_trip_carries_the_engine(self, dcmotor_problem):
        from repro.api.config import ServiceConfig
        from repro.serve.engine import run_service

        config = ServiceConfig(
            static_thresholds={"static": 0.4},
            include_mdc=False,
            engine="fused",
            engine_options={},
        )
        rebuilt = ServiceConfig.from_dict(config.to_dict())
        assert rebuilt.engine == "fused"
        service = run_service(rebuilt, dcmotor_problem)
        assert service.engine == "fused"
        start = service.log.events[0]
        assert start.data["engine"] == "fused"
        service.close()
