"""Online/offline equivalence of the runtime detector wrappers.

Property-style: for shared random traces (benign and attacked), every online
detector/monitor must produce *bit-identical* alarm sequences to its offline
``evaluate`` counterpart, and the fleet-wide batched cores must agree with
the scalar online wrappers instance for instance.
"""

import numpy as np
import pytest

from repro import get_case_study
from repro.attacks.templates import BiasAttack, GeometricAttack, RampAttack
from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.residue import ResidueDetector
from repro.detectors.threshold import ThresholdVector
from repro.monitors.composite import CompositeMonitor
from repro.monitors.deadzone import DeadZoneMonitor
from repro.monitors.gradient_monitor import GradientMonitor
from repro.monitors.range_monitor import RangeMonitor
from repro.runtime.batch import (
    BatchChiSquare,
    BatchCusum,
    BatchMonitor,
    BatchThresholdDetector,
    make_batched,
)
from repro.runtime.online import OnlineDetector
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def vsc_case():
    return get_case_study("vsc")


def shared_traces(problem, count=6):
    """Benign and attacked traces of one problem (fixed seeds, varied templates)."""
    horizon, m = problem.horizon, problem.n_outputs
    templates = [
        None,
        None,
        BiasAttack(bias=0.05, start=3),
        RampAttack(slope=0.01, start=5),
        GeometricAttack(initial=1e-3, ratio=1.2),
        BiasAttack(bias=-0.2),
    ]
    traces = []
    for seed in range(count):
        template = templates[seed % len(templates)]
        attack = None if template is None else template.generate(horizon, m)
        traces.append(problem.simulate(attack=attack, with_noise=True, seed=seed))
    return traces


def problems(dcmotor_problem, vsc_case):
    return [dcmotor_problem, vsc_case.problem]


class TestResidueDetectorEquivalence:
    def test_static_threshold_bit_identical(self, dcmotor_problem, vsc_case):
        for problem in problems(dcmotor_problem, vsc_case):
            detector = ResidueDetector(problem.static_threshold(0.02))
            online = OnlineDetector(detector.threshold)
            for trace in shared_traces(problem):
                offline = detector.evaluate(trace.residues).alarms
                assert np.array_equal(online.run(trace.residues), offline)

    def test_variable_threshold_bit_identical(self, dcmotor_problem, vsc_case):
        for problem in problems(dcmotor_problem, vsc_case):
            # A synthesized-shaped (monotone decreasing staircase) threshold
            # carrying the problem's norm and channel weights.
            threshold = problem.fresh_threshold()
            values = np.linspace(0.3, 0.01, threshold.length)
            for index, value in enumerate(values):
                threshold.set_value(index, value)
            detector = ResidueDetector(threshold)
            online = OnlineDetector(threshold)
            for trace in shared_traces(problem):
                offline = detector.evaluate(trace.residues).alarms
                assert np.array_equal(online.run(trace.residues), offline)

    def test_threshold_shorter_than_trace_holds_last_value(self):
        threshold = ThresholdVector(np.array([0.5, 0.2]))
        detector = ResidueDetector(threshold)
        online = OnlineDetector(threshold)
        residues = np.array([[0.1], [0.1], [0.3], [0.1], [0.25]])
        assert np.array_equal(online.run(residues), detector.evaluate(residues).alarms)


class TestCusumEquivalence:
    @pytest.mark.parametrize("norm", [1, 2, "inf"])
    def test_bit_identical(self, dcmotor_problem, vsc_case, norm):
        for problem in problems(dcmotor_problem, vsc_case):
            detector = CusumDetector(bias=0.01, threshold=0.05, norm=norm)
            online = OnlineDetector(detector)
            for trace in shared_traces(problem):
                offline = detector.evaluate(trace.residues).alarms
                assert np.array_equal(online.run(trace.residues), offline)

    def test_statistic_matches_offline(self, dcmotor_problem):
        detector = CusumDetector(bias=0.005, threshold=1.0)
        online = OnlineDetector(detector)
        trace = shared_traces(dcmotor_problem, count=1)[0]
        online.run(trace.residues)
        assert online.state["statistic"][0] == detector.statistics(trace.residues)[-1]


class TestChiSquareEquivalence:
    def test_bit_identical(self, dcmotor_problem, vsc_case):
        for problem in problems(dcmotor_problem, vsc_case):
            m = problem.n_outputs
            detector = ChiSquareDetector.from_false_alarm_probability(
                np.eye(m) * 1e-4, 0.05
            )
            online = OnlineDetector(detector)
            for trace in shared_traces(problem):
                offline = detector.evaluate(trace.residues).alarms
                assert np.array_equal(online.run(trace.residues), offline)


class TestMonitorEquivalence:
    def test_every_vsc_monitor_bit_identical(self, vsc_case):
        problem = vsc_case.problem
        dt = problem.dt
        members = list(problem.mdc) + [problem.mdc]
        # Exercise attacked traces too: monitors react to the forged
        # measurements, not the residues.
        for monitor in members:
            online = OnlineDetector(monitor, dt)
            for trace in shared_traces(problem):
                offline = monitor.alarms(trace.measurements, dt)
                assert np.array_equal(online.run(trace.measurements), offline)

    def test_deadzone_run_counter_spans_steps(self):
        inner = RangeMonitor.symmetric(0, 0.1)
        monitor = DeadZoneMonitor(inner=inner, dead_zone_samples=3)
        online = OnlineDetector(monitor, dt=1.0)
        measurements = np.array([[0.5], [0.5], [0.05], [0.5], [0.5], [0.5], [0.5]])
        offline = monitor.alarms(measurements, 1.0)
        assert np.array_equal(online.run(measurements), offline)
        assert offline.tolist() == [False, False, False, False, False, True, True]

    def test_custom_monitor_falls_back_to_windowed_evaluation(self, vsc_case):
        class EveryOtherMonitor(CompositeMonitor.__mro__[1]):  # Monitor ABC
            name = "every-other"

            def satisfied(self, measurements, dt):
                measurements = np.atleast_2d(measurements)
                # Violated whenever the first channel moved since the
                # previous sample (1-step lookback, like a gradient check).
                result = np.ones(measurements.shape[0], dtype=bool)
                if measurements.shape[0] > 1:
                    result[1:] = np.diff(measurements[:, 0]) == 0.0
                return result

            def conditions_at(self, k, dt):
                return []

        problem = vsc_case.problem
        monitor = EveryOtherMonitor()
        online = OnlineDetector(monitor, problem.dt)
        trace = shared_traces(problem, count=1)[0]
        offline = monitor.alarms(trace.measurements, problem.dt)
        assert np.array_equal(online.run(trace.measurements), offline)


class TestOnlineAPI:
    def test_step_reset_state(self, dcmotor_problem):
        online = OnlineDetector(dcmotor_problem.static_threshold(0.01))
        trace = shared_traces(dcmotor_problem, count=1)[0]
        first = bool(online.step(trace.residues[0]))
        assert isinstance(first, bool)
        assert online.step_index == 1
        assert online.state["step"] == 1
        online.reset()
        assert online.step_index == 0

    def test_cusum_state_snapshot_is_a_copy(self):
        online = OnlineDetector(CusumDetector(bias=0.01, threshold=1.0))
        online.step([0.5])
        snapshot = online.state
        snapshot["statistic"][0] = 123.0
        assert online.state["statistic"][0] != 123.0

    def test_online_detector_dispatch(self, dcmotor_problem):
        # One wrapper, every kind: the core is the one make_batched builds.
        threshold = dcmotor_problem.static_threshold(0.1)
        chi = ChiSquareDetector(innovation_cov=np.eye(1), threshold=5.0)
        monitor = RangeMonitor.symmetric(0, 1.0)
        expected = {
            BatchThresholdDetector: (threshold, ResidueDetector(threshold)),
            BatchCusum: (CusumDetector(bias=0.1, threshold=1.0),),
            BatchChiSquare: (chi,),
            BatchMonitor: (monitor,),
        }
        for core_type, objects in expected.items():
            for obj in objects:
                online = OnlineDetector(obj, dt=0.1)
                assert type(online._core) is core_type
                assert online.detector is obj
        # Wrapping an online detector re-batches the object it holds, with
        # fresh state, like make_batched does for a fleet.
        online = OnlineDetector(CusumDetector(bias=0.1, threshold=1.0))
        online.step([5.0])
        rewrapped = OnlineDetector(online)
        assert type(rewrapped._core) is BatchCusum
        assert rewrapped.step_index == 0 and rewrapped.state["statistic"][0] == 0.0
        assert make_batched(online, 3).n_instances == 3

    def test_online_detector_monitor_needs_dt(self):
        with pytest.raises(ValidationError):
            OnlineDetector(RangeMonitor.symmetric(0, 1.0))

    def test_online_detector_rejects_unknown_objects(self):
        with pytest.raises(ValidationError):
            OnlineDetector(object())


class TestBatchedCores:
    def test_batched_matches_scalar_instance_for_instance(self, vsc_case):
        problem = vsc_case.problem
        traces = shared_traces(problem)
        residues = np.stack([trace.residues for trace in traces])  # (N, T, m)
        measurements = np.stack([trace.measurements for trace in traces])
        bank = {
            "residue": problem.static_threshold(0.05),
            "cusum": CusumDetector(bias=0.01, threshold=0.05),
            "chi": ChiSquareDetector(innovation_cov=np.eye(2) * 1e-4, threshold=5.0),
            "mdc": problem.mdc,
        }
        for label, obj in bank.items():
            core = make_batched(obj, residues.shape[0], dt=problem.dt)
            feed = residues if core.consumes == "residues" else measurements
            batched = core.run(np.swapaxes(feed, 0, 1))  # (T, N)
            online = OnlineDetector(obj, dt=problem.dt)
            for i, trace in enumerate(traces):
                scalar = online.run(feed[i])
                assert np.array_equal(batched[:, i], scalar), label

    def test_batched_instance_count_checked(self, dcmotor_problem):
        core = make_batched(dcmotor_problem.static_threshold(0.1), 4)
        with pytest.raises(ValidationError):
            core.step(np.zeros((3, 1)))
        with pytest.raises(ValidationError):
            make_batched(core, 5)

    def test_make_batched_rejects_unknown_objects(self):
        with pytest.raises(ValidationError):
            make_batched(object(), 3)


class TestMembershipHooks:
    """grow/compact on the batched cores: row changes leave other rows alone."""

    def test_cusum_grow_and_compact_preserve_rows(self):
        core = make_batched(CusumDetector(bias=0.01, threshold=10.0), 3)
        core.run(np.full((4, 3, 1), 0.5))
        before = core.state["statistic"].copy()
        core.grow(2)
        assert core.n_instances == 5
        state = core.state["statistic"]
        np.testing.assert_array_equal(state[:3], before)
        np.testing.assert_array_equal(state[3:], [0.0, 0.0])
        core.compact(np.array([1, 4]))
        np.testing.assert_array_equal(core.state["statistic"], [before[1], 0.0])

    def test_threshold_steps_are_per_instance(self, dcmotor_problem):
        core = make_batched(dcmotor_problem.static_threshold(0.5), 2)
        core.step(np.zeros((2, 1)))
        core.step(np.zeros((2, 1)))
        core.grow(1)
        np.testing.assert_array_equal(core.state["steps"], [2, 2, 0])
        core.step(np.zeros((3, 1)))
        np.testing.assert_array_equal(core.state["steps"], [3, 3, 1])

    def test_monitor_grow_and_compact_keep_deadzone_counters(self):
        monitor = DeadZoneMonitor(
            inner=RangeMonitor.symmetric(0, 0.1), dead_zone_samples=3
        )
        core = make_batched(monitor, 2, dt=1.0)
        # Row 0 violates every step; row 1 stays inside the range.
        for _ in range(2):
            core.step(np.array([[0.5], [0.0]]))
        core.grow(1)
        # After 2 pre-grow violations, row 0 alarms on its 3rd straight
        # violation even though the fleet grew in between.
        alarms = core.step(np.array([[0.5], [0.0], [0.5]]))
        assert alarms.tolist() == [True, False, False]
        alarms = core.step(np.array([[0.5], [0.0], [0.5]]))
        assert alarms.tolist() == [True, False, False]
        core.compact(np.array([0, 2]))
        # Row 0 keeps its long violation run; the grown row reaches its
        # 3rd straight violation on this step.
        alarms = core.step(np.array([[0.5], [0.5]]))
        assert alarms.tolist() == [True, True]

    def test_grow_and_compact_validate(self, dcmotor_problem):
        core = make_batched(dcmotor_problem.static_threshold(0.5), 2)
        with pytest.raises(ValidationError):
            core.grow(0)
        with pytest.raises(ValidationError):
            core.compact(np.array([1, 0]))  # not strictly increasing
        with pytest.raises(ValidationError):
            core.compact(np.array([0, 2]))  # out of range


class TestRebind:
    """Hot parameter swaps on the online wrappers preserve detector state."""

    def test_threshold_rebind_keeps_position(self, dcmotor_problem):
        T = dcmotor_problem.horizon
        online = OnlineDetector(ThresholdVector(np.full(T, 10.0)))
        for _ in range(4):
            assert not online.step([1.0])
        values = np.full(T, 10.0)
        values[4:] = 0.01
        online.rebind(ThresholdVector(values))
        assert online.step([1.0])  # compares against position 4, not 0
        assert online.detector.values[4] == 0.01

    def test_cusum_rebind_keeps_accumulator(self):
        online = OnlineDetector(CusumDetector(bias=0.1, threshold=100.0))
        for _ in range(5):
            online.step([1.0])
        accumulated = online.state["statistic"][0]
        assert accumulated > 0
        online.rebind(CusumDetector(bias=0.5, threshold=100.0))
        assert online.state["statistic"][0] == accumulated
        assert online.detector.bias == 0.5
        with pytest.raises(ValidationError):
            online.rebind("not a detector")

    def test_chi_square_rebind_swaps_detector(self):
        online = OnlineDetector(ChiSquareDetector(innovation_cov=np.eye(1), threshold=100.0))
        online.step([1.0])
        replacement = ChiSquareDetector(innovation_cov=np.eye(1), threshold=1e-6)
        online.rebind(replacement)
        assert online.detector is replacement
        assert online.step([1.0])
        with pytest.raises(ValidationError):
            online.rebind(CusumDetector(bias=0.1, threshold=1.0))

    def test_monitor_rebind_requires_matching_structure(self):
        monitor = DeadZoneMonitor(
            inner=RangeMonitor.symmetric(0, 0.1), dead_zone_samples=3
        )
        online = OnlineDetector(monitor, dt=1.0)
        online.step([0.5])
        online.step([0.5])
        # Structurally identical monitor with a wider range: the dead-zone
        # run length survives, so the 3rd straight violation still alarms.
        replacement = DeadZoneMonitor(
            inner=RangeMonitor.symmetric(0, 0.2), dead_zone_samples=3
        )
        online.rebind(replacement)
        assert online.step([0.5])
        with pytest.raises(ValidationError):
            online.rebind(RangeMonitor.symmetric(0, 0.2))

    @staticmethod
    def _nested(bound: float, samples: int, extra: bool = False, plain: bool = False):
        """A composite of two dead zones, the second wrapping a composite."""
        wrapped = CompositeMonitor(
            [RangeMonitor.symmetric(1, bound), GradientMonitor(channel=0, max_rate=10 * bound)]
        )
        second = wrapped if plain else DeadZoneMonitor(inner=wrapped, dead_zone_samples=samples)
        members = [DeadZoneMonitor(RangeMonitor.symmetric(0, bound), dead_zone_samples=samples), second]
        if extra:
            members.append(RangeMonitor.symmetric(0, bound))
        return CompositeMonitor(members)

    def test_nested_monitor_rebind_keeps_each_members_run_lengths(self):
        core = make_batched(self._nested(0.1, 4), 3, dt=1.0)
        # Instance 0 violates only channel 0, instance 1 only channel 1,
        # instance 2 both from the second sample on.
        violating = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
        first = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
        assert not core.run(np.stack([first, violating, violating])).any()
        before = core.state
        keys = [key for key in before if key.endswith(".run_length")]
        assert [list(before[key]) for key in keys] == [[3, 0, 2], [0, 3, 2]]
        deployed = core.monitor
        # A member-count mismatch, and a dead zone meeting a plain monitor,
        # leave the deployed monitor and its state untouched.
        for replacement in (self._nested(0.2, 4, extra=True), self._nested(0.2, 4, plain=True)):
            with pytest.raises(ValidationError):
                core.rebind(replacement)
            assert core.monitor is deployed
            after = core.state
            assert after.keys() == before.keys()
            assert all(np.array_equal(after[key], before[key]) for key in before)
        # A structurally matching tree with wider bounds: each member's run
        # lengths survive, so the 4th straight violation alarms.
        replacement = self._nested(0.2, 4)
        assert core.rebind(replacement) is replacement
        after = core.state
        assert all(np.array_equal(after[key], before[key]) for key in before)
        assert list(core.step(violating)) == [True, True, False]
        after = core.state
        assert [list(after[key]) for key in keys] == [[4, 0, 3], [0, 4, 3]]

    def test_base_cores_reject_unsupported_rebinding(self, dcmotor_problem):
        core = make_batched(dcmotor_problem.static_threshold(0.5), 1)
        with pytest.raises(ValidationError):
            core.rebind(CusumDetector(bias=0.1, threshold=1.0))


class TestNonFiniteResidues:
    """Every residue-detector form raises on a NaN or infinite residue.

    Before the shared guard the forms disagreed: on a constant 0.3 residue
    with one NaN at step 3, offline CUSUM (Python ``max(0.0, nan)`` resets
    the accumulator) alarmed at steps 2 and 6-11, while the online and
    batched cores (``np.maximum`` propagates the NaN) alarmed at step 2 and
    then never again.
    """

    @staticmethod
    def _residues(bad: float, m: int = 1) -> np.ndarray:
        residues = np.full((12, m), 0.3)
        residues[3, 0] = bad
        return residues

    def _assert_every_form_raises(self, detector, residues):
        forms = [
            lambda: detector.evaluate(residues),
            lambda: OnlineDetector(detector).run(residues),
            lambda: make_batched(detector, 1).run(residues[:, None, :]),
        ]
        for form in forms:
            with pytest.raises(ValidationError, match="finite"):
                form()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cusum(self, bad):
        detector = CusumDetector(bias=0.1, threshold=0.5)
        self._assert_every_form_raises(detector, self._residues(bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_threshold(self, bad):
        threshold = ThresholdVector(np.full(12, 0.5), norm=2, weights=np.array([1.0, 2.0]))
        residues = self._residues(bad, m=2)
        self._assert_every_form_raises(ResidueDetector(threshold), residues)
        with pytest.raises(ValidationError, match="finite"):
            threshold.alarms(residues)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_chi_square(self, bad):
        detector = ChiSquareDetector(innovation_cov=np.eye(2), threshold=5.0)
        self._assert_every_form_raises(detector, self._residues(bad, m=2))

    def test_finite_residues_still_alarm(self):
        # The guard rejects only non-finite input: the scenario without the
        # NaN alarms from step 2 on in every form.
        detector = CusumDetector(bias=0.1, threshold=0.5)
        residues = self._residues(0.3)
        expected = [k >= 2 for k in range(12)]
        assert detector.evaluate(residues).alarms.tolist() == expected
        assert OnlineDetector(detector).run(residues).tolist() == expected
        assert make_batched(detector, 1).run(residues[:, None, :])[:, 0].tolist() == expected
