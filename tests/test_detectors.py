"""Unit tests for threshold vectors, residue detectors and the baselines."""

import numpy as np
import pytest

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.residue import ResidueDetector
from repro.detectors.threshold import ThresholdVector
from repro.utils.validation import ValidationError


class TestThresholdVector:
    def test_static_and_unset_constructors(self):
        static = ThresholdVector.static(0.5, 4)
        assert static.is_static and static.is_fully_set
        unset = ThresholdVector.unset(4)
        assert not unset.is_fully_set
        assert unset.set_indices().size == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            ThresholdVector(np.array([-1.0]))

    def test_variable_detection(self):
        assert ThresholdVector(np.array([2.0, 1.0])).is_variable
        assert not ThresholdVector(np.array([1.0, 1.0])).is_variable

    def test_monotone_decreasing_ignores_unset(self):
        values = np.array([3.0, np.inf, 2.0, np.inf, 1.0])
        assert ThresholdVector(values).is_monotone_decreasing()
        assert not ThresholdVector(np.array([1.0, 2.0])).is_monotone_decreasing()

    def test_monotone_cap(self):
        th = ThresholdVector(np.array([2.0, np.inf, np.inf]))
        assert th.monotone_cap(2, 5.0) == pytest.approx(2.0)
        assert th.monotone_cap(2, 1.0) == pytest.approx(1.0)
        assert th.monotone_cap(0, 9.0) == pytest.approx(9.0)

    def test_clamp_successors(self):
        th = ThresholdVector(np.array([3.0, 2.5, 2.8, np.inf]))
        th.clamp_successors(1)
        np.testing.assert_allclose(th.values[:3], [3.0, 2.5, 2.5])
        assert not th.is_set(3)

    def test_fill_step_and_edges(self):
        th = ThresholdVector.unset(5)
        th.fill_step(0, 2, 3.0)
        th.fill_step(3, 4, 1.0)
        assert th.step_edges() == [3]
        assert th.is_staircase()

    def test_effective_extension_and_truncation(self):
        th = ThresholdVector(np.array([2.0, 1.0]))
        np.testing.assert_allclose(th.effective(4), [2.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(th.effective(1), [2.0])

    def test_alarm_semantics_at_equality(self):
        th = ThresholdVector(np.array([1.0, 1.0]))
        residues = np.array([[1.0], [0.5]])
        np.testing.assert_array_equal(th.alarms(residues), [True, False])
        assert not th.admits(residues)

    def test_weighted_norms(self):
        th = ThresholdVector(np.array([1.0]), weights=np.array([0.1, 10.0]))
        residues = np.array([[0.2, 5.0]])
        # Weighted: max(0.2/0.1, 5/10) = 2.0
        assert th.residue_norms(residues)[0] == pytest.approx(2.0)
        assert th.alarms(residues)[0]

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            ThresholdVector(np.array([1.0]), weights=np.array([0.0]))

    def test_norm_options(self):
        residues = np.array([[3.0, 4.0]])
        assert ThresholdVector(np.array([1.0]), norm=2).residue_norms(residues)[0] == pytest.approx(5.0)
        assert ThresholdVector(np.array([1.0]), norm="inf").residue_norms(residues)[0] == pytest.approx(4.0)
        assert ThresholdVector(np.array([1.0]), norm=1).residue_norms(residues)[0] == pytest.approx(7.0)
        with pytest.raises(ValidationError):
            ThresholdVector(np.array([1.0]), norm=3)

    def test_copy_is_deep(self):
        th = ThresholdVector(np.array([1.0, 2.0]), weights=np.array([1.0]))
        other = th.copy()
        other.set_value(0, 5.0)
        assert th[0] == 1.0


class TestResidueDetector:
    def test_static_constructor_and_detection(self):
        detector = ResidueDetector.static(0.5, 3)
        residues = np.array([[0.1], [0.6], [0.2]])
        result = detector.evaluate(residues)
        assert result.detected
        assert result.first_alarm == 1
        assert result.alarm_count == 1

    def test_stealthy_sequence(self):
        detector = ResidueDetector.static(1.0, 3)
        residues = np.full((3, 1), 0.5)
        assert detector.is_stealthy(residues)
        assert detector.evaluate(residues).first_alarm is None

    def test_variable_threshold_behaviour(self):
        detector = ResidueDetector(ThresholdVector(np.array([1.0, 0.1])))
        residues = np.array([[0.5], [0.5]])
        result = detector.evaluate(residues)
        np.testing.assert_array_equal(result.alarms, [False, True])

    def test_evaluate_trace(self, simple_closed_loop):
        from repro.lti.simulate import SimulationOptions, simulate_closed_loop

        trace = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=10))
        detector = ResidueDetector.static(10.0, 10)
        result = detector.evaluate_trace(trace)
        assert not result.detected


class TestPopulationRates:
    """Alarm rates over residue populations, read off ``evaluate`` per run."""

    @staticmethod
    def _rate(detector, population):
        return np.mean([detector.evaluate(residues).detected for residues in population])

    def test_rates_fall_as_the_static_threshold_rises(self):
        rng = np.random.default_rng(0)
        benign = [rng.normal(scale=0.5, size=(6, 1)) for _ in range(40)]
        attacked = [residues + 1.0 for residues in benign]
        values = [0.1, 0.5, 1.0, 2.0, 5.0]
        fars = [self._rate(ResidueDetector.static(v, 6), benign) for v in values]
        hits = [self._rate(ResidueDetector.static(v, 6), attacked) for v in values]
        assert fars == sorted(fars, reverse=True)
        assert hits == sorted(hits, reverse=True)
        assert fars[0] == 1.0 and hits[-1] == 0.0

    def test_first_alarm_is_the_detection_delay(self):
        detector = ResidueDetector.static(1.0, 5)
        late = np.vstack([np.zeros((3, 1)), np.full((2, 1), 2.0)])
        assert detector.evaluate(late).first_alarm == 3
        assert detector.evaluate(np.zeros((5, 1))).first_alarm is None


class TestChiSquare:
    def test_threshold_from_false_alarm_probability(self):
        detector = ChiSquareDetector.from_false_alarm_probability(np.eye(2), 0.05)
        assert detector.threshold == pytest.approx(5.99, rel=1e-2)

    def test_detects_large_residue(self):
        detector = ChiSquareDetector(innovation_cov=np.eye(2), threshold=4.0)
        assert detector.detects(np.array([[3.0, 0.0]]))
        assert not detector.detects(np.array([[1.0, 0.0]]))

    def test_empirical_false_alarm_rate(self):
        rng = np.random.default_rng(0)
        detector = ChiSquareDetector.from_false_alarm_probability(np.eye(1), 0.05)
        samples = rng.normal(size=(20000, 1))
        rate = np.mean(detector.statistics(samples) >= detector.threshold)
        assert rate == pytest.approx(0.05, abs=0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            ChiSquareDetector(np.eye(2), threshold=-1.0)
        with pytest.raises(ValidationError):
            ChiSquareDetector.from_false_alarm_probability(np.eye(2), 0.0)


class TestCusum:
    def test_accumulates_persistent_shift(self):
        detector = CusumDetector(bias=0.5, threshold=2.0)
        residues = np.full((10, 1), 1.0)
        statistics = detector.statistics(residues)
        assert statistics[-1] == pytest.approx(5.0)
        assert detector.detects(residues)

    def test_ignores_small_residues(self):
        detector = CusumDetector(bias=0.5, threshold=2.0)
        assert not detector.detects(np.full((10, 1), 0.2))

    def test_resets_towards_zero(self):
        detector = CusumDetector(bias=1.0, threshold=10.0)
        residues = np.array([[2.0], [0.0], [0.0], [0.0]])
        statistics = detector.statistics(residues)
        assert statistics[-1] == pytest.approx(0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            CusumDetector(bias=0.0, threshold=1.0)
        with pytest.raises(ValidationError):
            CusumDetector(bias=1.0, threshold=1.0, norm=5)
