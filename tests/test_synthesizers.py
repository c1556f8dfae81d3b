"""Tests for Algorithms 2 and 3, the static baseline and their round ledger."""

import numpy as np
import pytest

from repro.core.attack_synthesis import synthesize_attack
from repro.core.pivot import PivotThresholdSynthesizer
from repro.core.relaxation import ThresholdRelaxer
from repro.core.session import SynthesisSession
from repro.core.static_synthesis import StaticThresholdSynthesizer
from repro.core.stepwise import StepwiseThresholdSynthesizer, min_area_rectangle
from repro.detectors.threshold import ThresholdVector
from repro.registry import available_case_studies, get_case_study
from repro.utils.results import SolveStatus
from repro.utils.validation import ValidationError
from synthesis_oracle import verify_no_attack


class _RecordingSession:
    """A session that keeps every ``(threshold, answer)`` round it served."""

    def __init__(self, problem):
        self._session = SynthesisSession(problem)
        self.rounds = []

    def solve(self, threshold=None, time_budget=None):
        answer = self._session.solve(threshold, time_budget=time_budget)
        self.rounds.append((threshold, answer))
        return answer

    def decide(self, threshold, time_budget=None):
        answer = self._session.decide(threshold, time_budget=time_budget)
        self.rounds.append((threshold, answer))
        return answer


@pytest.fixture(scope="module")
def pivot_result(trajectory_problem):
    return PivotThresholdSynthesizer(backend="lp", max_rounds=200).synthesize(trajectory_problem)


@pytest.fixture(scope="module")
def stepwise_result(trajectory_problem):
    return StepwiseThresholdSynthesizer(backend="lp", max_rounds=200).synthesize(trajectory_problem)


@pytest.fixture(scope="module")
def static_result(trajectory_problem):
    return StaticThresholdSynthesizer(backend="lp").synthesize(trajectory_problem)


class TestPivotSynthesis:
    def test_converges(self, pivot_result):
        assert pivot_result.converged
        assert pivot_result.status is SolveStatus.UNSAT
        assert pivot_result.vulnerable_without_detector

    def test_threshold_blocks_all_attacks(self, trajectory_problem, pivot_result):
        assert verify_no_attack(trajectory_problem, pivot_result.threshold, backend="lp")

    def test_monotone_decreasing(self, pivot_result):
        assert pivot_result.threshold.is_monotone_decreasing()

    def test_history_recorded(self, pivot_result):
        assert len(pivot_result.history) >= 1
        assert pivot_result.rounds >= len(pivot_result.history)

    def test_invalid_pivot_rule(self):
        with pytest.raises(ValidationError):
            PivotThresholdSynthesizer(pivot_rule="bogus")

    def test_ablation_pivot_rule_also_converges(self, trajectory_problem):
        result = PivotThresholdSynthesizer(
            backend="lp", max_rounds=200, pivot_rule="first-violation"
        ).synthesize(trajectory_problem)
        assert result.converged

    def test_secure_problem_needs_no_threshold(self, dcmotor_problem):
        """With a tiny attack bound the monitors alone stop every attack."""
        import dataclasses

        secure = dataclasses.replace(dcmotor_problem, attack_bound=1e-6)
        result = PivotThresholdSynthesizer(backend="lp").synthesize(secure)
        assert not result.vulnerable_without_detector
        assert result.converged
        assert result.threshold.set_indices().size == 0


class TestStepwiseSynthesis:
    def test_converges(self, stepwise_result):
        assert stepwise_result.converged

    def test_threshold_blocks_all_attacks(self, trajectory_problem, stepwise_result):
        assert verify_no_attack(trajectory_problem, stepwise_result.threshold, backend="lp")

    def test_staircase_structure(self, stepwise_result):
        threshold = stepwise_result.threshold
        assert threshold.is_fully_set
        assert threshold.is_monotone_decreasing()

    def test_faster_than_pivot(self, pivot_result, stepwise_result):
        """The paper's headline scheduling result: Algorithm 3 needs fewer rounds."""
        assert stepwise_result.rounds <= pivot_result.rounds

    def test_fixed_width_ablation_converges(self, trajectory_problem):
        result = StepwiseThresholdSynthesizer(
            backend="lp", max_rounds=300, step_rule="fixed-width"
        ).synthesize(trajectory_problem)
        assert result.converged


class TestMinAreaRectangle:
    def test_picks_cheapest_cut(self):
        threshold = ThresholdVector(np.array([5.0, 3.0, 1.0]))
        norms = np.array([4.0, 1.5, 0.2])
        # Cutting at index 0 removes 1+1.5+0.8, at index 1 removes 1.5+0,
        # at index 2 removes 0.8 -> index 2 is the cheapest.
        assert min_area_rectangle(norms, threshold) == 2

    def test_respects_floor(self):
        threshold = ThresholdVector(np.array([5.0, 1.0]))
        norms = np.array([4.0, 0.0])
        assert min_area_rectangle(norms, threshold, floor=2.0) == 0

    def test_none_when_no_candidate(self):
        threshold = ThresholdVector(np.array([1.0, 1.0]))
        norms = np.array([2.0, 3.0])
        assert min_area_rectangle(norms, threshold) is None

    def test_ignores_unset_entries(self):
        threshold = ThresholdVector(np.array([np.inf, 2.0]))
        norms = np.array([5.0, 1.0])
        assert min_area_rectangle(norms, threshold) == 1


class TestStaticSynthesis:
    def test_converges_and_blocks(self, trajectory_problem, static_result):
        assert static_result.converged
        assert static_result.threshold.is_static
        assert verify_no_attack(trajectory_problem, static_result.threshold, backend="lp")

    def test_value_is_maximal_up_to_tolerance(self, trajectory_problem, static_result):
        """A slightly larger static threshold must admit an attack again."""
        value = static_result.threshold.values[0]
        synthesizer = StaticThresholdSynthesizer(backend="lp")
        larger = trajectory_problem.static_threshold(value + 10 * synthesizer.tolerance)
        result = synthesize_attack(trajectory_problem, threshold=larger, backend="lp")
        assert result.found

    def test_static_is_below_variable_maxima(self, static_result, pivot_result):
        """The safe static value cannot exceed the largest variable threshold."""
        finite = pivot_result.threshold.values[np.isfinite(pivot_result.threshold.values)]
        assert static_result.threshold.values[0] <= np.max(finite) + 1e-6

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            StaticThresholdSynthesizer(tolerance=0.0)

    @pytest.mark.parametrize("max_rounds", [1, 2, 3])
    def test_no_safe_probe_takes_threshold_zeros_own_verdict(
        self, small_dcmotor_problem, max_rounds
    ):
        # A tolerance above the (unsafe) upper end skips the bisection, so no
        # probe is safe.  After the detector-free round, the upper probe and
        # then threshold 0 each get one round of their own if the cap leaves
        # room.
        session = _RecordingSession(small_dcmotor_problem)
        result = StaticThresholdSynthesizer(tolerance=1e9, max_rounds=max_rounds).synthesize(
            small_dcmotor_problem, session=session
        )
        assert np.all(result.threshold.values == 0.0)
        last_threshold, last_answer = session.rounds[-1]
        if max_rounds > 2:
            assert result.rounds == 3
            assert np.all(last_threshold.values == 0.0)
            assert result.status is last_answer.status
            assert result.converged == (last_answer.status is SolveStatus.UNSAT)
        else:
            assert result.rounds == max_rounds
            assert last_threshold is None or not np.all(last_threshold.values == 0.0)
            assert result.status is SolveStatus.UNKNOWN
            assert not result.converged


class TestRoundCap:
    """A loop stopped by ``max_rounds`` reports UNKNOWN wherever the cap falls."""

    @pytest.mark.parametrize("name", available_case_studies())
    @pytest.mark.parametrize(
        "synthesizer",
        [PivotThresholdSynthesizer, StepwiseThresholdSynthesizer, StaticThresholdSynthesizer],
    )
    def test_capped_run_is_unknown_unless_converged(self, name, synthesizer):
        problem = get_case_study(name).problem
        for max_rounds in range(1, 5):
            result = synthesizer(max_rounds=max_rounds).synthesize(problem)
            assert result.rounds <= max_rounds
            expected = SolveStatus.UNSAT if result.converged else SolveStatus.UNKNOWN
            assert result.status is expected, (max_rounds, result.status)


class TestSynthesisRun:
    """The round ledger on real runs; scripted cases are in test_synthesis_session.py."""

    def test_round_index_counts_algorithm_1_calls_from_one(
        self, trajectory_problem, pivot_result, stepwise_result, static_result
    ):
        # The refinement loops record every round but the final UNSAT one.
        for result in (pivot_result, stepwise_result):
            assert result.converged
            assert [r.round_index for r in result.history] == list(range(1, result.rounds))
        # Static records each probe after the detector-free call.
        assert [r.round_index for r in static_result.history] == list(
            range(2, static_result.rounds + 1)
        )
        # Relaxation records each raise after the input check.
        relaxed = ThresholdRelaxer().relax(trajectory_problem, pivot_result.threshold)
        assert [r.round_index for r in relaxed.history] == list(range(2, relaxed.rounds + 1))

    def test_loops_hold_no_bookkeeping_of_their_own(self):
        import inspect

        from repro.core import pivot, relaxation, static_synthesis, stepwise

        for module in (pivot, stepwise, static_synthesis, relaxation):
            source = inspect.getsource(module)
            for name in (
                "SynthesisSession(",
                "SynthesisRecord(",
                "ThresholdSynthesisResult(",
                "rounds +=",
                ".elapsed",
            ):
                assert name not in source, (module.__name__, name)
