"""Tests for the greedy threshold-relaxation post-pass."""

import numpy as np
import pytest

from repro.core.pivot import PivotThresholdSynthesizer
from repro.core.relaxation import ThresholdRelaxer
from synthesis_oracle import verify_no_attack


@pytest.fixture(scope="module")
def safe_threshold(trajectory_problem):
    return PivotThresholdSynthesizer(backend="lp", max_rounds=200).synthesize(
        trajectory_problem
    ).threshold


class TestRelaxer:
    def test_relaxed_vector_is_pointwise_larger(self, trajectory_problem, safe_threshold):
        relaxer = ThresholdRelaxer(backend="lp")
        result = relaxer.relax(trajectory_problem, safe_threshold)
        assert result.certified
        before = safe_threshold.effective(trajectory_problem.horizon)
        after = result.threshold.effective(trajectory_problem.horizon)
        assert np.all(after >= before - 1e-12)

    def test_relaxed_vector_still_blocks_all_attacks(self, trajectory_problem, safe_threshold):
        relaxer = ThresholdRelaxer(backend="lp")
        result = relaxer.relax(trajectory_problem, safe_threshold)
        assert verify_no_attack(trajectory_problem, result.threshold, backend="lp")

    def test_monotonicity_preserved(self, trajectory_problem, safe_threshold):
        relaxer = ThresholdRelaxer(backend="lp")
        result = relaxer.relax(trajectory_problem, safe_threshold)
        assert result.threshold.is_monotone_decreasing()

    def test_unsafe_input_is_not_certified(self, trajectory_problem):
        relaxer = ThresholdRelaxer(backend="lp")
        loose = trajectory_problem.static_threshold(100.0)
        result = relaxer.relax(trajectory_problem, loose)
        assert not result.certified
        np.testing.assert_allclose(result.threshold.values, loose.values)

    def test_input_not_modified(self, trajectory_problem, safe_threshold):
        snapshot = safe_threshold.values.copy()
        ThresholdRelaxer(backend="lp").relax(trajectory_problem, safe_threshold)
        np.testing.assert_allclose(safe_threshold.values, snapshot)

    def test_history_records_decisions(self, trajectory_problem, safe_threshold):
        result = ThresholdRelaxer(backend="lp").relax(trajectory_problem, safe_threshold)
        assert result.rounds >= len(result.history)
        assert all("raise Th[" in record.action for record in result.history)

    def test_raise_cap(self, trajectory_problem, safe_threshold):
        capped = ThresholdRelaxer(backend="lp", raise_cap=0.05).relax(
            trajectory_problem, safe_threshold, verify_input=False
        )
        finite = capped.threshold.values[np.isfinite(capped.threshold.values)]
        original_finite = safe_threshold.values[np.isfinite(safe_threshold.values)]
        assert np.all(finite <= np.maximum(original_finite, 0.05) + 1e-12)
