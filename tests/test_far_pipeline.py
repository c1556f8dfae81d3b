"""Tests for the FAR evaluator."""

import numpy as np
import pytest

from repro.core.far import FalseAlarmEvaluator
from repro.noise.generators import draw_streams
from repro.noise.models import BoundedUniformNoise
from repro.utils.validation import ValidationError


class TestFalseAlarmEvaluator:
    def test_loose_detector_has_zero_far(self, trajectory_problem):
        evaluator = FalseAlarmEvaluator(trajectory_problem, count=50, seed=0)
        loose = trajectory_problem.static_threshold(100.0)
        assert evaluator.evaluate_single(loose) == 0.0

    def test_tight_detector_has_full_far(self, trajectory_problem):
        evaluator = FalseAlarmEvaluator(trajectory_problem, count=50, seed=0)
        tight = trajectory_problem.static_threshold(1e-9)
        assert evaluator.evaluate_single(tight) == 1.0

    def test_far_is_monotone_in_threshold(self, trajectory_problem):
        evaluator = FalseAlarmEvaluator(trajectory_problem, count=100, seed=1)
        rates = [
            evaluator.evaluate_single(trajectory_problem.static_threshold(value))
            for value in (0.001, 0.01, 0.05)
        ]
        assert rates[0] >= rates[1] >= rates[2]

    def test_study_bookkeeping(self, trajectory_problem):
        evaluator = FalseAlarmEvaluator(trajectory_problem, count=40, seed=2)
        study = evaluator.evaluate(
            {
                "loose": trajectory_problem.static_threshold(1.0),
                "tight": trajectory_problem.static_threshold(1e-6),
            }
        )
        assert study.generated == 40
        assert study.kept <= 40
        assert set(study.rates) == {"loose", "tight"}
        assert study.rate("tight") >= study.rate("loose")

    def test_benign_population_is_memoised_and_reproducible(self, trajectory_problem):
        evaluator = FalseAlarmEvaluator(trajectory_problem, count=20, seed=3)
        first = evaluator.benign_traces()
        second = evaluator.benign_traces()
        assert first is second
        other = FalseAlarmEvaluator(trajectory_problem, count=20, seed=3)
        np.testing.assert_allclose(
            first[0].measurement_noise, other.benign_traces()[0].measurement_noise
        )

    def test_custom_noise_model_dimension_checked(self, trajectory_problem):
        with pytest.raises(ValidationError):
            FalseAlarmEvaluator(
                trajectory_problem, noise_model=BoundedUniformNoise(bounds=[0.1, 0.1]), count=10
            )

    def test_initial_state_spread_creates_transient(self, trajectory_problem):
        plain = FalseAlarmEvaluator(trajectory_problem, count=30, seed=4)
        spread = FalseAlarmEvaluator(
            trajectory_problem,
            count=30,
            seed=4,
            initial_state_spread=np.array([0.05, 0.0]),
            filter_pfc=False,
        )
        plain_peak = np.mean([trace.residue_norms("inf").max() for trace in plain.benign_traces()])
        spread_peak = np.mean(
            [trace.residue_norms("inf").max() for trace in spread.benign_traces()]
        )
        assert spread_peak > plain_peak

    def test_initial_state_spread_validation(self, trajectory_problem):
        with pytest.raises(ValidationError):
            FalseAlarmEvaluator(trajectory_problem, count=5, initial_state_spread=np.array([0.1]))

    def test_needs_detectors(self, trajectory_problem):
        evaluator = FalseAlarmEvaluator(trajectory_problem, count=5)
        with pytest.raises(ValidationError):
            evaluator.evaluate({})

    def test_requires_noise_model_when_plant_noiseless(self, simple_closed_loop):
        from repro.core.problem import SynthesisProblem
        from repro.core.specs import ReachSetCriterion

        noiseless_plant = simple_closed_loop.plant.without_noise()
        from repro.lti.simulate import ClosedLoopSystem

        system = ClosedLoopSystem(
            plant=noiseless_plant, K=simple_closed_loop.K, L=simple_closed_loop.L
        )
        problem = SynthesisProblem(
            system=system,
            pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=1.0),
            horizon=5,
        )
        with pytest.raises(ValidationError):
            FalseAlarmEvaluator(problem, count=5)


class TestVectorizedAgainstSequentialReference:
    """The batched FAR path must reproduce the historical per-trace loop."""

    @staticmethod
    def sequential_rates(problem, detectors, count, seed, initial_state_spread=None):
        """The pre-vectorization implementation: one Python simulation per trial.

        Its noise is the shared block draw; trial ``i`` takes row ``i``.
        """
        noise_model = FalseAlarmEvaluator.default_noise_model(problem)
        streams = draw_streams(
            seed, count, problem.horizon, noise_model, x0_spread=initial_state_spread
        )
        kept = []
        discarded_pfc = discarded_mdc = 0
        for i, measurement_noise in enumerate(streams.measurement):
            x0 = None
            if initial_state_spread is not None:
                x0 = problem.x0 + streams.x0_offsets[i]
            trace = problem.simulate(
                attack=None, with_noise=False, x0=x0, measurement_noise=measurement_noise
            )
            if not problem.pfc_satisfied(trace):
                discarded_pfc += 1
                continue
            if problem.mdc_alarm(trace):
                discarded_mdc += 1
                continue
            kept.append(trace)
        rates = {
            label: float(
                np.mean([bool(np.any(threshold.alarms(trace.residues))) for trace in kept])
            )
            for label, threshold in detectors.items()
        }
        return rates, len(kept), discarded_pfc, discarded_mdc

    @pytest.mark.parametrize("spread", [None, np.array([0.05, 0.0])])
    def test_identical_rates_and_bookkeeping(self, trajectory_problem, spread):
        detectors = {
            "loose": trajectory_problem.static_threshold(1.0),
            "mid": trajectory_problem.static_threshold(0.02),
            "tight": trajectory_problem.static_threshold(1e-6),
        }
        evaluator = FalseAlarmEvaluator(
            trajectory_problem, count=60, seed=11, initial_state_spread=spread
        )
        study = evaluator.evaluate(detectors)
        rates, kept, discarded_pfc, discarded_mdc = self.sequential_rates(
            trajectory_problem, detectors, count=60, seed=11, initial_state_spread=spread
        )
        assert study.kept == kept
        assert study.discarded_pfc == discarded_pfc
        assert study.discarded_mdc == discarded_mdc
        assert study.rates == rates

    def test_traces_match_the_sequential_simulator(self, trajectory_problem):
        evaluator = FalseAlarmEvaluator(trajectory_problem, count=10, seed=5, filter_pfc=False)
        traces = evaluator.benign_traces()
        streams = draw_streams(5, 10, trajectory_problem.horizon, evaluator.noise_model)
        for trace, measurement_noise in zip(traces, streams.measurement):
            reference = trajectory_problem.simulate(measurement_noise=measurement_noise)
            np.testing.assert_allclose(
                trace.residues, reference.residues, rtol=1e-10, atol=1e-12
            )
