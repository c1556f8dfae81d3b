"""Integration and property-based tests across the whole stack.

These tests exercise the complete flow (plant -> closed loop -> attack
synthesis -> threshold synthesis -> detection) and check the cross-cutting
invariants the library's guarantees rest on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PivotThresholdSynthesizer,
    ResidueDetector,
    StepwiseThresholdSynthesizer,
    synthesize_attack,
)
from repro.attacks.templates import BiasAttack, GeometricAttack, RampAttack
from repro.systems import build_dcmotor_case_study, build_trajectory_case_study
from repro.utils.results import SolveStatus
from synthesis_oracle import verify_no_attack


class TestEndToEndTrajectory:
    """The full Fig. 1 storyline as one integration test."""

    def test_synthesis_then_detection(self, trajectory_problem):
        # 1. the unprotected loop is attackable
        attack = synthesize_attack(trajectory_problem, threshold=None, backend="lp")
        assert attack.found

        # 2. synthesize a variable threshold; it certifies security
        synthesis = StepwiseThresholdSynthesizer(backend="lp", max_rounds=300).synthesize(
            trajectory_problem
        )
        assert synthesis.converged

        # 3. the detector built from it flags the previously found attack
        detector = ResidueDetector(synthesis.threshold)
        assert detector.detects(attack.trace.residues)

        # 4. and the solver confirms no stealthy attack remains at all
        assert verify_no_attack(trajectory_problem, synthesis.threshold, backend="lp")

    def test_synthesized_threshold_flags_every_successful_template_attack(
        self, trajectory_problem
    ):
        """Any parametric attack that breaks pfc while passing the monitors is caught."""
        synthesis = PivotThresholdSynthesizer(backend="lp", max_rounds=300).synthesize(
            trajectory_problem
        )
        assert synthesis.converged
        detector = ResidueDetector(synthesis.threshold)
        templates = [
            BiasAttack(bias=0.3, start=2),
            BiasAttack(bias=-0.4, start=0),
            RampAttack(slope=0.05, start=0),
            GeometricAttack(initial=0.02, ratio=1.4),
        ]
        for template in templates:
            attack = template.generate(trajectory_problem.horizon, trajectory_problem.n_outputs)
            trace = trajectory_problem.simulate(attack=attack)
            successful = (
                not trajectory_problem.pfc_satisfied(trace)
            ) and not trajectory_problem.mdc_alarm(trace)
            if successful:
                assert detector.detects(trace.residues), (
                    f"template {attack.metadata} broke pfc stealthily but was not detected"
                )


class TestGuaranteeInvariants:
    """Properties that must hold regardless of parameters."""

    @settings(max_examples=8, deadline=None)
    @given(bound=st.floats(min_value=0.05, max_value=2.0))
    def test_tighter_static_threshold_never_helps_the_attacker(self, bound):
        """If a static threshold blocks all attacks, every smaller one does too."""
        problem = build_dcmotor_case_study(horizon=10).problem
        result = synthesize_attack(problem, threshold=problem.static_threshold(bound))
        if result.status is SolveStatus.UNSAT:
            tighter = synthesize_attack(
                problem, threshold=problem.static_threshold(bound / 2.0)
            )
            assert tighter.status is SolveStatus.UNSAT

    @settings(max_examples=8, deadline=None)
    @given(bound=st.floats(min_value=0.05, max_value=2.0))
    def test_found_attacks_are_always_verified(self, bound):
        problem = build_dcmotor_case_study(horizon=10).problem
        result = synthesize_attack(problem, threshold=problem.static_threshold(bound))
        if result.found:
            assert result.verified

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_detector_agrees_with_problem_norms(self, seed):
        """ResidueDetector and SynthesisProblem compute identical alarm verdicts."""
        problem = build_trajectory_case_study().problem
        rng = np.random.default_rng(seed)
        residues = rng.normal(scale=0.05, size=(problem.horizon, problem.n_outputs))
        threshold = problem.static_threshold(float(rng.uniform(0.01, 0.1)))
        detector = ResidueDetector(threshold)
        assert detector.detects(residues) == bool(np.any(threshold.alarms(residues)))

    def test_synthesis_is_deterministic(self, trajectory_problem):
        """Two runs of the same synthesis produce identical thresholds."""
        first = PivotThresholdSynthesizer(backend="lp", max_rounds=200).synthesize(
            trajectory_problem
        )
        second = PivotThresholdSynthesizer(backend="lp", max_rounds=200).synthesize(
            trajectory_problem
        )
        np.testing.assert_allclose(first.threshold.values, second.threshold.values)
        assert first.rounds == second.rounds

    def test_monitorless_problem_is_weakly_harder_to_secure(self):
        """Removing the monitors can only lower (or keep) the safe static threshold."""
        from repro.core.static_synthesis import StaticThresholdSynthesizer

        with_monitors = build_dcmotor_case_study(horizon=12).problem
        without_monitors = build_dcmotor_case_study(horizon=12, with_monitors=False).problem
        synthesizer = StaticThresholdSynthesizer(backend="lp", tolerance=5e-3)
        c_with = synthesizer.synthesize(with_monitors).threshold.values[0]
        c_without = synthesizer.synthesize(without_monitors).threshold.values[0]
        assert c_without <= c_with + 5e-3
