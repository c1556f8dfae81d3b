"""Tests for Algorithm 1 (attack-vector synthesis) and the solver backends."""

import dataclasses

import numpy as np
import pytest

from repro import get_case_study
from repro.core.attack_synthesis import synthesize_attack
from repro.falsification.lp_backend import LPAttackBackend
from repro.falsification.optimizer import OptimizationFalsifier
from repro.falsification.registry import available_backends, get_backend
from repro.utils.results import SolveStatus
from repro.utils.validation import ValidationError


class TestRegistry:
    def test_available(self):
        assert available_backends() == ["lp", "optimizer"]

    def test_get_by_name_and_instance(self):
        backend = get_backend("lp")
        assert isinstance(backend, LPAttackBackend)
        assert get_backend(backend) is backend
        assert isinstance(get_backend("optimizer"), OptimizationFalsifier)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            get_backend("z3")

    def test_lp_margin_mode_validation(self):
        with pytest.raises(ValidationError):
            LPAttackBackend(margin_mode="bogus")


class TestAlgorithm1OnTrajectory:
    def test_attack_exists_without_detector(self, trajectory_problem):
        result = synthesize_attack(trajectory_problem, threshold=None, backend="lp")
        assert result.found
        assert result.verified
        assert result.attack.horizon == trajectory_problem.horizon
        # The synthesized attack indeed breaks the performance criterion...
        assert not trajectory_problem.pfc_satisfied(result.trace)
        # ... while staying invisible to the existing monitors.
        assert not trajectory_problem.mdc_alarm(result.trace)

    def test_bool_protocol(self, trajectory_problem):
        result = synthesize_attack(trajectory_problem, threshold=None)
        assert bool(result) is True

    def test_tight_threshold_blocks_attacks(self, trajectory_problem):
        # A very small static threshold leaves the attacker no room at all.
        threshold = trajectory_problem.static_threshold(1e-4)
        result = synthesize_attack(trajectory_problem, threshold=threshold, backend="lp")
        assert result.status is SolveStatus.UNSAT
        assert not result.found

    def test_loose_threshold_admits_attack_and_attack_is_stealthy(self, trajectory_problem):
        threshold = trajectory_problem.static_threshold(10.0)
        result = synthesize_attack(trajectory_problem, threshold=threshold, backend="lp")
        assert result.found
        assert not trajectory_problem.detector_alarm(result.trace, threshold)

    def test_residue_norms_are_consistent(self, trajectory_problem):
        result = synthesize_attack(trajectory_problem, threshold=None)
        expected = trajectory_problem.residue_norms(result.trace.residues)
        np.testing.assert_allclose(result.residue_norms, expected)

    def test_monitors_restrict_the_attacker(self, trajectory_problem):
        """Dropping the monitors can only enlarge the attacker's damage."""
        no_mdc = dataclasses.replace(
            trajectory_problem, mdc=type(trajectory_problem.mdc).empty()
        )
        with_monitors = synthesize_attack(trajectory_problem, threshold=None)
        without_monitors = synthesize_attack(no_mdc, threshold=None)
        assert with_monitors.found and without_monitors.found


class TestAlgorithm1OnDCMotor:
    def test_attack_exists(self, dcmotor_problem):
        result = synthesize_attack(dcmotor_problem, threshold=None, backend="lp")
        assert result.found
        assert result.verified

    def test_unknown_for_optimizer_when_it_fails(self, dcmotor_problem):
        # The optimizer is incomplete: with essentially no budget it reports UNKNOWN.
        backend = OptimizationFalsifier(restarts=1, iterations_per_restart=1, seed=0)
        threshold = dcmotor_problem.static_threshold(1e-6)
        result = synthesize_attack(dcmotor_problem, threshold=threshold, backend=backend)
        assert result.status in (SolveStatus.UNKNOWN, SolveStatus.UNSAT)

    def test_attack_bound_is_respected(self, dcmotor_problem):
        result = synthesize_attack(dcmotor_problem, threshold=None, backend="lp")
        bound = float(dcmotor_problem.attack_bound)
        assert result.attack.peak() <= bound + 1e-6


class TestBackendAgreement:
    """The optimizer cross-checks the LP backend: its verified SATs are LP SATs."""

    @pytest.mark.parametrize(
        "problem_fixture", ["small_dcmotor_problem", "small_trajectory_problem"]
    )
    @pytest.mark.parametrize("threshold_value", [None, 10.0, 1e-4])
    def test_optimizer_sat_implies_lp_sat(self, request, problem_fixture, threshold_value):
        problem = request.getfixturevalue(problem_fixture)
        threshold = (
            None if threshold_value is None else problem.static_threshold(threshold_value)
        )
        lp = synthesize_attack(problem, threshold=threshold, backend="lp")
        optimizer = synthesize_attack(
            problem, threshold=threshold, backend=OptimizationFalsifier(seed=0)
        )
        assert optimizer.status is not SolveStatus.UNSAT
        if optimizer.found and optimizer.verified:
            assert lp.found and lp.verified


class TestSplitQueries:
    """Queries the removed in-house SMT backend answered UNSAT: a real attack exists."""

    @pytest.mark.parametrize("case, level", [("vsc", 5.0), ("cruise", 0.5)])
    def test_lp_finds_the_replayed_stealthy_attack(self, case, level):
        problem = get_case_study(case).problem
        threshold = problem.static_threshold(level)
        result = synthesize_attack(problem, threshold=threshold, backend="lp")
        assert result.status is SolveStatus.SAT
        assert result.verified
        assert not problem.pfc_satisfied(result.trace)
        assert not problem.mdc_alarm(result.trace)
        assert not problem.detector_alarm(result.trace, threshold)


class TestOptimizerBackend:
    def test_optimizer_attack_is_verified_when_found(self, small_trajectory_problem):
        problem = small_trajectory_problem
        backend = OptimizationFalsifier(restarts=20, iterations_per_restart=400, seed=1)
        result = synthesize_attack(problem, threshold=None, backend=backend)
        if result.found:
            assert result.verified
        else:
            assert result.status is SolveStatus.UNKNOWN
