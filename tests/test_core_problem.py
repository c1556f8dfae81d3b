"""Unit tests for the SynthesisProblem container."""


import numpy as np
import pytest

from repro.attacks.fdi import FDIAttack
from repro.core.problem import SynthesisProblem
from repro.core.specs import ReachSetCriterion
from repro.lti.model import StateSpace
from repro.lti.simulate import ClosedLoopSystem
from repro.monitors.composite import CompositeMonitor
from repro.monitors.range_monitor import RangeMonitor
from repro.utils.validation import ValidationError


def _problem_with_outputs(m, residue_norm="inf", residue_weights=None):
    """A two-state problem measured on ``m`` channels (for norm checks only)."""
    plant = StateSpace(
        A=0.5 * np.eye(2), B=np.array([[0.0], [1.0]]), C=np.ones((m, 2)), dt=0.1
    )
    system = ClosedLoopSystem(plant=plant, K=np.zeros((1, 2)), L=np.zeros((2, m)))
    return SynthesisProblem(
        system=system,
        pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=0.1),
        horizon=5,
        residue_norm=residue_norm,
        residue_weights=residue_weights,
    )


class TestConstruction:
    def test_defaults(self, simple_closed_loop):
        problem = SynthesisProblem(
            system=simple_closed_loop,
            pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=0.1),
            horizon=10,
        )
        assert problem.n_outputs == 1
        np.testing.assert_allclose(problem.x0, np.zeros(2))
        assert problem.attack_mask.attackable == (0,)
        assert len(problem.mdc) == 0

    def test_rejects_bad_horizon(self, simple_closed_loop):
        with pytest.raises(ValidationError):
            SynthesisProblem(
                system=simple_closed_loop,
                pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=0.1),
                horizon=0,
            )

    def test_rejects_pfc_beyond_horizon(self, simple_closed_loop):
        with pytest.raises(ValidationError):
            SynthesisProblem(
                system=simple_closed_loop,
                pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=0.1, at=20),
                horizon=10,
            )

    def test_rejects_bad_weights(self, simple_closed_loop):
        with pytest.raises(ValidationError):
            SynthesisProblem(
                system=simple_closed_loop,
                pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=0.1),
                horizon=5,
                residue_weights=np.array([1.0, 2.0]),
            )

    def test_threshold_factories_carry_settings(self, trajectory_problem):
        fresh = trajectory_problem.fresh_threshold()
        assert fresh.length == trajectory_problem.horizon
        assert not fresh.is_fully_set
        static = trajectory_problem.static_threshold(0.3)
        assert static.is_static
        assert static[0] == 0.3


class TestVerdicts:
    def test_nominal_satisfies_pfc(self, trajectory_problem):
        trace = trajectory_problem.simulate()
        assert trajectory_problem.pfc_satisfied(trace)
        assert not trajectory_problem.mdc_alarm(trace)

    def test_detector_alarm(self, trajectory_problem):
        trace = trajectory_problem.simulate(with_noise=True, seed=0)
        tight = trajectory_problem.static_threshold(1e-9)
        loose = trajectory_problem.static_threshold(1e3)
        assert trajectory_problem.detector_alarm(trace, tight)
        assert not trajectory_problem.detector_alarm(trace, loose)

    def test_noiseless_nominal_residues_are_zero(self, trajectory_problem):
        """With matching initial states and no noise the innovation is identically zero."""
        trace = trajectory_problem.simulate()
        assert float(np.max(np.abs(trace.residues))) < 1e-12

    def test_successful_stealthy_attack_requires_all_three(self, trajectory_problem):
        # A huge, obvious attack violates pfc but is caught by the detector.
        values = np.full((trajectory_problem.horizon, 1), 0.5)
        trace = trajectory_problem.simulate(attack=FDIAttack(values))
        tight = trajectory_problem.static_threshold(0.01)
        assert not trajectory_problem.is_successful_stealthy_attack(trace, tight)
        # Without any detector the same attack may count as successful if it
        # evades the monitors and breaks pfc.
        if not trajectory_problem.pfc_satisfied(trace) and not trajectory_problem.mdc_alarm(trace):
            assert trajectory_problem.is_successful_stealthy_attack(trace, None)

    def test_mdc_alarm_detects_range_violation(self, simple_closed_loop):
        mdc = CompositeMonitor(monitors=[RangeMonitor(channel=0, low=-0.1, high=0.1)])
        problem = SynthesisProblem(
            system=simple_closed_loop,
            pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=10.0),
            horizon=5,
            mdc=mdc,
        )
        attack = FDIAttack(np.full((5, 1), 1.0))
        trace = problem.simulate(attack=attack)
        assert problem.mdc_alarm(trace)

    def test_residue_norms_weighted(self, simple_closed_loop):
        problem = SynthesisProblem(
            system=simple_closed_loop,
            pfc=ReachSetCriterion(x_des=[0.0, 0.0], epsilon=0.1),
            horizon=5,
            residue_weights=np.array([0.5]),
        )
        norms = problem.residue_norms(np.array([[1.0], [0.25]]))
        np.testing.assert_allclose(norms, [2.0, 0.5])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("norm", [1, 2, "inf"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_residue_norms_match_reference_expression(self, m, norm, weighted):
        weights = np.linspace(0.5, 2.0, m) if weighted else None
        problem = _problem_with_outputs(m, residue_norm=norm, residue_weights=weights)
        residues = np.random.default_rng(m).normal(size=(7, m))
        scaled = residues / weights if weighted else residues
        if norm == "inf":
            expected = np.max(np.abs(scaled), axis=1)
        else:
            expected = np.linalg.norm(scaled, ord=norm, axis=1)
        np.testing.assert_array_equal(problem.residue_norms(residues), expected)

    def test_rejects_unknown_residue_norm(self):
        with pytest.raises(ValidationError, match="residue_norm"):
            _problem_with_outputs(2, residue_norm=3)


class TestHelpers:
    def test_with_horizon(self, trajectory_problem):
        longer = trajectory_problem.with_horizon(15)
        assert longer.horizon == 15
        assert trajectory_problem.horizon == 10

    def test_simulate_accepts_explicit_noise(self, trajectory_problem):
        noise = np.full((trajectory_problem.horizon, 1), 0.005)
        trace = trajectory_problem.simulate(measurement_noise=noise)
        np.testing.assert_allclose(trace.measurement_noise, noise)

    def test_unrolling_dimensions(self, trajectory_problem):
        unrolling = trajectory_problem.unrolling()
        assert unrolling.horizon == trajectory_problem.horizon
        assert unrolling.n_variables == trajectory_problem.horizon
