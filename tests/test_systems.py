"""Tests for the packaged benchmark case studies."""

import numpy as np
import pytest

from repro.core.attack_synthesis import synthesize_attack
from repro.systems import (
    build_cruise_case_study,
    build_dcmotor_case_study,
    build_pendulum_case_study,
    build_quadtank_case_study,
    build_trajectory_case_study,
    build_vsc_case_study,
)
from repro.systems.vsc import VSCParameters, build_vsc_monitors, build_vsc_plant


def _controllable(A, B):
    """Kalman rank test: ``[B, AB, ..., A^{n-1} B]`` has full row rank ``n``."""
    blocks = [np.linalg.matrix_power(A, k) @ B for k in range(A.shape[0])]
    return np.linalg.matrix_rank(np.hstack(blocks)) == A.shape[0]


ALL_BUILDERS = [
    build_trajectory_case_study,
    build_vsc_case_study,
    build_dcmotor_case_study,
    build_quadtank_case_study,
    build_cruise_case_study,
    build_pendulum_case_study,
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
class TestCommonProperties:
    def test_construction(self, builder):
        case = builder()
        assert case.problem.horizon > 0
        assert case.description
        assert case.system is case.problem.system

    def test_plant_is_well_posed(self, builder):
        case = builder()
        plant = case.problem.system.plant
        assert plant.is_discrete
        assert _controllable(plant.A, plant.B)
        assert _controllable(plant.A.T, plant.C.T)  # observability, by duality

    def test_closed_loop_is_stable(self, builder):
        case = builder()
        system = case.problem.system
        eigenvalues = np.linalg.eigvals(system.closed_loop_matrix())
        assert np.all(np.abs(eigenvalues) < 1.0)
        eigenvalues = np.linalg.eigvals(system.estimator_matrix())
        assert np.all(np.abs(eigenvalues) < 1.0)

    def test_nominal_run_meets_pfc_and_monitors(self, builder):
        case = builder()
        problem = case.problem
        trace = problem.simulate()
        assert problem.pfc_satisfied(trace)
        assert not problem.mdc_alarm(trace)

    def test_attack_exists_without_detector(self, builder):
        case = builder()
        result = synthesize_attack(case.problem, threshold=None, backend="lp")
        assert result.found
        assert result.verified


class TestVSCSpecifics:
    def test_monitor_parameters_match_paper(self):
        params = VSCParameters()
        assert params.sampling_period == pytest.approx(0.040)
        assert params.dead_zone_samples == 7
        assert params.gamma_range == pytest.approx(0.2)
        assert params.gamma_gradient == pytest.approx(0.175)
        assert params.ay_range == pytest.approx(15.0)
        assert params.ay_gradient == pytest.approx(2.0)
        assert params.allowed_diff == pytest.approx(0.035)
        assert params.horizon == 50
        assert params.pfc_fraction == pytest.approx(0.8)

    def test_monitor_bank_structure(self):
        monitors = build_vsc_monitors()
        assert len(monitors) == 5
        assert all(m.dead_zone_samples == 7 for m in monitors.dead_zone_members())

    def test_attacked_channels_are_can_sensors(self):
        case = build_vsc_case_study()
        assert case.problem.attack_mask.attackable == (0, 1)

    def test_plant_outputs(self):
        plant = build_vsc_plant()
        assert plant.output_names == ("gamma", "ay")
        assert plant.n_states == 3

    def test_residues_are_noise_normalised(self):
        case = build_vsc_case_study()
        assert case.problem.residue_weights is not None
        params = case.extras["params"]
        np.testing.assert_allclose(
            case.problem.residue_weights, [params.yaw_noise_std, params.ay_noise_std]
        )

    def test_without_monitors_variant(self):
        case = build_vsc_case_study(with_monitors=False)
        assert len(case.problem.mdc) == 0

    def test_steady_state_relation_between_outputs(self):
        """At steady state ay equals v * gamma (the relation the monitor checks)."""
        case = build_vsc_case_study()
        problem = case.problem
        trace = problem.simulate()
        params = case.extras["params"]
        gamma_ss = trace.true_outputs[-1, 0]
        ay_ss = trace.true_outputs[-1, 1]
        assert ay_ss == pytest.approx(params.speed * gamma_ss, rel=1e-2)

    def test_synthesized_attack_bypasses_monitors_but_breaks_pfc(self):
        """Reproduces the qualitative content of Fig. 2."""
        case = build_vsc_case_study()
        problem = case.problem
        result = synthesize_attack(problem, threshold=None, backend="lp")
        assert result.found
        trace = result.trace
        assert not problem.pfc_satisfied(trace)
        assert not problem.mdc_alarm(trace)
        params = case.extras["params"]
        final_yaw = trace.states[problem.horizon, 1]
        assert final_yaw < params.pfc_fraction * params.desired_yaw_rate


class TestTrajectorySpecifics:
    def test_defaults_match_fig1_setup(self):
        case = build_trajectory_case_study()
        assert case.problem.horizon == 10
        assert case.problem.system.dt == pytest.approx(0.1)
        assert case.extras["target_position"] == pytest.approx(0.5)

    def test_nominal_reaches_target_band(self):
        case = build_trajectory_case_study()
        trace = case.problem.simulate()
        assert abs(trace.final_state()[0] - 0.5) <= case.extras["tolerance"]

    def test_monitor_free_variant(self):
        case = build_trajectory_case_study(with_monitors=False)
        assert len(case.problem.mdc) == 0


class TestParameterisation:
    def test_dcmotor_custom_horizon(self):
        case = build_dcmotor_case_study(horizon=15)
        assert case.problem.horizon == 15

    def test_quadtank_initial_condition_nonzero(self):
        case = build_quadtank_case_study()
        assert np.any(case.problem.x0 != 0)

    def test_pendulum_only_angle_channel_attackable(self):
        case = build_pendulum_case_study()
        assert case.problem.attack_mask.attackable == (1,)

    def test_cruise_attack_bound(self):
        case = build_cruise_case_study(attack_bound=2.0)
        assert case.problem.attack_bound == pytest.approx(2.0)
