"""Unit tests for LQR and tracking helpers."""

import numpy as np
import pytest

from repro.control.lqr import LQRDesign, dlqr, lqr_gain
from repro.control.tracking import feedforward_gain, tracking_state_target
from repro.lti.model import StateSpace
from repro.utils.validation import ValidationError


class TestLQR:
    def test_gain_stabilizes(self, double_integrator):
        K = lqr_gain(double_integrator)
        eigenvalues = np.linalg.eigvals(double_integrator.A - double_integrator.B @ K)
        assert np.all(np.abs(eigenvalues) < 1.0)

    def test_riccati_residual(self, double_integrator):
        Q, R = np.diag([2.0, 1.0]), np.array([[0.5]])
        K, P = dlqr(double_integrator.A, double_integrator.B, Q, R)
        A, B = double_integrator.A, double_integrator.B
        residual = A.T @ P @ A - P - A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A) + Q
        np.testing.assert_allclose(residual, np.zeros((2, 2)), atol=1e-8)

    def test_heavier_input_weight_gives_smaller_gain(self, double_integrator):
        K_cheap = lqr_gain(double_integrator, R=np.array([[0.01]]))
        K_expensive = lqr_gain(double_integrator, R=np.array([[100.0]]))
        assert np.linalg.norm(K_expensive) < np.linalg.norm(K_cheap)

    def test_requires_discrete_plant(self, double_integrator_continuous):
        with pytest.raises(ValidationError):
            lqr_gain(double_integrator_continuous)

    def test_design_record(self, double_integrator):
        design = LQRDesign.design(double_integrator)
        assert design.is_stabilizing
        assert design.cost([1.0, 0.0]) > 0
        assert design.closed_loop_eigenvalues.shape == (2,)


class TestTracking:
    def test_feedforward_gives_unit_dc_gain(self, double_integrator):
        K = lqr_gain(double_integrator)
        N = feedforward_gain(double_integrator, K)
        closed = double_integrator.A - double_integrator.B @ K
        core = np.linalg.solve(np.eye(2) - closed, double_integrator.B)
        dc = (double_integrator.C - double_integrator.D @ K) @ core + double_integrator.D
        np.testing.assert_allclose(dc @ N, np.eye(1), atol=1e-10)

    def test_feedforward_with_feedthrough(self):
        plant = StateSpace(
            A=np.array([[0.5]]),
            B=np.array([[1.0]]),
            C=np.array([[1.0]]),
            D=np.array([[0.3]]),
            dt=1.0,
        )
        K = np.array([[0.2]])
        N = feedforward_gain(plant, K)
        closed = plant.A - plant.B @ K
        core = np.linalg.solve(np.eye(1) - closed, plant.B)
        dc = (plant.C - plant.D @ K) @ core + plant.D
        np.testing.assert_allclose(dc @ N, np.eye(1), atol=1e-12)

    def test_tracking_state_target_is_equilibrium(self, double_integrator):
        y_des = np.array([0.7])
        x_ss, u_ss = tracking_state_target(double_integrator, y_des)
        next_state = double_integrator.A @ x_ss + double_integrator.B @ u_ss
        np.testing.assert_allclose(next_state, x_ss, atol=1e-8)
        output = double_integrator.C @ x_ss + double_integrator.D @ u_ss
        np.testing.assert_allclose(output, y_des, atol=1e-8)

    def test_tracking_wrong_dimension(self, double_integrator):
        with pytest.raises(ValidationError):
            tracking_state_target(double_integrator, np.array([1.0, 2.0]))
