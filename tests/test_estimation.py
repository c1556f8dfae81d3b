"""Unit tests for the steady-state Kalman filter and innovation covariance."""

import numpy as np
import pytest

from repro.estimation.innovation import innovation_covariance
from repro.estimation.kalman import steady_state_kalman
from repro.lti.simulate import ClosedLoopSystem, SimulationOptions, simulate_closed_loop
from repro.registry import available_case_studies, get_case_study
from repro.utils.validation import ValidationError


class TestSteadyStateKalman:
    def test_gain_shape(self, double_integrator):
        L, P = steady_state_kalman(double_integrator)
        assert L.shape == (2, 1)
        assert P.shape == (2, 2)

    def test_covariance_is_psd(self, double_integrator):
        _, P = steady_state_kalman(double_integrator)
        assert np.all(np.linalg.eigvalsh(P) >= -1e-10)

    def test_error_dynamics_stable(self, double_integrator):
        L, _ = steady_state_kalman(double_integrator)
        eigenvalues = np.linalg.eigvals(double_integrator.A - L @ double_integrator.C)
        assert np.all(np.abs(eigenvalues) < 1.0)

    def test_satisfies_filter_riccati(self, double_integrator):
        L, P = steady_state_kalman(double_integrator)
        A, C = double_integrator.A, double_integrator.C
        Q, R = double_integrator.Q_w, double_integrator.R_v
        S = C @ P @ C.T + R
        P_next = A @ P @ A.T - A @ P @ C.T @ np.linalg.solve(S, C @ P @ A.T) + Q
        np.testing.assert_allclose(P_next, P, atol=1e-8)

    def test_rejects_singular_measurement_noise(self, double_integrator):
        with pytest.raises(ValidationError):
            steady_state_kalman(double_integrator, R_v=np.array([[0.0]]))

    def test_more_measurement_noise_gives_smaller_gain(self, double_integrator):
        L_small, _ = steady_state_kalman(double_integrator, R_v=np.array([[1e-4]]))
        L_large, _ = steady_state_kalman(double_integrator, R_v=np.array([[1e-1]]))
        assert np.linalg.norm(L_large) < np.linalg.norm(L_small)


def _riccati_limit(plant, steps=20000, tol=1e-13):
    """Predictor gain of the filtering Riccati recursion, iterated from ``P = I``."""
    A, C = plant.A, plant.C
    Q = plant.Q_w if plant.Q_w is not None else np.eye(plant.n_states) * 1e-4
    R = plant.R_v if plant.R_v is not None else np.eye(plant.n_outputs) * 1e-4
    P = np.eye(plant.n_states)
    for _ in range(steps):
        gain = A @ P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
        P_next = A @ P @ A.T - gain @ C @ P @ A.T + Q
        if np.max(np.abs(P_next - P)) <= tol * max(1.0, np.max(np.abs(P))):
            P = P_next
            break
        P = P_next
    return A @ P @ C.T @ np.linalg.inv(C @ P @ C.T + R)


class TestRiccatiRecursion:
    """The DARE gain is the limit of the time-varying Kalman filter's gains."""

    def test_double_integrator(self, double_integrator):
        L, _ = steady_state_kalman(double_integrator)
        np.testing.assert_allclose(_riccati_limit(double_integrator), L, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("name", available_case_studies())
    def test_case_study_plant(self, name):
        plant = get_case_study(name).problem.system.plant
        L, _ = steady_state_kalman(plant)
        np.testing.assert_allclose(_riccati_limit(plant), L, rtol=1e-6, atol=1e-9)

    def test_estimate_converges_on_an_open_loop_plant(self, double_integrator):
        # No control (K = 0): the plant holds x = [1, 0] while the estimate
        # starts at zero, so the residue shrinks only if the filter converges.
        L, _ = steady_state_kalman(double_integrator)
        system = ClosedLoopSystem(plant=double_integrator, K=np.zeros((1, 2)), L=L)
        trace = simulate_closed_loop(system, SimulationOptions(horizon=150, x0=[1.0, 0.0]))
        residues = np.abs(trace.residues[:, 0])
        assert residues[-1] < 1e-3 * residues.max()
        np.testing.assert_allclose(trace.estimates[-1], [1.0, 0.0], atol=1e-3)


class TestInnovationStatistics:
    def test_covariance_formula(self, double_integrator):
        _, P = steady_state_kalman(double_integrator)
        S = innovation_covariance(double_integrator, P)
        expected = double_integrator.C @ P @ double_integrator.C.T + double_integrator.R_v
        np.testing.assert_allclose(S, expected)

    def test_nis_is_chi_square_scaled(self, simple_closed_loop):
        """The normalised innovation squared should have mean close to m under no attack."""
        _, P = steady_state_kalman(simple_closed_loop.plant)
        S = innovation_covariance(simple_closed_loop.plant, P)
        trace = simulate_closed_loop(
            simple_closed_loop, SimulationOptions(horizon=4000, with_noise=True, seed=0)
        )
        z = trace.residues[500:]
        nis = np.einsum("ki,ij,kj->k", z, np.linalg.inv(S), z)
        assert nis.mean() == pytest.approx(1.0, rel=0.2)
