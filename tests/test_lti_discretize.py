"""Unit tests for the zero-order-hold continuous-to-discrete conversion."""

import numpy as np
import pytest
from scipy import linalg as sla

from repro.lti.discretize import discretize
from repro.lti.model import StateSpace
from repro.utils.validation import ValidationError


@pytest.fixture
def first_order():
    """Continuous first-order lag dx/dt = -x + u, y = x."""
    return StateSpace(A=np.array([[-1.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]))


class TestZOH:
    def test_scalar_exact(self, first_order):
        dt = 0.5
        model = discretize(first_order, dt)
        assert model.A[0, 0] == pytest.approx(np.exp(-dt))
        assert model.B[0, 0] == pytest.approx(1.0 - np.exp(-dt))
        assert model.dt == dt

    def test_double_integrator_exact(self, double_integrator_continuous):
        dt = 0.1
        model = discretize(double_integrator_continuous, dt)
        np.testing.assert_allclose(model.A, [[1.0, dt], [0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(model.B, [[dt**2 / 2], [dt]], atol=1e-12)

    def test_matches_expm_blocks(self, stable_random_plant):
        # Build a continuous model, discretise, compare against the block expm.
        continuous = StateSpace(
            A=np.array([[-1.0, 0.5], [0.0, -2.0]]),
            B=np.array([[0.0], [1.0]]),
            C=np.eye(2),
        )
        dt = 0.2
        model = discretize(continuous, dt)
        n = 2
        block = np.zeros((3, 3))
        block[:n, :n] = continuous.A * dt
        block[:n, n:] = continuous.B * dt
        expm = sla.expm(block)
        np.testing.assert_allclose(model.A, expm[:n, :n], atol=1e-12)
        np.testing.assert_allclose(model.B, expm[:n, n:], atol=1e-12)

    def test_rejects_discrete_input(self, double_integrator):
        with pytest.raises(ValidationError):
            discretize(double_integrator, 0.1)

    def test_noise_mapping(self, double_integrator_continuous):
        dt = 0.1
        model = discretize(double_integrator_continuous, dt)
        np.testing.assert_allclose(model.Q_w, double_integrator_continuous.Q_w * dt)
        np.testing.assert_allclose(model.R_v, double_integrator_continuous.R_v / dt)

    def test_two_half_steps_make_one_step(self, double_integrator_continuous):
        # Holding the input over [0, dt] equals holding it over two halves.
        half = discretize(double_integrator_continuous, 0.05)
        full = discretize(double_integrator_continuous, 0.1)
        np.testing.assert_allclose(full.A, half.A @ half.A, atol=1e-12)
        np.testing.assert_allclose(full.B, half.A @ half.B + half.B, atol=1e-12)

    def test_preserves_names(self, first_order):
        named = StateSpace(
            A=first_order.A,
            B=first_order.B,
            C=first_order.C,
            state_names=("tank",),
            output_names=("level",),
            input_names=("pump",),
        )
        model = discretize(named, 0.1)
        assert model.state_names == ("tank",)
        assert model.output_names == ("level",)
        assert model.input_names == ("pump",)
