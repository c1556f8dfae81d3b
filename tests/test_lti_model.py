"""Unit tests for the state-space model class."""

import numpy as np
import pytest

from repro.lti.model import StateSpace
from repro.utils.validation import ValidationError


class TestConstruction:
    def test_dimensions(self, double_integrator):
        assert double_integrator.n_states == 2
        assert double_integrator.n_inputs == 1
        assert double_integrator.n_outputs == 1

    def test_default_d_is_zero(self, double_integrator):
        np.testing.assert_allclose(double_integrator.D, np.zeros((1, 1)))

    def test_rejects_non_square_a(self):
        with pytest.raises(ValidationError):
            StateSpace(A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.zeros((1, 2)))

    def test_rejects_mismatched_b(self):
        with pytest.raises(ValidationError):
            StateSpace(A=np.eye(2), B=np.zeros((3, 1)), C=np.zeros((1, 2)))

    def test_rejects_mismatched_c(self):
        with pytest.raises(ValidationError):
            StateSpace(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 3)))

    def test_rejects_wrong_d_shape(self):
        with pytest.raises(ValidationError):
            StateSpace(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=np.zeros((2, 2)))

    def test_rejects_negative_dt(self):
        with pytest.raises(ValidationError):
            StateSpace(A=np.eye(1), B=np.eye(1), C=np.eye(1), dt=-0.1)

    def test_rejects_indefinite_noise(self):
        with pytest.raises(ValidationError):
            StateSpace(A=np.eye(1), B=np.eye(1), C=np.eye(1), Q_w=np.array([[-1.0]]))

    def test_rejects_bad_names(self):
        with pytest.raises(ValidationError):
            StateSpace(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)), state_names=("x",))

    def test_default_names(self):
        model = StateSpace(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)))
        assert model.state_names == ("x0", "x1")
        assert model.output_names == ("y0",)
        assert model.input_names == ("u0",)


class TestProperties:
    def test_discrete_flag(self, double_integrator, double_integrator_continuous):
        assert double_integrator.is_discrete
        assert not double_integrator.is_continuous
        assert double_integrator_continuous.is_continuous

    def test_has_noise(self, double_integrator):
        assert double_integrator.has_noise
        assert not double_integrator.without_noise().has_noise

    def test_noise_std(self, double_integrator):
        std = double_integrator.measurement_noise_std()
        assert std.shape == (1,)
        assert std[0] > 0
        assert double_integrator.without_noise().measurement_noise_std()[0] == 0.0

    def test_with_name(self, double_integrator):
        renamed = double_integrator.with_name("other")
        assert renamed.name == "other"
        assert double_integrator.name != "other"


class TestDynamics:
    def test_step_state_no_noise(self):
        model = StateSpace(A=np.array([[2.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]), dt=1.0)
        assert model.step_state([1.0], [3.0])[0] == pytest.approx(5.0)

    def test_step_state_with_noise(self):
        model = StateSpace(A=np.array([[2.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]), dt=1.0)
        assert model.step_state([1.0], [3.0], w=[0.5])[0] == pytest.approx(5.5)

    def test_output_with_feedthrough(self):
        model = StateSpace(
            A=np.eye(1), B=np.eye(1), C=np.array([[2.0]]), D=np.array([[0.5]]), dt=1.0
        )
        assert model.output([1.0], [2.0])[0] == pytest.approx(3.0)

    def test_output_with_noise(self):
        model = StateSpace(A=np.eye(1), B=np.eye(1), C=np.eye(1), dt=1.0)
        assert model.output([1.0], [0.0], v=[0.25])[0] == pytest.approx(1.25)
