"""Unit tests for the linear-algebra utilities."""

import numpy as np
import pytest
from scipy import linalg as sla

from repro.utils.linalg import (
    as_matrix,
    dare,
    is_positive_definite,
    is_positive_semidefinite,
)
from repro.utils.validation import ValidationError


class TestCoercion:
    def test_as_matrix_scalar(self):
        assert as_matrix(3.0).shape == (1, 1)

    def test_as_matrix_vector_becomes_row(self):
        assert as_matrix([1.0, 2.0]).shape == (1, 2)

    def test_as_matrix_rejects_3d(self):
        with pytest.raises(ValidationError):
            as_matrix(np.zeros((2, 2, 2)))


class TestSpectral:
    def test_definiteness(self):
        assert is_positive_definite(np.eye(3))
        assert not is_positive_definite(np.diag([1.0, 0.0]))
        assert is_positive_semidefinite(np.diag([1.0, 0.0]))
        assert not is_positive_semidefinite(np.diag([1.0, -0.1]))


class TestDARE:
    @pytest.mark.parametrize("method", ["scipy", "doubling", "auto"])
    def test_dare_matches_scipy(self, method):
        A = np.array([[1.0, 0.1], [0.0, 1.0]])
        B = np.array([[0.005], [0.1]])
        Q = np.diag([1.0, 0.1])
        R = np.array([[0.5]])
        X = dare(A, B, Q, R, method=method)
        reference = sla.solve_discrete_are(A, B, Q, R)
        np.testing.assert_allclose(X, reference, rtol=1e-6, atol=1e-8)

    def test_dare_residual_is_zero(self):
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        Q = np.eye(2)
        R = np.array([[1.0]])
        X = dare(A, B, Q, R, method="doubling")
        residual = A.T @ X @ A - X - A.T @ X @ B @ np.linalg.solve(R + B.T @ X @ B, B.T @ X @ A) + Q
        np.testing.assert_allclose(residual, np.zeros((2, 2)), atol=1e-7)

    def test_dare_rejects_indefinite_r(self):
        with pytest.raises(ValidationError):
            dare(np.eye(2), np.ones((2, 1)), np.eye(2), np.array([[-1.0]]))

    def test_dare_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            dare(np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(1), method="nope")
