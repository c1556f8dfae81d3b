"""Input validation helpers shared across the library.

All public constructors validate their numerical inputs through these helpers
so that shape or definiteness errors are reported early with a clear message
instead of surfacing as cryptic ``numpy`` broadcasting failures deep inside a
simulation loop.
"""

from __future__ import annotations

import numpy as np


class ValidationError(ValueError):
    """Raised when a numerical input does not satisfy a structural contract."""


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Ensure ``array`` contains only finite values.

    Parameters
    ----------
    name:
        Human-readable name used in the error message.
    array:
        Array to validate.

    Returns
    -------
    numpy.ndarray
        The validated array (unchanged), for chaining.
    """
    array = np.asarray(array, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite values")
    return array


def check_square(name: str, matrix: np.ndarray) -> np.ndarray:
    """Ensure ``matrix`` is a square 2-D array."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(
            f"{name} must be a square matrix, got shape {matrix.shape}"
        )
    return matrix


def check_symmetric(name: str, matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Ensure ``matrix`` is symmetric up to ``tol`` and return the symmetrised copy."""
    matrix = check_square(name, matrix)
    if not np.allclose(matrix, matrix.T, atol=tol):
        raise ValidationError(f"{name} must be symmetric")
    return 0.5 * (matrix + matrix.T)


def check_probability(name: str, value: float) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Ensure ``value`` is positive (strictly by default)."""
    value = float(value)
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value
