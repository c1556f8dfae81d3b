"""Linear-algebra primitives for discrete-time control.

Implements the small set of matrix-equation solvers the rest of the library
needs — discrete Lyapunov and Riccati equations, controllability and
observability tests — on top of :mod:`numpy`/:mod:`scipy`.  The Riccati solver
uses a structure-preserving doubling iteration with a ``scipy`` fallback so
the library keeps working even on plants where one method struggles.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError, check_square, check_symmetric


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a 2-D float array (scalars become 1x1)."""
    array = np.asarray(value, dtype=float)
    if array.ndim == 0:
        array = array.reshape(1, 1)
    elif array.ndim == 1:
        array = array.reshape(1, -1)
    elif array.ndim != 2:
        raise ValidationError(f"{name} must be at most 2-dimensional")
    return array


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce ``value`` to a 1-D float array."""
    array = np.asarray(value, dtype=float).reshape(-1)
    return array


def spectral_radius(matrix: np.ndarray) -> float:
    """Return the spectral radius (largest eigenvalue magnitude) of ``matrix``."""
    matrix = check_square("matrix", matrix)
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def is_stable_discrete(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    """True when all eigenvalues of ``matrix`` lie strictly inside the unit circle."""
    return spectral_radius(matrix) < 1.0 - tol


def is_positive_definite(matrix: np.ndarray, tol: float = 1e-10) -> bool:
    """True when the symmetric part of ``matrix`` is positive definite."""
    matrix = check_square("matrix", matrix)
    sym = 0.5 * (matrix + matrix.T)
    try:
        eigenvalues = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(eigenvalues > tol))


def is_positive_semidefinite(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """True when the symmetric part of ``matrix`` is positive semidefinite."""
    matrix = check_square("matrix", matrix)
    sym = 0.5 * (matrix + matrix.T)
    try:
        eigenvalues = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(eigenvalues > -tol))


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Return the controllability matrix ``[B, AB, ..., A^{n-1}B]``."""
    A = check_square("A", A)
    B = as_matrix(B, "B")
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValidationError(f"B must have {n} rows, got {B.shape[0]}")
    blocks = []
    current = B.copy()
    for _ in range(n):
        blocks.append(current)
        current = A @ current
    return np.hstack(blocks)


def observability_matrix(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Return the observability matrix ``[C; CA; ...; CA^{n-1}]``."""
    A = check_square("A", A)
    C = as_matrix(C, "C")
    n = A.shape[0]
    if C.shape[1] != n:
        raise ValidationError(f"C must have {n} columns, got {C.shape[1]}")
    blocks = []
    current = C.copy()
    for _ in range(n):
        blocks.append(current)
        current = current @ A
    return np.vstack(blocks)


def is_controllable(A: np.ndarray, B: np.ndarray, tol: float | None = None) -> bool:
    """Kalman rank test for controllability of the pair ``(A, B)``."""
    ctrb = controllability_matrix(A, B)
    return np.linalg.matrix_rank(ctrb, tol=tol) == check_square("A", A).shape[0]


def is_observable(A: np.ndarray, C: np.ndarray, tol: float | None = None) -> bool:
    """Kalman rank test for observability of the pair ``(A, C)``."""
    obsv = observability_matrix(A, C)
    return np.linalg.matrix_rank(obsv, tol=tol) == check_square("A", A).shape[0]


def dlyap(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve the discrete Lyapunov equation ``A X A^T - X + Q = 0``.

    Uses the Kronecker-product (vectorisation) formulation, which is exact for
    the small state dimensions typical of CPS control loops.
    """
    A = check_square("A", A)
    Q = check_square("Q", Q)
    if A.shape != Q.shape:
        raise ValidationError("A and Q must have identical shapes")
    n = A.shape[0]
    lhs = np.eye(n * n) - np.kron(A, A)
    vec_x = np.linalg.solve(lhs, Q.reshape(-1))
    X = vec_x.reshape(n, n)
    return 0.5 * (X + X.T)


def _dare_doubling(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    max_iterations: int = 200,
    tol: float = 1e-12,
) -> np.ndarray:
    """Structure-preserving doubling algorithm for the DARE.

    Solves ``X = A^T X A - A^T X B (R + B^T X B)^{-1} B^T X A + Q``.
    """
    n = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    Ak = A.copy()
    Gk = G.copy()
    Hk = Q.copy()
    identity = np.eye(n)
    for _ in range(max_iterations):
        W = identity + Gk @ Hk
        try:
            W_inv_A = np.linalg.solve(W, Ak)
            W_inv_G = np.linalg.solve(W, Gk)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise ValidationError("DARE doubling iteration became singular") from exc
        A_next = Ak @ W_inv_A
        G_next = Gk + Ak @ W_inv_G @ Ak.T
        H_next = Hk + W_inv_A.T @ Hk @ Ak
        delta = np.linalg.norm(H_next - Hk, ord="fro")
        Ak, Gk, Hk = A_next, G_next, H_next
        if delta <= tol * max(1.0, np.linalg.norm(Hk, ord="fro")):
            break
    return 0.5 * (Hk + Hk.T)


def dare(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    method: str = "auto",
) -> np.ndarray:
    """Solve the discrete-time algebraic Riccati equation.

    ``X = A^T X A - A^T X B (R + B^T X B)^{-1} B^T X A + Q``

    Parameters
    ----------
    A, B:
        State transition and input matrices.
    Q, R:
        State and input weight matrices (symmetric PSD / PD respectively).
    method:
        ``"auto"`` (scipy, falling back to doubling), ``"scipy"`` or
        ``"doubling"``.

    Returns
    -------
    numpy.ndarray
        The symmetric stabilising solution ``X``.
    """
    A = check_square("A", A)
    B = as_matrix(B, "B")
    Q = check_symmetric("Q", Q)
    R = check_symmetric("R", R)
    if not is_positive_semidefinite(Q):
        raise ValidationError("Q must be positive semidefinite")
    if not is_positive_definite(R):
        raise ValidationError("R must be positive definite")

    if method not in {"auto", "scipy", "doubling"}:
        raise ValidationError(f"unknown DARE method {method!r}")

    if method in {"auto", "scipy"}:
        from scipy import linalg as sla  # ~0.3 s to import: paid by the first DARE

        try:
            X = sla.solve_discrete_are(A, B, Q, R)
            return 0.5 * (X + X.T)
        except sla.LinAlgError:
            # scipy signals DARE numerical failure (no finite solution, pencil
            # eigenvalues on the unit circle) as LinAlgError; only that case
            # falls back to the doubling iteration.  Shape/definiteness errors
            # cannot occur here — the inputs are validated above — and any
            # other exception is a real bug that must propagate.
            if method == "scipy":
                raise
    return _dare_doubling(A, B, Q, R)


def matrix_power_series(A: np.ndarray, horizon: int) -> list[np.ndarray]:
    """Return ``[I, A, A^2, ..., A^horizon]`` as a list of matrices."""
    A = check_square("A", A)
    powers = [np.eye(A.shape[0])]
    for _ in range(horizon):
        powers.append(A @ powers[-1])
    return powers
