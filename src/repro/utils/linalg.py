"""Linear-algebra primitives for discrete-time control.

Implements what the LQR and Kalman designs need on top of
:mod:`numpy`/:mod:`scipy`: matrix coercion, definiteness tests and the
discrete algebraic Riccati equation.  The Riccati solver tries ``scipy``
first and falls back to a structure-preserving doubling iteration, so the
library keeps working even on plants where one method struggles.
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
