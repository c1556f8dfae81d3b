"""State-feedback design by pole placement.

Wraps :func:`scipy.signal.place_poles` for the multi-input case and provides
an Ackermann-formula implementation for single-input plants, plus the
deadbeat design (all closed-loop poles at the origin) that is occasionally
used as an aggressive baseline controller in the examples.
"""

from __future__ import annotations

import numpy as np

from repro.lti.model import StateSpace
from repro.utils.linalg import controllability_matrix, is_controllable
from repro.utils.validation import ValidationError


def ackermann_gain(A: np.ndarray, b: np.ndarray, poles) -> np.ndarray:
    """Single-input pole placement via Ackermann's formula.

    Parameters
    ----------
    A:
        ``n x n`` state matrix.
    b:
        ``n x 1`` (or length-``n``) input vector.
    poles:
        Desired closed-loop eigenvalues (length ``n``; complex poles must come
        in conjugate pairs so the characteristic polynomial is real).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    n = A.shape[0]
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    if poles.size != n:
        raise ValidationError(f"need exactly {n} poles, got {poles.size}")
    if not is_controllable(A, b):
        raise ValidationError("pair (A, b) is not controllable")
    # Desired characteristic polynomial coefficients (monic).
    coefficients = np.poly(poles)
    if np.max(np.abs(coefficients.imag)) > 1e-9:
        raise ValidationError("poles must be closed under complex conjugation")
    coefficients = coefficients.real
    # phi(A) = A^n + c1 A^{n-1} + ... + cn I
    phi = np.zeros_like(A)
    for power, coefficient in enumerate(coefficients):
        phi = phi + coefficient * np.linalg.matrix_power(A, n - power)
    ctrb = controllability_matrix(A, b)
    selector = np.zeros((1, n))
    selector[0, -1] = 1.0
    K = selector @ np.linalg.solve(ctrb, phi)
    return K


def place_poles_gain(plant: StateSpace, poles) -> np.ndarray:
    """Feedback gain ``K`` such that ``A - B K`` has eigenvalues ``poles``.

    Uses Ackermann's formula for single-input plants and scipy's robust
    pole-placement algorithm otherwise.
    """
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    if poles.size != plant.n_states:
        raise ValidationError(
            f"need exactly {plant.n_states} poles, got {poles.size}"
        )
    if plant.n_inputs == 1:
        return ackermann_gain(plant.A, plant.B, poles)
    from scipy import signal  # imports scipy.stats: paid only by multi-input designs

    result = signal.place_poles(plant.A, plant.B, poles)
    return result.gain_matrix


def deadbeat_gain(plant: StateSpace) -> np.ndarray:
    """Deadbeat design: every closed-loop eigenvalue at the origin.

    The closed loop reaches the origin in at most ``n`` samples from any
    initial condition (in the absence of noise).  Scipy's pole placement
    cannot place coincident poles, so multi-input plants get poles spread in
    a tiny disc around the origin instead.
    """
    n = plant.n_states
    if plant.n_inputs == 1:
        return ackermann_gain(plant.A, plant.B, np.zeros(n))
    radius = 1e-3
    poles = radius * np.exp(2j * np.pi * np.arange(n) / max(n, 1))
    # Keep poles conjugate-closed for odd n by forcing one real pole.
    poles = np.asarray(sorted(poles, key=lambda z: z.real), dtype=complex)
    poles[0] = radius
    from scipy import signal  # imports scipy.stats: paid only by multi-input designs

    result = signal.place_poles(plant.A, plant.B, poles)
    return result.gain_matrix
