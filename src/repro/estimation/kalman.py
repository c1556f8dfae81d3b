"""Steady-state Kalman filtering for discrete LTI plants.

:func:`steady_state_kalman` returns the constant predictor-form gain
obtained from the filtering DARE.  This is the ``L`` used by the paper's
estimator ``xhat_{k+1} = A xhat_k + B u_k + L z_k``.
"""

from __future__ import annotations

import numpy as np

from repro.lti.model import StateSpace
from repro.utils.linalg import dare, is_positive_definite
from repro.utils.validation import ValidationError, check_symmetric


def steady_state_kalman(
    plant: StateSpace,
    Q_w: np.ndarray | None = None,
    R_v: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the steady-state Kalman gain and error covariance.

    Solves the filtering DARE ``P = A P A^T - A P C^T (C P C^T + R)^{-1} C P A^T + Q``
    (by duality with the control DARE) and returns the predictor-form gain

    ``L = A P C^T (C P C^T + R)^{-1}``

    so that the estimator update matches the paper:
    ``xhat_{k+1} = A xhat_k + B u_k + L (y_k - C xhat_k - D u_k)``.
    ``Q_w`` and ``R_v`` default to the plant's covariances, or ``1e-4 I``
    where the plant has none.

    Returns
    -------
    (L, P):
        Kalman gain ``(n x m)`` and steady-state prediction error covariance
        ``(n x n)``.
    """
    n, m = plant.n_states, plant.n_outputs
    if Q_w is None:
        Q_w = plant.Q_w if plant.Q_w is not None else np.eye(n) * 1e-4
    if R_v is None:
        R_v = plant.R_v if plant.R_v is not None else np.eye(m) * 1e-4
    Q_w = check_symmetric("Q_w", Q_w)
    R_v = check_symmetric("R_v", R_v)
    if not is_positive_definite(R_v):
        raise ValidationError("measurement noise covariance R_v must be positive definite")
    # Duality: filtering DARE for (A, C, Q, R) is the control DARE for (A^T, C^T, Q, R).
    P = dare(plant.A.T, plant.C.T, Q_w, R_v)
    innovation_cov = plant.C @ P @ plant.C.T + R_v
    L = plant.A @ P @ plant.C.T @ np.linalg.inv(innovation_cov)
    return L, P
