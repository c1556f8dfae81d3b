"""Innovation (residue) statistics.

Under no attack and Gaussian noise, the Kalman innovation ``z_k`` is zero-mean
with covariance ``S = C P C^T + R``; the normalised innovation squared
``z_k^T S^{-1} z_k`` is chi-square distributed with ``m`` degrees of freedom,
which is what the chi-square baseline detector is calibrated on.
"""

from __future__ import annotations

import numpy as np

from repro.lti.model import StateSpace
from repro.utils.validation import check_symmetric


def innovation_covariance(
    plant: StateSpace,
    prediction_covariance: np.ndarray,
    R_v: np.ndarray | None = None,
) -> np.ndarray:
    """Innovation covariance ``S = C P C^T + R`` of a steady-state Kalman filter."""
    P = check_symmetric("prediction_covariance", prediction_covariance)
    if R_v is None:
        R_v = plant.R_v if plant.R_v is not None else np.zeros((plant.n_outputs,) * 2)
    R_v = check_symmetric("R_v", R_v)
    S = plant.C @ P @ plant.C.T + R_v
    return 0.5 * (S + S.T)
