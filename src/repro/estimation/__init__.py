"""State estimation substrate: the steady-state Kalman filter.

The paper's detection architecture compares measured outputs against the
predictions of a steady-state Kalman filter; this package computes that
filter's gain from the discrete algebraic Riccati equation, and the
innovation covariance the chi-square baseline detector is calibrated on.
"""

from repro.estimation.kalman import steady_state_kalman
from repro.estimation.innovation import innovation_covariance

__all__ = [
    "steady_state_kalman",
    "innovation_covariance",
]
