"""Controller design substrate.

Provides the state-feedback design tools used to close the loop around the
LTI plants: LQR (via the discrete algebraic Riccati equation) and
reference-tracking feedforward gains.
"""

from repro.control.lqr import lqr_gain, dlqr, LQRDesign
from repro.control.tracking import feedforward_gain, tracking_state_target

__all__ = [
    "lqr_gain",
    "dlqr",
    "LQRDesign",
    "feedforward_gain",
    "tracking_state_target",
]
