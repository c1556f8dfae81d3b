"""Luenberger observer design by pole placement.

Provides an alternative to the Kalman gain for plants without a meaningful
noise model: the observer gain ``L`` is chosen so that the error dynamics
``A - L C`` have prescribed eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lti.model import StateSpace
from repro.utils.linalg import is_observable
from repro.utils.validation import ValidationError


def luenberger_gain(plant: StateSpace, poles) -> np.ndarray:
    """Observer gain placing the eigenvalues of ``A - L C`` at ``poles``.

    Uses the duality with state-feedback pole placement: placing poles of
    ``A - L C`` is placing poles of ``A^T - C^T L^T``.
    """
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    if poles.size != plant.n_states:
        raise ValidationError(
            f"need exactly {plant.n_states} observer poles, got {poles.size}"
        )
    if not is_observable(plant.A, plant.C):
        raise ValidationError("plant is not observable; cannot place observer poles")
    from scipy import signal  # imports scipy.stats: paid only by pole placement

    result = signal.place_poles(plant.A.T, plant.C.T, poles)
    return result.gain_matrix.T


@dataclass
class LuenbergerObserver:
    """Stateful Luenberger observer mirroring the Kalman predictor interface."""

    plant: StateSpace
    L: np.ndarray
    state: np.ndarray | None = None

    def __post_init__(self) -> None:
        n, m = self.plant.n_states, self.plant.n_outputs
        self.L = np.asarray(self.L, dtype=float).reshape(n, m)
        if self.state is None:
            self.state = np.zeros(n)
        else:
            self.state = np.asarray(self.state, dtype=float).reshape(n)

    @classmethod
    def design(cls, plant: StateSpace, poles) -> "LuenbergerObserver":
        """Design an observer with error-dynamics eigenvalues at ``poles``."""
        return cls(plant=plant, L=luenberger_gain(plant, poles))

    def reset(self, state: np.ndarray | None = None) -> None:
        """Reset the internal estimate (zero by default)."""
        n = self.plant.n_states
        self.state = np.zeros(n) if state is None else np.asarray(state, dtype=float).reshape(n)

    def step(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Process one sample; returns the output residue and advances the estimate."""
        y = np.asarray(y, dtype=float).reshape(-1)
        residue = y - self.plant.output(self.state, u)
        self.state = self.plant.step_state(self.state, u) + self.L @ residue
        return residue
