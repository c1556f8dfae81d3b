"""Relation monitor: consistency between two redundant sensor channels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.monitors.base import LinearCondition, Monitor
from repro.utils.validation import check_positive


@dataclass
class RelationMonitor(Monitor):
    """Checks ``|y[k][a] - (gain * y[k][b] + offset)| <= allowed_diff``.

    This models the paper's relation-based monitor: the yaw rate measured by
    the yaw-rate sensor must agree (up to ``allowedDiff``) with the yaw rate
    estimated from the lateral-acceleration sensor, ``gamma_est = ay / v_x``
    (steady-state kinematic relation), i.e. ``gain = 1 / v_x`` and
    ``offset = 0``.
    """

    channel_a: int
    channel_b: int
    gain: float
    allowed_diff: float
    offset: float = 0.0
    name: str = "relation"

    def __post_init__(self) -> None:
        self.channel_a = int(self.channel_a)
        self.channel_b = int(self.channel_b)
        self.gain = float(self.gain)
        self.offset = float(self.offset)
        self.allowed_diff = check_positive("allowed_diff", self.allowed_diff)

    def mismatch(self, measurements: np.ndarray) -> np.ndarray:
        """Signed mismatch ``y[a] - (gain*y[b] + offset)`` per sample."""
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        return (
            measurements[:, self.channel_a]
            - self.gain * measurements[:, self.channel_b]
            - self.offset
        )

    def check(self, current, previous, dt, valid=None) -> np.ndarray:
        # A non-finite channel makes the mismatch NaN (``inf - inf``), which
        # fails the comparison: a violation, without numpy's warning.
        with np.errstate(invalid="ignore"):
            return np.abs(self.mismatch(current)) <= self.allowed_diff + 1e-12

    def conditions_at(self, k: int, dt: float) -> list[LinearCondition]:
        return [
            LinearCondition(
                terms=((k, self.channel_a, 1.0), (k, self.channel_b, -self.gain)),
                constant=-self.offset,
                lower=-self.allowed_diff,
                upper=self.allowed_diff,
                label=f"{self.name}[y{self.channel_a}~y{self.channel_b}@k={k}]",
            )
        ]
