"""Gradient monitor: a sensor value must not change faster than a rate limit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.monitors.base import LinearCondition, Monitor
from repro.utils.validation import check_positive


@dataclass
class GradientMonitor(Monitor):
    """Checks ``|y[k][channel] - y[k-1][channel]| / dt <= max_rate``.

    The first sample has no predecessor, so the check is vacuously satisfied
    there (matching how ECU gradient monitors initialise).

    The paper's VSC limits: yaw-rate gradient 0.175 rad/s² and lateral
    acceleration gradient 2 m/s³.
    """

    channel: int
    max_rate: float
    name: str = "gradient"

    def __post_init__(self) -> None:
        self.channel = int(self.channel)
        self.max_rate = check_positive("max_rate", self.max_rate)

    def check(self, current, previous, dt, valid=None) -> np.ndarray:
        if previous is None:
            return np.ones(current.shape[0], dtype=bool)
        # ``inf - inf`` is NaN and fails the comparison: a violation, without
        # numpy's warning.
        with np.errstate(invalid="ignore"):
            rates = np.abs(current[:, self.channel] - previous[:, self.channel]) / float(dt)
        satisfied = rates <= self.max_rate + 1e-12
        if valid is not None:
            satisfied |= ~valid
        return satisfied

    def conditions_at(self, k: int, dt: float) -> list[LinearCondition]:
        if k == 0:
            return []
        bound = self.max_rate * float(dt)
        return [
            LinearCondition(
                terms=((k, self.channel, 1.0), (k - 1, self.channel, -1.0)),
                lower=-bound,
                upper=bound,
                label=f"{self.name}[y{self.channel}@k={k}]",
            )
        ]
