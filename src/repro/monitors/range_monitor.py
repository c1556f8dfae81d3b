"""Range monitor: a sensor value must stay inside a permissible interval."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.monitors.base import LinearCondition, Monitor
from repro.utils.validation import ValidationError


@dataclass
class RangeMonitor(Monitor):
    """Checks ``low <= y[k][channel] <= high`` at every sampling instance.

    The paper's VSC monitoring system applies this to the yaw rate
    (``|gamma| <= 0.2 rad/s``) and the lateral acceleration
    (``|ay| <= 15 m/s^2``); symmetric ranges are expressed by setting
    ``low = -high``.
    """

    channel: int
    low: float
    high: float
    name: str = "range"

    def __post_init__(self) -> None:
        self.channel = int(self.channel)
        self.low = float(self.low)
        self.high = float(self.high)
        if self.low > self.high:
            raise ValidationError("RangeMonitor requires low <= high")

    @classmethod
    def symmetric(cls, channel: int, magnitude: float, name: str = "range") -> "RangeMonitor":
        """Range monitor for ``|y[channel]| <= magnitude``."""
        magnitude = abs(float(magnitude))
        return cls(channel=channel, low=-magnitude, high=magnitude, name=name)

    def check(self, current, previous, dt, valid=None) -> np.ndarray:
        values = current[:, self.channel]
        return (values >= self.low - 1e-12) & (values <= self.high + 1e-12)

    def conditions_at(self, k: int, dt: float) -> list[LinearCondition]:
        return [
            LinearCondition(
                terms=((k, self.channel, 1.0),),
                lower=self.low,
                upper=self.high,
                label=f"{self.name}[y{self.channel}@k={k}]",
            )
        ]
