"""Composite monitor: conjunction of several monitors with a shared alarm line."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.monitors.base import LinearCondition, Monitor, MonitorReport
from repro.monitors.deadzone import DeadZoneMonitor


@dataclass
class CompositeMonitor(Monitor):
    """A bank of monitors evaluated together.

    The composite is *satisfied* at a sample when every member's check passes,
    and it *alarms* when any member alarms (each member applies its own
    dead-zone policy).  This models the paper's ``mdc``: the conjunction of
    all range, gradient and relation monitors of the ECU.
    """

    monitors: list[Monitor] = field(default_factory=list)
    name: str = "mdc"

    def add(self, monitor: Monitor) -> "CompositeMonitor":
        """Append a monitor and return ``self`` for chaining."""
        self.monitors.append(monitor)
        return self

    def __iter__(self):
        return iter(self.monitors)

    def __len__(self) -> int:
        return len(self.monitors)

    def check(self, current, previous, dt, valid=None) -> np.ndarray:
        result = np.ones(current.shape[0], dtype=bool)
        for monitor in self.monitors:
            result &= monitor.check(current, previous, dt, valid)
        return result

    def satisfied(self, measurements: np.ndarray, dt: float) -> np.ndarray:
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        horizon = measurements.shape[0]
        result = np.ones(horizon, dtype=bool)
        for monitor in self.monitors:
            result &= monitor.satisfied(measurements, dt)
        return result

    def _alarm_walk(self, violated, starts, ends) -> np.ndarray:
        if not self.monitors:
            return violated(self)  # an empty composite always passes: all quiet
        alarms = [member._alarm_walk(violated, starts, ends) for member in self.monitors]
        return functools.reduce(np.logical_or, alarms)

    def conditions_at(self, k: int, dt: float) -> list[LinearCondition]:
        conditions: list[LinearCondition] = []
        for monitor in self.monitors:
            conditions.extend(monitor.conditions_at(k, dt))
        return conditions

    def member_reports(self, measurements: np.ndarray, dt: float) -> list[MonitorReport]:
        """Per-member evaluation reports (useful for the Fig. 2 style plots)."""
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        return [monitor.report(measurements, dt) for monitor in self.monitors]

    def dead_zone_members(self) -> list[DeadZoneMonitor]:
        """Members that carry dead-zone semantics (needed by exact encoders)."""
        return [m for m in self.monitors if isinstance(m, DeadZoneMonitor)]

    def plain_members(self) -> list[Monitor]:
        """Members without dead-zone semantics."""
        return [m for m in self.monitors if not isinstance(m, DeadZoneMonitor)]

    @classmethod
    def empty(cls) -> "CompositeMonitor":
        """A composite with no members (always satisfied, never alarms)."""
        return cls(monitors=[], name="mdc-empty")
