"""Dead-zone wrapper: alarm only after sustained violation.

The paper's VSC monitoring system does not alarm on an isolated violation:
"it waits for a certain duration, called dead zone.  Continuous violation
during the dead zone causes the monitoring system to raise an alarm."  With a
40 ms sampling period and a 300 ms dead zone this is 7 consecutive samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.monitors.base import LinearCondition, Monitor
from repro.utils.validation import check_positive


def _run_lengths(violated: np.ndarray, start: np.ndarray | int = 0) -> np.ndarray:
    """Consecutive-violation run length at every row of a ``(T, ...)`` block.

    The one dead-zone counter of the library: ``violated`` holds a trace's
    ``(T,)`` flags offline or a fleet's ``(T, N)`` flags online, and
    ``start`` is the run length carried into the first row.  Integer-exact
    closed form: the run at row ``k`` is ``k - j`` for the last passing row
    ``j <= k``, or ``k + 1 + start`` when no row up to ``k`` passes.
    """
    steps = np.arange(violated.shape[0]).reshape((-1,) + (1,) * (violated.ndim - 1))
    last_pass = np.where(violated, -1 - np.asarray(start), steps)
    np.maximum.accumulate(last_pass, axis=0, out=last_pass)
    return steps - last_pass


@dataclass
class DeadZoneMonitor(Monitor):
    """Wraps an inner monitor with a consecutive-violation counter.

    An alarm is raised at sample ``k`` when the inner check has been violated
    at every one of the last ``dead_zone_samples`` samples (inclusive of
    ``k``).

    Attributes
    ----------
    inner:
        The wrapped monitor whose per-sample check is counted.
    dead_zone_samples:
        Number of consecutive violations required to alarm.
    """

    inner: Monitor
    dead_zone_samples: int
    name: str = "deadzone"

    def __post_init__(self) -> None:
        self.dead_zone_samples = int(check_positive("dead_zone_samples", self.dead_zone_samples))
        if not self.name or self.name == "deadzone":
            self.name = f"deadzone({self.inner.name})"

    def check(self, current, previous, dt, valid=None) -> np.ndarray:
        """Per-row result of the *inner* check (dead zone does not change it)."""
        return self.inner.check(current, previous, dt, valid)

    def satisfied(self, measurements: np.ndarray, dt: float) -> np.ndarray:
        """Per-sample result of the *inner* check (dead zone does not change it)."""
        return self.inner.satisfied(measurements, dt)

    def _alarm_walk(self, violated, starts, ends) -> np.ndarray:
        runs = _run_lengths(violated(self.inner), next(starts))
        ends.append(runs)
        return runs >= self.dead_zone_samples

    def conditions_at(self, k: int, dt: float) -> list[LinearCondition]:
        """Inner conditions at sample ``k`` (stealth interpretation is up to the encoder).

        Encoders that treat dead zones exactly must consult
        :attr:`dead_zone_samples` and require, for every window of that
        length, at least one sample where the inner conditions hold.  The
        conservative encoders simply require the inner conditions at every
        sample, which under-approximates the attacker's freedom.
        """
        return self.inner.conditions_at(k, dt)

    def stealth_windows(self, horizon: int) -> list[tuple[int, ...]]:
        """All windows of consecutive samples whose full violation would alarm.

        Returns a list of index tuples; an attack is stealthy w.r.t. this
        monitor iff for each window at least one sample satisfies the inner
        check.
        """
        width = self.dead_zone_samples
        if horizon < width:
            return []
        return [tuple(range(start, start + width)) for start in range(horizon - width + 1)]
