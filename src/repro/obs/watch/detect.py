"""CUSUM watchers over telemetry series — adapters, no new detector math.

:class:`SeriesWatcher` streams one scalar series (a benchmark metric
trajectory or a live gauge/counter-rate) through one
:class:`~repro.runtime.online.OnlineDetector` over a
:class:`~repro.detectors.cusum.CusumDetector` — the exact detector core the
serving layer deploys on plant residues.  The first
``policy.window`` samples freeze the benign baseline
(:func:`~repro.obs.watch.baseline.estimate_baseline`); each later sample's
oriented normalized deviation is rectified at zero (only bad-direction
drift accumulates, mirroring the one-sided CUSUM recursion) and fed to the
core.  Alarms become typed :class:`RegressionEvent` objects pushed through
the existing :class:`~repro.runtime.events.EventSink` layer, and a
dead-zone-style run length of ``policy.confirm`` consecutive alarmed
bad-side samples upgrades a suspect to a *confirmed* regression — the
CI-gating verdict.  (Only samples whose own deviation is positive extend
the run, so an isolated spike whose accumulated statistic is still
decaying stays a suspect.)

Onset estimation uses the classic CUSUM change-point estimate: the first
sample after the accumulator last sat at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.detectors.cusum import CusumDetector
from repro.obs.watch.baseline import Baseline, WatchPolicy, estimate_baseline
from repro.runtime.events import AlarmEvent, EventSink
from repro.runtime.online import OnlineDetector


@dataclass(frozen=True)
class RegressionEvent(AlarmEvent):
    """An alarm on a watched telemetry series.

    Subclasses :class:`~repro.runtime.events.AlarmEvent` so every existing
    sink (in-memory, JSONL, buffered) accepts it unchanged; ``detector``
    carries ``watch:<series key>``, ``step`` the 0-based sample index, and
    ``instance`` is always 0 (one watcher = one logical instance).

    Attributes
    ----------
    series:
        Display key of the watched series (e.g. ``test/metric``).
    metric:
        The metric name alone.
    direction:
        Raw-value direction of the regression: ``"drop"`` for a
        higher-is-better metric, ``"rise"`` for a lower-is-better one.
    onset:
        Estimated 0-based change-point index (first sample after the CUSUM
        accumulator last touched zero).
    magnitude:
        Oriented deviation of the alarming sample in baseline noise units.
    rel_change:
        Signed relative change of the alarming sample vs the baseline
        median (``(value - median) / |median|``).
    value:
        The alarming sample's raw value.
    baseline_median / baseline_scale:
        The frozen benign envelope the deviation was measured against.
    confirmed:
        True once ``policy.confirm`` consecutive samples have alarmed —
        the dead-zone criterion that gates CI.
    """

    series: str = ""
    metric: str = ""
    direction: str = ""
    onset: int = -1
    magnitude: float = 0.0
    rel_change: float = 0.0
    value: float = 0.0
    baseline_median: float = 0.0
    baseline_scale: float = 0.0
    confirmed: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionEvent":
        """Inverse of :meth:`~repro.runtime.events.AlarmEvent.to_dict`."""
        return cls(**data)


class SeriesWatcher:
    """One CUSUM detector instance watching one scalar series.

    Parameters
    ----------
    key:
        Display key for events and reports (e.g. ``test/metric``).
    metric:
        Metric name (used for the event's ``metric`` field).
    orientation:
        ``"higher-better"`` or ``"lower-better"`` — which raw direction is
        a regression.
    policy:
        Shared :class:`~repro.obs.watch.baseline.WatchPolicy` (warm-up
        window, CUSUM parameters, confirm run length).
    sinks:
        Existing alarm sinks; every :class:`RegressionEvent` is emitted to
        each as a one-event batch.
    baseline:
        Optional pre-frozen benign envelope; when omitted the first
        ``policy.window`` samples are used (and detection starts after
        them).
    """

    def __init__(
        self,
        key: str,
        metric: str = "",
        orientation: str = "lower-better",
        policy: Optional[WatchPolicy] = None,
        sinks: Iterable[EventSink] = (),
        baseline: Optional[Baseline] = None,
    ) -> None:
        if orientation not in ("higher-better", "lower-better"):
            raise ValueError(f"unknown orientation: {orientation!r}")
        self.key = key
        self.metric = metric or key
        self.orientation = orientation
        self.policy = policy or WatchPolicy()
        self.sinks = list(sinks)
        self.baseline = baseline
        self.events: list[RegressionEvent] = []
        self.index = -1
        self._cusum: Optional[OnlineDetector] = None
        self._warmup: list[float] = []
        self._last_zero = -1
        self._run_length = 0
        self._alarmed = False
        self._confirmed_onset: Optional[int] = None
        self._max_magnitude = 0.0
        self.last_value: Optional[float] = None
        if baseline is not None:
            self._arm(baseline)

    def _arm(self, baseline: Baseline) -> None:
        self.baseline = baseline
        self._cusum = OnlineDetector(
            CusumDetector(bias=self.policy.bias_mads, threshold=self.policy.threshold_mads)
        )
        self._last_zero = self.index

    @property
    def warming_up(self) -> bool:
        """True while the benign baseline is still being collected."""
        return self._cusum is None

    @property
    def direction(self) -> str:
        """Raw-value direction a regression would take on this series."""
        return "drop" if self.orientation == "higher-better" else "rise"

    @property
    def status(self) -> str:
        """``warming-up`` | ``ok`` | ``suspect`` | ``regression``."""
        if self._confirmed_onset is not None:
            return "regression"
        if self._alarmed:
            return "suspect"
        if self.warming_up:
            return "warming-up"
        return "ok"

    @property
    def onset(self) -> Optional[int]:
        """Estimated change-point index of the confirmed regression, if any."""
        return self._confirmed_onset

    def observe(self, value: float) -> Optional[RegressionEvent]:
        """Consume one sample; returns the emitted event when it alarms."""
        self.index += 1
        self.last_value = value = float(value)
        if self._cusum is None:
            self._warmup.append(value)
            if len(self._warmup) >= self.policy.window:
                self._arm(estimate_baseline(self._warmup, self.policy))
            return None
        assert self.baseline is not None
        deviation = self.baseline.deviation(value, self.orientation)
        alarm = self._cusum.step([max(0.0, deviation)])
        if self._cusum.state["statistic"][0] == 0.0:
            self._last_zero = self.index
        if not alarm:
            self._run_length = 0
            return None
        # Confirmation counts consecutive alarmed samples that are themselves
        # on the bad side of the baseline: while an isolated spike's statistic
        # decays (still >= threshold, deviation back at zero) the run length
        # resets, so a transient stays "suspect" instead of confirming.
        self._run_length = self._run_length + 1 if deviation > 0.0 else 0
        self._max_magnitude = max(self._max_magnitude, deviation)
        first = not self._alarmed
        self._alarmed = True
        onset = self._last_zero + 1
        confirmed = self._run_length >= self.policy.confirm
        if confirmed and self._confirmed_onset is None:
            self._confirmed_onset = onset
        center = self.baseline.median
        event = RegressionEvent(
            instance=0,
            step=self.index,
            detector=f"watch:{self.key}",
            first=first,
            series=self.key,
            metric=self.metric,
            direction=self.direction,
            onset=onset,
            magnitude=deviation,
            rel_change=(value - center) / abs(center) if center else 0.0,
            value=value,
            baseline_median=center,
            baseline_scale=self.baseline.scale,
            confirmed=confirmed,
        )
        self.events.append(event)
        for sink in self.sinks:
            sink.emit([event])
        return event

    def observe_many(self, values: Sequence[float]) -> list[RegressionEvent]:
        """Stream a whole series; returns every emitted event."""
        out = []
        for value in values:
            event = self.observe(value)
            if event is not None:
                out.append(event)
        return out

    def verdict(self) -> dict:
        """Plain-data summary of this watcher's state (JSON-compatible)."""
        baseline = self.baseline
        return {
            "series": self.key,
            "metric": self.metric,
            "orientation": self.orientation,
            "status": self.status,
            "samples": self.index + 1,
            "direction": self.direction if self._alarmed else "",
            "onset": self._confirmed_onset,
            "alarms": len(self.events),
            "max_magnitude": self._max_magnitude,
            "last_value": self.last_value,
            "baseline_median": None if baseline is None else baseline.median,
            "baseline_scale": None if baseline is None else baseline.scale,
        }


__all__ = ["RegressionEvent", "SeriesWatcher"]
