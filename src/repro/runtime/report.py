"""Fleet-level aggregation of online detection outcomes.

A :class:`FleetReport` summarises one :class:`~repro.runtime.fleet.FleetSimulator`
run: for every deployed detector it reports the detection rate and detection
latency over the attacked sub-fleet and the (per-instance and per-step) false
alarm rates over the benign sub-fleet — the online metrics the offline
``evaluate`` path cannot express.  :class:`AlarmTally` is the fleet's alarm
bookkeeping: one alarm index per detector, a ``flatnonzero`` of its ``(T, N)``
alarm stack, feeds both the stats and the step-ordered emission of its slices
to the sinks as :class:`~repro.runtime.events.AlarmBatch` columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.runtime.events import AlarmBatch, EventSink


@dataclass
class DetectorFleetStats:
    """Online metrics of one deployed detector over one fleet run.

    Attributes
    ----------
    label:
        Detector label within the fleet.
    alarm_count:
        Total alarmed instance-steps (attacked and benign alike).
    alarmed_instances:
        Number of instances with at least one alarm anywhere in the run.
    detection_rate:
        Fraction of *attacked* instances with at least one alarm at or after
        their attack start (``None`` when the fleet had no attacked instances).
    mean_detection_latency / median_detection_latency:
        Steps from attack start to the first such alarm, over detected
        instances (``None`` when nothing was detected).
    false_alarm_rate:
        Fraction of *benign* instances with at least one alarm (``None`` when
        the whole fleet was attacked).
    per_step_false_alarm_rate:
        Fraction of benign instance-steps that alarmed — the online per-step
        FAR.
    """

    label: str
    alarm_count: int = 0
    alarmed_instances: int = 0
    detection_rate: float | None = None
    mean_detection_latency: float | None = None
    median_detection_latency: float | None = None
    false_alarm_rate: float | None = None
    per_step_false_alarm_rate: float | None = None

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        return {
            "label": self.label,
            "alarm_count": self.alarm_count,
            "alarmed_instances": self.alarmed_instances,
            "detection_rate": self.detection_rate,
            "mean_detection_latency": self.mean_detection_latency,
            "median_detection_latency": self.median_detection_latency,
            "false_alarm_rate": self.false_alarm_rate,
            "per_step_false_alarm_rate": self.per_step_false_alarm_rate,
        }


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet-monitoring run.

    Attributes
    ----------
    n_instances / horizon:
        Fleet size ``N`` and number of sampling instances ``T`` stepped.
    n_attacked:
        Instances that received at least one scheduled attack injection.
    detectors:
        Per-detector :class:`DetectorFleetStats`, keyed by label.
    elapsed_seconds:
        Wall-clock duration of the stepping loop.
    metadata:
        Free-form provenance (system name, seed, attack schedule, ...).
    trace:
        The full :class:`~repro.runtime.fleet.FleetTrace` when the run
        recorded trajectories (``record_traces=True``); excluded from
        :meth:`to_dict` so the report stays JSON-compatible.
    """

    n_instances: int
    horizon: int
    n_attacked: int = 0
    detectors: dict[str, DetectorFleetStats] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)
    trace: object | None = field(default=None, repr=False, compare=False)

    @property
    def n_benign(self) -> int:
        """Instances that never received an attack injection."""
        return self.n_instances - self.n_attacked

    @property
    def instance_steps(self) -> int:
        """Total work performed: instances × steps."""
        return self.n_instances * self.horizon

    @property
    def throughput(self) -> float:
        """Instance-steps per second of the stepping loop.

        ``NaN`` when ``elapsed_seconds`` is zero or negative: a report built
        without a measured run has no meaningful rate, and NaN (unlike the
        former ``inf``) poisons any aggregate that accidentally includes it
        and fails every ``>`` gate instead of passing vacuously.
        """
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.instance_steps / self.elapsed_seconds

    def stats(self, label: str) -> DetectorFleetStats:
        """Stats of one deployed detector (by label)."""
        return self.detectors[label]

    def summary_rows(self) -> list[dict]:
        """Tabular summary, one row per detector, sorted by label."""
        return [self.detectors[label].to_dict() for label in sorted(self.detectors)]

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        return {
            "n_instances": self.n_instances,
            "horizon": self.horizon,
            "n_attacked": self.n_attacked,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput": self.throughput,
            "detectors": {label: s.to_dict() for label, s in sorted(self.detectors.items())},
            "metadata": dict(self.metadata),
        }

    def __str__(self) -> str:
        def fmt(value, digits=4):
            if value is None:
                return "-"
            return f"{value:.{digits}g}"

        lines = [
            f"FleetReport: {self.n_instances} instances x {self.horizon} steps "
            f"({self.n_attacked} attacked), {self.elapsed_seconds:.3f}s "
            f"({self.throughput:,.0f} instance-steps/s)"
        ]
        header = (
            f"{'detector':<24}{'det.rate':>10}{'latency':>10}"
            f"{'FAR':>10}{'step FAR':>10}{'alarms':>9}"
        )
        lines.append(header)
        for label in sorted(self.detectors):
            s = self.detectors[label]
            lines.append(
                f"{label:<24}{fmt(s.detection_rate):>10}"
                f"{fmt(s.mean_detection_latency):>10}{fmt(s.false_alarm_rate):>10}"
                f"{fmt(s.per_step_false_alarm_rate):>10}{s.alarm_count:>9}"
            )
        return "\n".join(lines)


def build_detector_stats(
    label: str,
    first_alarm: np.ndarray,
    first_detection: np.ndarray,
    alarm_count: int,
    benign_alarm_steps: int,
    attacked_mask: np.ndarray,
    attack_start: np.ndarray,
    horizon: int,
) -> DetectorFleetStats:
    """Assemble one detector's stats from the simulator's per-instance arrays.

    Parameters
    ----------
    first_alarm / first_detection:
        Per-instance step of the first alarm anywhere / at-or-after the
        instance's attack start (``-1`` when none fired).
    benign_alarm_steps:
        Alarmed instance-steps over benign instances only.
    attacked_mask / attack_start:
        Which instances were attacked and from which step.
    """
    stats = DetectorFleetStats(label=label, alarm_count=int(alarm_count))
    stats.alarmed_instances = int(np.sum(first_alarm >= 0))

    n_attacked = int(np.sum(attacked_mask))
    n_benign = attacked_mask.size - n_attacked
    if n_attacked:
        detected = attacked_mask & (first_detection >= 0)
        stats.detection_rate = float(np.sum(detected) / n_attacked)
        if np.any(detected):
            latencies = (first_detection - attack_start)[detected]
            stats.mean_detection_latency = float(np.mean(latencies))
            stats.median_detection_latency = float(np.median(latencies))
    if n_benign:
        benign = ~attacked_mask
        stats.false_alarm_rate = float(np.sum(first_alarm[benign] >= 0) / n_benign)
        stats.per_step_false_alarm_rate = float(benign_alarm_steps / (n_benign * horizon))
    return stats


class AlarmTally:
    """Alarm bookkeeping of one fleet run, from its ``(T, N)`` alarm stacks.

    Each stack is read once: one ``np.flatnonzero`` gives its alarms as
    step-major ``(steps, instances)`` index columns, and what
    :func:`build_detector_stats` needs — alarm counts, benign alarm-steps,
    first-alarm and first-detection steps — comes from those alarms, not the
    ``T * N`` cells.  :meth:`publish` hands the alarms to sinks, counter and
    scraper in step order, as :class:`~repro.runtime.events.AlarmBatch`
    slices of the same columns.

    Parameters
    ----------
    alarms:
        Label → ``(T, N)`` boolean alarm stack, in detector-bank order.
    attacked_mask / attack_start:
        Which instances were attacked and from which step.
    horizon:
        Number of steps ``T``.
    """

    def __init__(
        self,
        alarms: Mapping[str, np.ndarray],
        attacked_mask: np.ndarray,
        attack_start: np.ndarray,
        horizon: int,
    ) -> None:
        self.attacked_mask = attacked_mask
        self.attack_start = attack_start
        self.horizon = int(horizon)
        n_instances = attacked_mask.size
        self.alarm_counts: dict[str, int] = {}
        self.benign_alarm_steps: dict[str, int] = {}
        self.first_alarm: dict[str, np.ndarray] = {}
        self.first_detection: dict[str, np.ndarray] = {}
        self._index: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for label, stack in alarms.items():
            steps, instances = np.divmod(np.flatnonzero(stack), n_instances)
            attacked = attacked_mask[instances]
            detects = attacked & (steps >= attack_start[instances])
            self._index[label] = steps, instances
            self.alarm_counts[label] = steps.size
            self.benign_alarm_steps[label] = steps.size - int(np.count_nonzero(attacked))
            # Least alarm step per instance, overall and among detections.
            least = np.full((2, n_instances), self.horizon)
            np.minimum.at(least[0], instances, steps)
            np.minimum.at(least[1], instances[detects], steps[detects])
            least[least == self.horizon] = -1
            self.first_alarm[label], self.first_detection[label] = least

    def stats(self, label: str) -> DetectorFleetStats:
        """The :class:`DetectorFleetStats` of one detector."""
        return build_detector_stats(
            label=label,
            first_alarm=self.first_alarm[label],
            first_detection=self.first_detection[label],
            alarm_count=self.alarm_counts[label],
            benign_alarm_steps=self.benign_alarm_steps[label],
            attacked_mask=self.attacked_mask,
            attack_start=self.attack_start,
            horizon=self.horizon,
        )

    def _columns(self, label: str) -> tuple:
        """Read-only ``(instance, step, first)`` alarm columns and per-step bounds."""
        steps, instances = self._index[label]
        first = steps == self.first_alarm[label][instances]
        for column in (instances, steps, first):
            column.flags.writeable = False
        bounds = np.searchsorted(steps, np.arange(self.horizon + 1)).tolist()
        return instances, steps, first, bounds

    def publish(
        self,
        sinks: Sequence[EventSink] = (),
        counter=None,
        scraper=None,
    ) -> None:
        """Hand the alarms to their consumers in step order.

        For each step, then each detector with at least one alarm at that
        step: ``counter.inc(count, detector=label)`` and one
        :class:`~repro.runtime.events.AlarmBatch` to every sink; after each
        step, ``scraper.maybe_scrape()``.  With neither sinks nor a scraper
        nothing can observe the order, so each detector's counter takes its
        total in one increment (the same final value).
        """
        if not sinks and scraper is None:
            if counter is not None:
                for label, total in self.alarm_counts.items():
                    if total:
                        counter.inc(total, detector=label)
            return
        columns = [
            (label, *self._columns(label))
            for label, total in self.alarm_counts.items()
            if total
        ]
        for k in range(self.horizon):
            for label, instances, steps, first, bounds in columns:
                lo, hi = bounds[k], bounds[k + 1]
                if lo == hi:
                    continue
                if counter is not None:
                    counter.inc(hi - lo, detector=label)
                if sinks:
                    batch = AlarmBatch._of_columns(
                        label, instances[lo:hi], steps[lo:hi], first[lo:hi]
                    )
                    for sink in sinks:
                        sink.emit(batch)
            if scraper is not None:
                scraper.maybe_scrape()


__all__ = [
    "AlarmTally",
    "DetectorFleetStats",
    "FleetReport",
    "build_detector_stats",
]
