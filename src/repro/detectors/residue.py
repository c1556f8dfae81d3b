"""The residue-based threshold detector.

Wraps a :class:`~repro.detectors.threshold.ThresholdVector` into an online
detector object that consumes residue sequences (from a simulation trace or a
live Kalman filter) and reports alarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detectors.threshold import ThresholdVector
from repro.lti.simulate import SimulationTrace
from repro.registry import DETECTORS


@dataclass
class DetectionResult:
    """Outcome of running a detector over one residue sequence.

    Attributes
    ----------
    alarms:
        Boolean per-sample alarm flags.
    norms:
        Residue norms compared against the thresholds.
    thresholds:
        The effective per-sample thresholds used.
    """

    alarms: np.ndarray
    norms: np.ndarray
    thresholds: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def detected(self) -> bool:
        """True when at least one alarm fired."""
        return bool(np.any(self.alarms))

    @property
    def first_alarm(self) -> int | None:
        """Index of the first alarm, or ``None`` when no alarm fired."""
        indices = np.flatnonzero(self.alarms)
        return int(indices[0]) if indices.size else None

    @property
    def alarm_count(self) -> int:
        """Total number of alarmed samples."""
        return int(np.sum(self.alarms))


@DETECTORS.register("online-residue")
@DETECTORS.register("residue")
@dataclass
class ResidueDetector:
    """Threshold detector over Kalman residues.

    Parameters
    ----------
    threshold:
        The threshold specification (static or variable); a plain array of
        per-sample thresholds is also accepted.
    """

    threshold: ThresholdVector

    def __post_init__(self) -> None:
        if not isinstance(self.threshold, ThresholdVector):
            self.threshold = ThresholdVector(np.asarray(self.threshold, dtype=float))

    @classmethod
    def static(cls, value: float, length: int, norm: float | str = "inf") -> "ResidueDetector":
        """Convenience constructor for a static threshold detector."""
        return cls(ThresholdVector.static(value, length, norm=norm))

    def evaluate(self, residues: np.ndarray) -> DetectionResult:
        """Run the detector over a ``(T, m)`` residue sequence."""
        norms, thresholds, alarms = self.threshold.compare(residues)
        return DetectionResult(alarms=alarms, norms=norms, thresholds=thresholds)

    def evaluate_trace(self, trace: SimulationTrace) -> DetectionResult:
        """Run the detector over a simulation trace's residues."""
        result = self.evaluate(trace.residues)
        result.metadata["system"] = trace.metadata.get("system")
        return result

    def detects(self, residues: np.ndarray) -> bool:
        """True when the residue sequence triggers at least one alarm."""
        return self.evaluate(residues).detected

    def is_stealthy(self, residues: np.ndarray) -> bool:
        """True when the residue sequence never triggers an alarm."""
        return not self.detects(residues)
