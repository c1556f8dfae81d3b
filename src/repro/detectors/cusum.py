"""CUSUM residue detector (classical baseline).

The cumulative-sum detector integrates evidence over time:

``S_k = max(0, S_{k-1} + ||z_k|| - bias)`` and alarms when ``S_k >= threshold``.

It detects small persistent residue shifts that a per-sample static threshold
misses, which makes it a natural additional baseline next to the paper's
variable-threshold detectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detectors.residue import DetectionResult
from repro.detectors.threshold import residue_norms
from repro.registry import DETECTORS
from repro.utils.validation import ValidationError, check_positive


@DETECTORS.register("cusum")
@dataclass
class CusumDetector:
    """One-sided CUSUM on the residue norm.

    Parameters
    ----------
    bias:
        Drift term subtracted at every step (sets the detector's tolerance to
        nominal noise); must be positive.
    threshold:
        Alarm level on the accumulated statistic.
    norm:
        Residue norm used per sample (``2`` or ``"inf"``).
    """

    bias: float
    threshold: float
    norm: float | str = 2

    def __post_init__(self) -> None:
        self.bias = check_positive("bias", self.bias)
        self.threshold = check_positive("threshold", self.threshold)
        if self.norm not in (1, 2, "inf"):
            raise ValidationError("norm must be 1, 2 or 'inf'")

    def _norms(self, residues: np.ndarray) -> np.ndarray:
        residues = np.atleast_2d(np.asarray(residues, dtype=float))
        return residue_norms(residues, self.norm)

    def statistics(self, residues: np.ndarray) -> np.ndarray:
        """The accumulated CUSUM statistic ``S_k`` per sample."""
        norms = self._norms(residues)
        statistics = np.zeros_like(norms)
        accumulator = 0.0
        for k, value in enumerate(norms):
            accumulator = max(0.0, accumulator + value - self.bias)
            statistics[k] = accumulator
        return statistics

    def evaluate(self, residues: np.ndarray) -> DetectionResult:
        """Run the detector over a residue sequence."""
        statistics = self.statistics(residues)
        thresholds = np.full(statistics.shape[0], self.threshold)
        alarms = statistics >= thresholds
        return DetectionResult(
            alarms=alarms,
            norms=statistics,
            thresholds=thresholds,
            metadata={"detector": "cusum"},
        )

    def detects(self, residues: np.ndarray) -> bool:
        """True when the accumulated statistic ever crosses the threshold."""
        return self.evaluate(residues).detected
