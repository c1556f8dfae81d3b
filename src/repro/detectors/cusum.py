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


@DETECTORS.register("online-cusum")
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

    @classmethod
    def from_dict(cls, payload: dict) -> "CusumDetector":
        """Rebuild a detector from its :meth:`to_dict` form (extra keys are ignored)."""
        return cls(bias=payload["bias"], threshold=payload["threshold"], norm=payload["norm"])

    def to_dict(self) -> dict:
        """The plain-data (JSON) form: bias, threshold and norm."""
        return {"bias": float(self.bias), "threshold": float(self.threshold), "norm": self.norm}

    def _norms(self, residues: np.ndarray) -> np.ndarray:
        residues = np.atleast_2d(np.asarray(residues, dtype=float))
        return residue_norms(residues, self.norm)

    def _accumulate(self, norms: np.ndarray, start: np.ndarray | float = 0.0) -> np.ndarray:
        """The clamp ``S_k = max(0, S_{k-1} + norms[k] - bias)`` down a ``(T, ...)`` block.

        The one CUSUM recurrence of the library: offline :meth:`statistics`
        runs it over a trace's ``(T,)`` norms from ``start = 0``, the fleet
        core over a ``(T, N)`` block from each instance's carried
        accumulator.  Each row of ``norms`` is overwritten with its
        statistic, and ``norms`` is returned.
        """
        previous = start
        for k in range(norms.shape[0]):
            previous = norms[k] = np.maximum(0.0, previous + norms[k] - self.bias)
        return norms

    def statistics(self, residues: np.ndarray) -> np.ndarray:
        """The accumulated CUSUM statistic ``S_k`` per sample."""
        return self._accumulate(self._norms(residues))

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
