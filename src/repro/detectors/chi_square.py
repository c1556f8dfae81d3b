"""Chi-square residue detector (classical baseline).

The chi-square detector compares the normalised innovation squared
``g_k = z_k^T S^{-1} z_k`` against a threshold chosen from the chi-square
distribution with ``m`` degrees of freedom at a target false-alarm
probability.  It is the standard static baseline the residue-detector
literature (Mo & Sinopoli, Liu et al.) evaluates against, and serves here as
an additional comparison point for the synthesized variable thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detectors.residue import DetectionResult
from repro.registry import DETECTORS
from repro.utils.validation import (
    ValidationError,
    check_finite,
    check_probability,
    check_symmetric,
)


@DETECTORS.register("online-chi-square")
@DETECTORS.register("chi-square")
@dataclass
class ChiSquareDetector:
    """Detector alarming when ``z_k^T S^{-1} z_k >= threshold``.

    Parameters
    ----------
    innovation_cov:
        Innovation covariance ``S`` of the Kalman filter.
    threshold:
        Alarm threshold on the chi-square statistic.
    """

    innovation_cov: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        self.innovation_cov = check_symmetric("innovation_cov", self.innovation_cov)
        self.threshold = float(self.threshold)
        if self.threshold <= 0:
            raise ValidationError("chi-square threshold must be positive")
        try:
            self._inverse = np.linalg.inv(self.innovation_cov)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("innovation covariance is singular") from exc

    @classmethod
    def from_false_alarm_probability(
        cls,
        innovation_cov: np.ndarray,
        false_alarm_probability: float,
    ) -> "ChiSquareDetector":
        """Choose the threshold so that P(alarm | no attack) equals the target.

        Uses the chi-square inverse CDF with ``m`` degrees of freedom, exact
        under the Gaussian/no-attack hypothesis.
        """
        false_alarm_probability = check_probability(
            "false_alarm_probability", false_alarm_probability
        )
        if false_alarm_probability in (0.0, 1.0):
            raise ValidationError("false_alarm_probability must be strictly inside (0, 1)")
        innovation_cov = check_symmetric("innovation_cov", innovation_cov)
        degrees = innovation_cov.shape[0]
        from scipy import stats  # ~0.5 s to import: paid only by this constructor

        threshold = float(stats.chi2.ppf(1.0 - false_alarm_probability, df=degrees))
        return cls(innovation_cov=innovation_cov, threshold=threshold)

    @classmethod
    def from_dict(cls, payload: dict) -> "ChiSquareDetector":
        """Rebuild a detector from its :meth:`to_dict` form (extra keys are ignored)."""
        return cls(
            innovation_cov=np.asarray(payload["innovation_cov"], dtype=float),
            threshold=payload["threshold"],
        )

    def to_dict(self) -> dict:
        """The plain-data (JSON) form: innovation covariance and threshold."""
        return {
            "innovation_cov": np.asarray(self.innovation_cov, dtype=float).tolist(),
            "threshold": float(self.threshold),
        }

    def statistics(self, residues: np.ndarray) -> np.ndarray:
        """Per-sample chi-square statistics ``g_k``; a non-finite residue raises.

        ``residues`` is ``(..., m)``: a ``(T, m)`` trace or a fleet's
        ``(T, N, m)`` block.  The quadratic form is summed channel by channel
        in elementwise products, so a sample's statistic is the same bits
        whatever block it is evaluated in (a contraction such as ``einsum``
        may change its summation order with the number of rows).
        """
        residues = check_finite("residues", np.atleast_2d(np.asarray(residues, dtype=float)))
        inverse = self._inverse
        if residues.shape[-1] != inverse.shape[0]:
            raise ValidationError(
                f"residues have {residues.shape[-1]} channels, "
                f"the innovation covariance has {inverse.shape[0]}"
            )
        statistics = 0.0
        for i, row in enumerate(inverse):
            weighted = 0.0
            for j, entry in enumerate(row):
                weighted = weighted + entry * residues[..., j]
            statistics = statistics + residues[..., i] * weighted
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
            metadata={"detector": "chi-square"},
        )

    def detects(self, residues: np.ndarray) -> bool:
        """True when any sample exceeds the chi-square threshold."""
        return self.evaluate(residues).detected
