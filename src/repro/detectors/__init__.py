"""Residue-based attack detectors and their evaluation.

The paper's detector raises an alarm whenever ``||z_k|| >= Th[k]`` where
``z_k`` is the Kalman innovation (residue) and ``Th`` is a threshold
specification — static (one constant) or variable (one value per sampling
instance).  This package provides:

* :class:`~repro.detectors.threshold.ThresholdVector` — the threshold
  specification object produced by the synthesis algorithms,
* :class:`~repro.detectors.residue.ResidueDetector` — the online detector,
* :func:`~repro.detectors.threshold.residue_norms` — the one residue-norm
  expression shared by every offline and online detector path,
* chi-square and CUSUM baseline detectors from the literature,
* evaluation metrics (false alarm rate, detection rate, detection delay,
  ROC sweeps).
"""

from repro.detectors.threshold import (
    ALARM_TOLERANCE,
    ThresholdVector,
    alarm_comparison,
    residue_norms,
)
from repro.detectors.residue import ResidueDetector, DetectionResult
from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.evaluation import (
    false_alarm_rate,
    detection_rate,
    detection_delay,
    roc_curve,
    DetectorEvaluation,
)

__all__ = [
    "ALARM_TOLERANCE",
    "alarm_comparison",
    "residue_norms",
    "ThresholdVector",
    "ResidueDetector",
    "DetectionResult",
    "ChiSquareDetector",
    "CusumDetector",
    "false_alarm_rate",
    "detection_rate",
    "detection_delay",
    "roc_curve",
    "DetectorEvaluation",
]
