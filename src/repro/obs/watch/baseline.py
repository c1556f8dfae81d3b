"""Benign-envelope estimation: profile noise, then derive CUSUM parameters.

The paper's synthesis flow profiles the *benign* residue distribution
before choosing detector thresholds; this module does the same for the
repo's own telemetry.  The first :attr:`WatchPolicy.window` samples of a
series are treated as the benign envelope: their median is the center and
their MAD (scaled by 1.4826 to estimate sigma under normality, with
relative/absolute floors so a near-constant series doesn't produce a
degenerate scale) is the noise unit.  Subsequent samples are normalized to
``(value - median) / scale`` and oriented so the *bad* direction is
positive, which lets every series share one dimensionless
:class:`~repro.detectors.cusum.CusumDetector` parameterization:
``bias = bias_mads`` and ``threshold = threshold_mads``, both in noise
units.

Orientation is inferred from the metric name
(:func:`orientation_for`): throughput-like names regress by *dropping*,
latency-like names by *rising*; metrics whose orientation can't be
inferred (e.g. the constant ``instance_steps``) are not watched by
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

from repro.utils.validation import ValidationError, check_positive

#: Substrings marking a metric where *higher is better* (regression = drop).
_HIGHER_BETTER = ("throughput", "per_s", "_rate", "speedup", "ops")
#: Substrings marking a metric where *lower is better* (regression = rise).
_LOWER_BETTER = ("elapsed", "seconds", "latency", "duration", "_time", "time_")


def orientation_for(metric: str) -> Optional[str]:
    """Infer a metric's orientation from its name, or None if unknown.

    Returns ``"higher-better"`` / ``"lower-better"``; higher-better
    patterns win ties (``throughput_time_s`` is nonsensical anyway).
    Unknown metrics should not be watched: without an orientation there is
    no bad direction to accumulate.
    """
    name = metric.lower()
    if any(pattern in name for pattern in _HIGHER_BETTER):
        return "higher-better"
    if any(pattern in name for pattern in _LOWER_BETTER) or name.endswith("_s"):
        return "lower-better"
    return None


@dataclass(frozen=True)
class WatchPolicy:
    """Knobs shared by every watcher: warm-up size and CUSUM parameters.

    ``window`` is the benign warm-up: the number of leading samples frozen
    into the baseline before detection starts (a series shorter than this
    stays in warn-only ``warming-up`` status — the CI grace period).
    ``bias_mads``/``threshold_mads`` are the CUSUM drift allowance and
    alarm threshold in baseline noise units.  ``confirm`` is the dead-zone
    run length: a regression is *confirmed* (CI-gating) only after that
    many consecutive alarmed samples, mirroring
    :class:`~repro.monitors.deadzone.DeadZoneMonitor` semantics.
    ``min_rel_scale``/``min_abs_scale`` floor the noise estimate so a
    perfectly quiet baseline still tolerates small benign jitter.
    """

    window: int = 10
    bias_mads: float = 1.0
    threshold_mads: float = 8.0
    confirm: int = 2
    min_rel_scale: float = 0.05
    min_abs_scale: float = 1e-9

    def __post_init__(self) -> None:
        if self.window < 3:
            raise ValidationError(f"window must be >= 3, got {self.window}")
        if self.confirm < 1:
            raise ValidationError(f"confirm must be >= 1, got {self.confirm}")
        check_positive("bias_mads", self.bias_mads)
        check_positive("threshold_mads", self.threshold_mads)
        check_positive("min_rel_scale", self.min_rel_scale, strict=False)
        check_positive("min_abs_scale", self.min_abs_scale)


@dataclass(frozen=True)
class Baseline:
    """A frozen benign envelope: center, noise scale, and sample count."""

    median: float
    mad: float
    scale: float
    n: int

    def deviation(self, value: float, orientation: str) -> float:
        """Normalized deviation of ``value`` with the bad direction positive."""
        raw = (value - self.median) / self.scale
        return -raw if orientation == "higher-better" else raw


def estimate_baseline(values: Sequence[float], policy: WatchPolicy) -> Baseline:
    """Median/MAD envelope over ``values`` with the policy's scale floors."""
    if not values:
        raise ValidationError("cannot estimate a baseline from zero samples")
    center = float(median(values))
    mad = float(median(abs(v - center) for v in values))
    scale = max(
        mad * 1.4826,
        policy.min_rel_scale * abs(center),
        policy.min_abs_scale,
    )
    return Baseline(median=center, mad=mad, scale=scale, n=len(values))
