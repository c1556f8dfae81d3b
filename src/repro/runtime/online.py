"""Scalar online detector wrappers: ``step(z_k) -> alarm`` with reset/state.

These are the single-instance deployment forms of the offline detectors: a
controller loop (or the :class:`~repro.runtime.fleet.FleetSimulator`) feeds
one residue or measurement vector per sampling instance and receives the
alarm decision immediately.  Every wrapper delegates to the matching
fleet-wide core in :mod:`repro.runtime.batch` with ``n_instances=1``, so the
online and batched paths cannot drift apart; both are proven trace-equivalent
to the offline ``evaluate`` paths by ``tests/test_runtime_online.py``.

The wrappers are registered in the detector registry under ``online-residue``,
``online-cusum`` and ``online-chi-square``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.residue import ResidueDetector
from repro.detectors.threshold import ThresholdVector
from repro.monitors.base import Monitor
from repro.registry import DETECTORS
from repro.runtime.batch import (
    BatchChiSquare,
    BatchCusum,
    BatchDetector,
    BatchMonitor,
    BatchThresholdDetector,
    make_batched,
)
from repro.utils.validation import ValidationError


class OnlineDetector(abc.ABC):
    """Base class of the scalar online wrappers.

    Attributes
    ----------
    consumes:
        ``"residues"`` or ``"measurements"`` — which signal :meth:`step`
        expects.
    """

    def __init__(self, core: BatchDetector):
        if core.n_instances != 1:
            raise ValidationError("an OnlineDetector wraps a single-instance core")
        self._core = core

    @property
    def consumes(self) -> str:
        """Which per-step signal the detector expects."""
        return self._core.consumes

    @property
    def step_index(self) -> int:
        """Number of samples consumed since the last reset."""
        return self._core.step_index

    @property
    def state(self) -> dict:
        """Snapshot of the detector state (step counter plus detector-specific state)."""
        return self._core.state

    def step(self, sample: np.ndarray) -> bool:
        """Consume one residue/measurement vector, return the alarm decision."""
        sample = np.asarray(sample, dtype=float).reshape(1, -1)
        return bool(self._core.step(sample)[0])

    def reset(self) -> None:
        """Return to the initial (pre-trace) state."""
        self._core.reset()

    def rebind(self, obj) -> None:
        """Hot-swap the detector's parameters without resetting its state.

        Delegates to the wrapped core's
        :meth:`~repro.runtime.batch.BatchDetector.rebind`; subclasses keep
        their convenience attributes (``threshold``, ``detector``,
        ``monitor``) in sync.
        """
        self._core.rebind(obj)

    def run(self, samples: np.ndarray) -> np.ndarray:
        """Step through a ``(T, m)`` sequence, returning the ``(T,)`` alarm flags.

        Convenience for tests and offline comparison; resets first so the
        result matches a fresh deployment over the sequence.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        self.reset()
        return np.array([self.step(row) for row in samples], dtype=bool)

    @abc.abstractmethod
    def as_batch(self, n_instances: int) -> BatchDetector:
        """The fleet-wide core equivalent to this detector, for ``n_instances``."""


@DETECTORS.register("online-residue")
class OnlineResidueDetector(OnlineDetector):
    """Online form of the paper's residue threshold detector.

    Parameters
    ----------
    threshold:
        The (static or synthesized variable) threshold specification; a plain
        array of per-sample thresholds is also accepted.
    """

    def __init__(self, threshold: ThresholdVector):
        if not isinstance(threshold, ThresholdVector):
            threshold = ThresholdVector(np.asarray(threshold, dtype=float))
        self.threshold = threshold
        super().__init__(BatchThresholdDetector(threshold, 1))

    @classmethod
    def from_detector(cls, detector: ResidueDetector) -> "OnlineResidueDetector":
        """Online wrapper around an offline :class:`ResidueDetector`."""
        return cls(detector.threshold)

    def rebind(self, threshold) -> None:
        """Swap in a new threshold vector; the sample position is kept."""
        self._core.rebind(threshold)
        self.threshold = self._core.threshold

    def as_batch(self, n_instances: int) -> BatchThresholdDetector:
        return BatchThresholdDetector(self.threshold, n_instances)


@DETECTORS.register("online-cusum")
class OnlineCusum(OnlineDetector):
    """Online CUSUM with a persistent accumulator (mirrors :class:`CusumDetector`)."""

    def __init__(self, bias: float, threshold: float, norm: float | str = 2):
        self.detector = CusumDetector(bias=bias, threshold=threshold, norm=norm)
        super().__init__(BatchCusum(self.detector, 1))

    @classmethod
    def from_detector(cls, detector: CusumDetector) -> "OnlineCusum":
        """Online wrapper around an offline :class:`CusumDetector`."""
        online = cls.__new__(cls)
        online.detector = detector
        OnlineDetector.__init__(online, BatchCusum(detector, 1))
        return online

    @property
    def statistic(self) -> float:
        """Current value of the accumulated CUSUM statistic."""
        return float(self._core.state["statistic"][0])

    def rebind(self, detector) -> None:
        """Swap bias/threshold; the accumulated statistic is kept."""
        self._core.rebind(detector)
        self.detector = detector

    def as_batch(self, n_instances: int) -> BatchCusum:
        return BatchCusum(self.detector, n_instances)


@DETECTORS.register("online-chi-square")
class OnlineChiSquare(OnlineDetector):
    """Online chi-square detector (mirrors :class:`ChiSquareDetector`)."""

    def __init__(self, innovation_cov: np.ndarray, threshold: float):
        self.detector = ChiSquareDetector(innovation_cov=innovation_cov, threshold=threshold)
        super().__init__(BatchChiSquare(self.detector, 1))

    @classmethod
    def from_detector(cls, detector: ChiSquareDetector) -> "OnlineChiSquare":
        """Online wrapper around an offline :class:`ChiSquareDetector`."""
        online = cls.__new__(cls)
        online.detector = detector
        OnlineDetector.__init__(online, BatchChiSquare(detector, 1))
        return online

    @classmethod
    def from_false_alarm_probability(
        cls, innovation_cov: np.ndarray, false_alarm_probability: float
    ) -> "OnlineChiSquare":
        """Choose the threshold from a target per-sample false-alarm probability."""
        return cls.from_detector(
            ChiSquareDetector.from_false_alarm_probability(
                innovation_cov, false_alarm_probability
            )
        )

    def rebind(self, detector) -> None:
        """Swap in a new chi-square detector (covariance and/or threshold)."""
        self._core.rebind(detector)
        self.detector = detector

    def as_batch(self, n_instances: int) -> BatchChiSquare:
        return BatchChiSquare(self.detector, n_instances)


class OnlineMonitor(OnlineDetector):
    """Online form of a plant monitor (``mdc``); consumes *measurements*.

    Dead-zone members keep their consecutive-violation counters across steps,
    gradient members keep the previous measurement, exactly as the ECU's
    monitoring system would online.
    """

    def __init__(self, monitor: Monitor, dt: float):
        self.monitor = monitor
        self.dt = float(dt)
        super().__init__(BatchMonitor(monitor, dt, 1))

    def rebind(self, monitor) -> None:
        """Swap in a structurally matching monitor; dead-zone counters are kept."""
        self._core.rebind(monitor)
        self.monitor = monitor

    def as_batch(self, n_instances: int) -> BatchMonitor:
        return BatchMonitor(self.monitor, self.dt, n_instances)


def make_online(obj, dt: float | None = None) -> OnlineDetector:
    """Adapt any detector-shaped object into a scalar :class:`OnlineDetector`.

    Accepts a :class:`ThresholdVector`, an offline residue / CUSUM /
    chi-square detector, a plant :class:`Monitor` (requires ``dt``), or an
    existing online wrapper (returned unchanged).
    """
    if isinstance(obj, OnlineDetector):
        return obj
    if isinstance(obj, ThresholdVector):
        return OnlineResidueDetector(obj)
    if isinstance(obj, ResidueDetector):
        return OnlineResidueDetector.from_detector(obj)
    if isinstance(obj, CusumDetector):
        return OnlineCusum.from_detector(obj)
    if isinstance(obj, ChiSquareDetector):
        return OnlineChiSquare.from_detector(obj)
    if isinstance(obj, Monitor):
        if dt is None:
            raise ValidationError("adapting a plant monitor requires the sampling period dt")
        return OnlineMonitor(obj, dt)
    raise ValidationError(
        f"cannot build an online detector from {type(obj).__name__}; expected a "
        "ThresholdVector, detector, Monitor, or online wrapper"
    )


__all__ = [
    "OnlineDetector",
    "OnlineResidueDetector",
    "OnlineCusum",
    "OnlineChiSquare",
    "OnlineMonitor",
    "make_online",
    "make_batched",
]
