"""Vectorized (fleet-wide) online detector and monitor cores.

Each core advances ``N`` detector instances one sampling instance at a time:
``step(values)`` takes an ``(N, m)`` block (one residue or measurement vector
per fleet instance) and returns an ``(N,)`` boolean alarm vector.  All
internal state — step counters, CUSUM accumulators, dead-zone run lengths,
previous-measurement buffers — is shaped ``(N, ...)`` so a whole fleet steps
in a handful of numpy operations.

The cores call the detector classes' own expressions rather than copies
of them: :func:`~repro.detectors.threshold.residue_norms` applied to an
``(N, m)`` block instead of a ``(T, m)`` trace, and each monitor's
:meth:`~repro.monitors.base.Monitor.check` over the fleet's instances
instead of a trace's samples.  A single instance stepped online therefore
produces bit-identical alarm sequences to the offline detectors; the
equivalence is locked in by ``tests/test_runtime_online.py`` and
``tests/test_detector_forms_property.py``.  Only the stateful recurrences —
the CUSUM accumulator and the dead-zone run length — have a numpy form here
next to the offline Python loop.

``run(block)`` advances a core over a whole ``(T, N, m)`` horizon at once.
The threshold and CUSUM cores vectorize it: one call of the detector's own
norm function over every step, then the comparison (threshold) or the
serial clamp (CUSUM).  Every other core steps through the block.  Either
way ``run`` equals the stacked ``step`` calls bit for bit and leaves the
same state (``tests/test_runtime_detector_pass.py``).

:func:`make_batched` is the one dispatch that adapts an object — a
:class:`~repro.detectors.threshold.ThresholdVector`, a residue / CUSUM /
chi-square detector, a plant :class:`~repro.monitors.base.Monitor`, or an
:class:`~repro.runtime.online.OnlineDetector` — into the matching core.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.residue import ResidueDetector
from repro.detectors.threshold import ThresholdVector, alarm_comparison
from repro.monitors.base import Monitor
from repro.monitors.composite import CompositeMonitor
from repro.monitors.deadzone import DeadZoneMonitor
from repro.utils.validation import ValidationError, check_positive


class BatchDetector(abc.ABC):
    """Base class of all fleet-wide online cores.

    Attributes
    ----------
    consumes:
        Which per-step signal the core expects: ``"residues"`` (Kalman
        innovations) or ``"measurements"`` (raw sensor vectors, for plant
        monitors).
    n_instances:
        Number of fleet instances stepped in parallel.
    """

    consumes: str = "residues"

    def __init__(self, n_instances: int):
        self.n_instances = int(check_positive("n_instances", n_instances))
        self._step_index = 0

    @property
    def step_index(self) -> int:
        """Number of sampling instances consumed since the last reset."""
        return self._step_index

    @abc.abstractmethod
    def step(self, values: np.ndarray) -> np.ndarray:
        """Advance one sampling instance; ``values`` is ``(N, m)``, returns ``(N,)`` alarms."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Return every instance to its initial (pre-trace) state."""

    @property
    @abc.abstractmethod
    def state(self) -> dict:
        """Snapshot of the per-instance state (arrays are copies)."""

    # ------------------------------------------------------------------
    # dynamic membership (used by repro.serve for attach/detach mid-run)
    # ------------------------------------------------------------------
    def grow(self, count: int = 1) -> None:
        """Append ``count`` fresh instances (state as at construction).

        Existing instances' state is untouched; the new rows start from the
        initial (pre-trace) state, including a per-instance step counter of 0
        where the core keeps one.
        """
        count = int(count)
        if count <= 0:
            raise ValidationError("grow requires a positive instance count")
        self._grow_state(count)
        self.n_instances += count

    def compact(self, keep: np.ndarray) -> None:
        """Shrink the batch to the given instance rows.

        ``keep`` must be strictly increasing row indices; the surviving
        instances keep their state bit-for-bit (rows are sliced, never
        recomputed).  An empty ``keep`` empties the batch — valid for a
        long-lived service whose last instance detached.
        """
        keep = np.asarray(keep, dtype=int).reshape(-1)
        if keep.size:
            if keep.min() < 0 or keep.max() >= self.n_instances:
                raise ValidationError(
                    f"compact indices out of range [0, {self.n_instances})"
                )
            if np.any(np.diff(keep) <= 0):
                raise ValidationError("compact indices must be strictly increasing")
        self._compact_state(keep)
        self.n_instances = int(keep.size)

    def _grow_state(self, count: int) -> None:
        """Per-core hook: append ``count`` fresh rows to every state array."""

    def _compact_state(self, keep: np.ndarray) -> None:
        """Per-core hook: slice every state array down to the ``keep`` rows."""

    def rebind(self, obj) -> object:
        """Hot-swap the detector's parameters without resetting any state.

        Used by :meth:`repro.serve.service.MonitorService.swap_thresholds`
        to deploy re-synthesized thresholds into a running fleet.  Returns
        the parameter object now bound (a plain threshold array comes back
        as a :class:`ThresholdVector`).  Cores without swappable parameters
        raise.
        """
        raise ValidationError(
            f"{type(self).__name__} does not support hot rebinding"
        )

    # ------------------------------------------------------------------
    def _check_block(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != self.n_instances:
            raise ValidationError(
                f"expected a block of {self.n_instances} instances, got {values.shape[0]}"
            )
        return values

    def _check_blocks(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 3 or values.shape[1] != self.n_instances:
            raise ValidationError(
                f"expected a (T, {self.n_instances}, m) block, got shape {values.shape}"
            )
        return values

    def run(self, values: np.ndarray) -> np.ndarray:
        """Advance through a ``(T, N, m)`` block; returns ``(T, N)`` alarm flags.

        Equal, bit for bit, to stacking ``step(values[k])`` for every ``k``:
        this base version does exactly that, on a C-contiguous float64 copy
        of each step (views of any layout or dtype are accepted).
        """
        values = self._check_blocks(values)
        alarms = np.empty(values.shape[:2], dtype=bool)
        for k in range(values.shape[0]):
            alarms[k] = self.step(np.ascontiguousarray(values[k], dtype=np.float64))
        return alarms


class BatchThresholdDetector(BatchDetector):
    """Fleet-wide online form of the paper's residue threshold detector.

    Compares the (weighted) residue norm of every instance against the
    per-instance-step threshold ``Th[k]``; past the stored threshold length
    the last value is held, matching :meth:`ThresholdVector.effective`.
    """

    def __init__(self, threshold: ThresholdVector, n_instances: int = 1):
        super().__init__(n_instances)
        if not isinstance(threshold, ThresholdVector):
            threshold = ThresholdVector(np.asarray(threshold, dtype=float))
        self.threshold = threshold
        # Per-instance sample counters: instances attached mid-run (grow)
        # start their threshold timeline at 0 while the rest of the fleet is
        # already deep into the vector.
        self._steps = np.zeros(self.n_instances, dtype=int)

    def step(self, residues: np.ndarray) -> np.ndarray:
        residues = self._check_block(residues)
        norms = self.threshold.residue_norms(residues)
        index = np.minimum(self._steps, self.threshold.length - 1)
        self._steps += 1
        self._step_index += 1
        return alarm_comparison(norms, self.threshold.values[index])

    def run(self, values: np.ndarray) -> np.ndarray:
        """All steps' norms in one call, then one broadcast comparison.

        A lockstep fleet (every instance at the same threshold position)
        reads one ``(T,)`` timeline; instances attached mid-run read their
        own ``(T, N)`` timelines.
        """
        values = self._check_blocks(values).astype(np.float64, copy=False)
        norms = self.threshold.residue_norms(values)
        T = values.shape[0]
        steps = self._steps
        last = self.threshold.length - 1
        if steps.size and np.all(steps == steps[0]):
            index = np.minimum(steps[0] + np.arange(T), last)[:, None]
        else:
            index = np.minimum(steps[None, :] + np.arange(T)[:, None], last)
        steps += T
        self._step_index += T
        return alarm_comparison(norms, self.threshold.values[index])

    def reset(self) -> None:
        self._step_index = 0
        self._steps = np.zeros(self.n_instances, dtype=int)

    @property
    def state(self) -> dict:
        return {"step": self._step_index, "steps": self._steps.copy()}

    def _grow_state(self, count: int) -> None:
        self._steps = np.concatenate([self._steps, np.zeros(count, dtype=int)])

    def _compact_state(self, keep: np.ndarray) -> None:
        self._steps = self._steps[keep]

    def rebind(self, threshold) -> ThresholdVector:
        """Swap in a new :class:`ThresholdVector`; per-instance steps are kept."""
        if not isinstance(threshold, ThresholdVector):
            try:
                threshold = ThresholdVector(np.asarray(threshold, dtype=float))
            except (TypeError, ValueError) as error:
                raise ValidationError(
                    "BatchThresholdDetector rebinds to a ThresholdVector"
                ) from error
        self.threshold = threshold
        return threshold


class BatchCusum(BatchDetector):
    """Fleet-wide online CUSUM: one ``(N,)`` accumulator advanced per step."""

    def __init__(self, detector: CusumDetector, n_instances: int = 1):
        super().__init__(n_instances)
        self.detector = detector
        self._statistic = np.zeros(self.n_instances)

    def step(self, residues: np.ndarray) -> np.ndarray:
        residues = self._check_block(residues)
        norms = self.detector._norms(residues)
        self._statistic = np.maximum(0.0, self._statistic + norms - self.detector.bias)
        self._step_index += 1
        return self._statistic >= self.detector.threshold

    def run(self, values: np.ndarray) -> np.ndarray:
        """All steps' norms in one call, then the serial clamp in place.

        The clamp overwrites each step's row of norms with that step's
        statistic, so one comparison over the ``(T, N)`` array gives every
        alarm.
        """
        values = self._check_blocks(values).astype(np.float64, copy=False)
        statistics = self.detector._norms(values)
        bias = self.detector.bias
        previous = self._statistic
        for row in statistics:
            np.add(previous, row, out=row)
            np.subtract(row, bias, out=row)
            np.maximum(0.0, row, out=row)
            previous = row
        self._statistic = previous.copy()
        self._step_index += statistics.shape[0]
        return statistics >= self.detector.threshold

    def reset(self) -> None:
        self._step_index = 0
        self._statistic = np.zeros(self.n_instances)

    @property
    def state(self) -> dict:
        return {"step": self._step_index, "statistic": self._statistic.copy()}

    def _grow_state(self, count: int) -> None:
        self._statistic = np.concatenate([self._statistic, np.zeros(count)])

    def _compact_state(self, keep: np.ndarray) -> None:
        self._statistic = self._statistic[keep]

    def rebind(self, detector) -> CusumDetector:
        """Swap bias/threshold (a :class:`CusumDetector`); accumulators are kept."""
        if not isinstance(detector, CusumDetector):
            raise ValidationError("BatchCusum rebinds to a CusumDetector")
        self.detector = detector
        return detector


class BatchChiSquare(BatchDetector):
    """Fleet-wide online chi-square detector (stateless per sample)."""

    def __init__(self, detector: ChiSquareDetector, n_instances: int = 1):
        super().__init__(n_instances)
        self.detector = detector

    def step(self, residues: np.ndarray) -> np.ndarray:
        residues = self._check_block(residues)
        statistics = self.detector.statistics(residues)
        self._step_index += 1
        return statistics >= self.detector.threshold

    def reset(self) -> None:
        self._step_index = 0

    @property
    def state(self) -> dict:
        return {"step": self._step_index}

    def rebind(self, detector) -> ChiSquareDetector:
        """Swap in a new :class:`ChiSquareDetector` (covariance and/or threshold)."""
        if not isinstance(detector, ChiSquareDetector):
            raise ValidationError("BatchChiSquare rebinds to a ChiSquareDetector")
        self.detector = detector
        return detector


# ----------------------------------------------------------------------
# Plant monitors
# ----------------------------------------------------------------------
class _MonitorNode:
    """Per-monitor alarm state within a :class:`BatchMonitor` tree."""

    def __init__(self, monitor: Monitor, n_instances: int):
        self.monitor = monitor
        self.n_instances = n_instances
        if isinstance(monitor, DeadZoneMonitor):
            self.run_length = np.zeros(n_instances, dtype=int)
        elif isinstance(monitor, CompositeMonitor):
            self.children = [_MonitorNode(member, n_instances) for member in monitor.monitors]

    def alarms(
        self,
        previous: np.ndarray | None,
        current: np.ndarray,
        dt: float,
        valid: np.ndarray | None = None,
    ) -> np.ndarray:
        if isinstance(self.monitor, CompositeMonitor):
            result = np.zeros(current.shape[0], dtype=bool)
            for child in self.children:
                result |= child.alarms(previous, current, dt, valid)
            return result
        if isinstance(self.monitor, DeadZoneMonitor):
            violated = ~self.monitor.inner.check(current, previous, dt, valid)
            self.run_length = np.where(violated, self.run_length + 1, 0)
            return self.run_length >= self.monitor.dead_zone_samples
        return ~self.monitor.check(current, previous, dt, valid)

    def reset(self) -> None:
        if isinstance(self.monitor, DeadZoneMonitor):
            self.run_length = np.zeros(self.n_instances, dtype=int)
        elif isinstance(self.monitor, CompositeMonitor):
            for child in self.children:
                child.reset()

    def grow(self, count: int) -> None:
        self.n_instances += count
        if isinstance(self.monitor, DeadZoneMonitor):
            self.run_length = np.concatenate([self.run_length, np.zeros(count, dtype=int)])
        elif isinstance(self.monitor, CompositeMonitor):
            for child in self.children:
                child.grow(count)

    def compact(self, keep: np.ndarray) -> None:
        self.n_instances = int(keep.size)
        if isinstance(self.monitor, DeadZoneMonitor):
            self.run_length = self.run_length[keep]
        elif isinstance(self.monitor, CompositeMonitor):
            for child in self.children:
                child.compact(keep)

    def _kind(self) -> str:
        if isinstance(self.monitor, DeadZoneMonitor):
            return "dead-zone"
        if isinstance(self.monitor, CompositeMonitor):
            return "composite"
        return "leaf"

    def adopt(self, old: "_MonitorNode") -> None:
        """Carry per-instance alarm state over from a structurally matching tree.

        A replacement monitor may change parameters (bounds, rates, dead-zone
        lengths) but not the tree shape: dead-zone run-length counters only
        survive a swap when old and new node are both dead-zoned, and
        composites must have the same member count.
        """
        if self._kind() != old._kind():
            raise ValidationError(
                f"replacement monitor structure differs ({old._kind()} -> "
                f"{self._kind()}); per-instance monitor state cannot be preserved"
            )
        if isinstance(self.monitor, DeadZoneMonitor):
            self.run_length = old.run_length.copy()
        elif isinstance(self.monitor, CompositeMonitor):
            if len(self.children) != len(old.children):
                raise ValidationError(
                    f"replacement composite has {len(self.children)} members, "
                    f"the deployed one has {len(old.children)}"
                )
            for child, old_child in zip(self.children, old.children):
                child.adopt(old_child)

    def snapshot(self, state: dict, prefix: str) -> None:
        if isinstance(self.monitor, DeadZoneMonitor):
            state[f"{prefix}{self.monitor.name}.run_length"] = self.run_length.copy()
        elif isinstance(self.monitor, CompositeMonitor):
            for index, child in enumerate(self.children):
                child.snapshot(state, f"{prefix}[{index}]")


class BatchMonitor(BatchDetector):
    """Fleet-wide online form of a plant monitor (``mdc``).

    Consumes *measurements* instead of residues; keeps one previous
    measurement per instance (for gradient monitors) and one dead-zone
    run-length counter per instance per dead-zoned member.
    """

    consumes = "measurements"

    def __init__(self, monitor: Monitor, dt: float, n_instances: int = 1):
        super().__init__(n_instances)
        self.monitor = monitor
        self.dt = float(check_positive("dt", dt))
        self._root = _MonitorNode(monitor, self.n_instances)
        self._previous: np.ndarray | None = None
        self._has_previous = np.zeros(self.n_instances, dtype=bool)

    def step(self, measurements: np.ndarray) -> np.ndarray:
        measurements = self._check_block(measurements)
        if self._previous is None or not np.any(self._has_previous):
            # No instance has an earlier sample: identical to the first step
            # of a closed batch.
            alarms = self._root.alarms(None, measurements, self.dt)
        else:
            alarms = self._root.alarms(
                self._previous, measurements, self.dt, self._has_previous
            )
        self._previous = measurements.copy()
        self._has_previous[:] = True
        self._step_index += 1
        return alarms

    def reset(self) -> None:
        self._step_index = 0
        self._previous = None
        self._has_previous = np.zeros(self.n_instances, dtype=bool)
        self._root.reset()

    def _grow_state(self, count: int) -> None:
        self._root.grow(count)
        self._has_previous = np.concatenate(
            [self._has_previous, np.zeros(count, dtype=bool)]
        )
        if self._previous is not None:
            self._previous = np.vstack(
                [self._previous, np.zeros((count, self._previous.shape[1]))]
            )

    def _compact_state(self, keep: np.ndarray) -> None:
        self._root.compact(keep)
        self._has_previous = self._has_previous[keep]
        if self._previous is not None:
            self._previous = self._previous[keep]

    def rebind(self, monitor) -> Monitor:
        """Swap in a structurally matching :class:`Monitor`; run-lengths are kept."""
        if not isinstance(monitor, Monitor):
            raise ValidationError("BatchMonitor rebinds to a Monitor")
        replacement = _MonitorNode(monitor, self.n_instances)
        replacement.adopt(self._root)
        self.monitor = monitor
        self._root = replacement
        return monitor

    @property
    def state(self) -> dict:
        state: dict = {"step": self._step_index}
        if self._previous is not None:
            state["previous"] = self._previous.copy()
        self._root.snapshot(state, "")
        return state


# ----------------------------------------------------------------------
def make_batched(obj, n_instances: int, dt: float | None = None) -> BatchDetector:
    """Adapt any detector-shaped object into a fleet-wide :class:`BatchDetector`.

    The one dispatch from an object to a core.  Accepts an existing
    :class:`BatchDetector` (instance count must match), a
    :class:`~repro.runtime.online.OnlineDetector` (re-batched from the
    object it holds, with fresh state), a :class:`ThresholdVector` or any of
    the offline detector classes, or a plant :class:`Monitor` (requires
    ``dt``).
    """
    from repro.runtime.online import OnlineDetector  # imports this module

    if isinstance(obj, BatchDetector):
        if obj.n_instances != n_instances:
            raise ValidationError(
                f"batched detector is sized for {obj.n_instances} instances, fleet has {n_instances}"
            )
        return obj
    if isinstance(obj, OnlineDetector):
        return make_batched(obj.detector, n_instances, obj.dt)
    if isinstance(obj, ThresholdVector):
        return BatchThresholdDetector(obj, n_instances)
    if isinstance(obj, ResidueDetector):
        return BatchThresholdDetector(obj.threshold, n_instances)
    if isinstance(obj, CusumDetector):
        return BatchCusum(obj, n_instances)
    if isinstance(obj, ChiSquareDetector):
        return BatchChiSquare(obj, n_instances)
    if isinstance(obj, Monitor):
        if dt is None:
            raise ValidationError("adapting a plant monitor requires the sampling period dt")
        return BatchMonitor(obj, dt, n_instances)
    raise ValidationError(
        f"cannot build an online detector from {type(obj).__name__}; expected a "
        "ThresholdVector, detector, Monitor, or online/batched wrapper"
    )
