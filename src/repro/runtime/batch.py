"""Vectorized (fleet-wide) online detector and monitor cores.

Each core advances ``N`` detector instances through a ``(T, N, m)`` block
of residue or measurement vectors with one pass, :meth:`BatchDetector.run`,
and returns the ``(T, N)`` alarm flags; ``step`` is that pass over a single
row.  All internal state — threshold positions, CUSUM accumulators,
dead-zone run lengths, previous measurements — is shaped ``(N, ...)`` and
carried from one block into the next, so a fleet's horizon can be cut into
blocks of any length.

A core holds no detector math of its own.  It feeds its block to the rules
the detector and monitor classes define once and use offline too:
:func:`~repro.detectors.threshold.residue_norms` and the hold-last threshold
position (``ThresholdVector._at``), the CUSUM clamp
(``CusumDetector._accumulate``) started from the carried accumulator, the
chi-square statistic, and the monitor alarm walk (``Monitor._alarm_walk``)
fed each monitor's :meth:`~repro.monitors.base.Monitor.check` over the
block's instance-steps, its dead zones started from the carried run
lengths.  A single instance stepped online therefore raises the offline
detectors' alarms bit for bit, however the trace is cut into blocks
(``tests/test_runtime_online.py``, ``tests/test_detector_forms_property.py``,
``tests/test_runtime_detector_pass.py`` and ``tests/test_alarm_rules.py``).

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
    def run(self, values: np.ndarray) -> np.ndarray:
        """Advance through a ``(T, N, m)`` block; returns ``(T, N)`` alarm flags.

        The core's one pass.  It resumes from the core's state and leaves it
        where the block ends, so consecutive blocks chain into one horizon.
        Views of any layout or dtype are accepted; the detector math runs in
        float64.
        """

    def step(self, values: np.ndarray) -> np.ndarray:
        """Advance one sampling instance; ``values`` is ``(N, m)``, returns ``(N,)`` alarms."""
        return self.run(values[None])[0]

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
    def _check_blocks(self, values: np.ndarray) -> np.ndarray:
        """``values`` as a float64 ``(T, N, m)`` block, or a ``ValidationError``."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3 or values.shape[1] != self.n_instances:
            raise ValidationError(
                f"expected a (T, {self.n_instances}, m) block, got shape {values.shape}"
            )
        return values


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

    def run(self, values: np.ndarray) -> np.ndarray:
        """All steps' norms in one call, then one broadcast comparison.

        A lockstep fleet (every instance at the same threshold position)
        reads one ``(T,)`` timeline; instances attached mid-run read their
        own ``(T, N)`` timelines.  Instances are appended in attach order
        and all advance together, so the positions never increase along the
        rows: the fleet is in lockstep when its first and last agree.
        """
        values = self._check_blocks(values)
        norms = self.threshold.residue_norms(values)
        T = values.shape[0]
        steps = self._steps
        if steps.size and steps[0] == steps[-1]:
            positions = np.arange(steps[0], steps[0] + T)[:, None]
        else:
            positions = steps + np.arange(T)[:, None]
        steps += T
        self._step_index += T
        return alarm_comparison(norms, self.threshold._at(positions))

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
    """Fleet-wide online CUSUM: one ``(N,)`` accumulator carried across blocks."""

    def __init__(self, detector: CusumDetector, n_instances: int = 1):
        super().__init__(n_instances)
        self.detector = detector
        self._statistic = np.zeros(self.n_instances)

    def run(self, values: np.ndarray) -> np.ndarray:
        """All steps' norms in one call, then the detector's clamp from the accumulators."""
        values = self._check_blocks(values)
        statistics = self.detector._accumulate(self.detector._norms(values), self._statistic)
        if statistics.shape[0]:
            self._statistic = statistics[-1].copy()
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

    def run(self, values: np.ndarray) -> np.ndarray:
        """Every instance-step's statistic in one call (row for row as offline)."""
        values = self._check_blocks(values)
        self._step_index += values.shape[0]
        return self.detector.statistics(values) >= self.detector.threshold

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
def _kind(monitor: Monitor) -> str:
    if isinstance(monitor, DeadZoneMonitor):
        return "dead-zone"
    if isinstance(monitor, CompositeMonitor):
        return "composite"
    return "leaf"


def _nodes(monitor: Monitor, path: str = ""):
    """``(path, monitor)`` for every node of the alarm walk, in tree order.

    A composite's members are nodes; a dead zone's inner monitor is not (its
    checks feed the dead zone's counter, its own alarm rule is never used).
    """
    yield path, monitor
    if isinstance(monitor, CompositeMonitor):
        for index, member in enumerate(monitor.monitors):
            yield from _nodes(member, f"{path}[{index}]")


def _dead_zones(monitor: Monitor) -> list[tuple[str, DeadZoneMonitor]]:
    return [(path, node) for path, node in _nodes(monitor) if isinstance(node, DeadZoneMonitor)]


class BatchMonitor(BatchDetector):
    """Fleet-wide online form of a plant monitor (``mdc``).

    Consumes *measurements* instead of residues; keeps one previous
    measurement per instance (for gradient monitors) and one run-length
    array per dead-zone node of the monitor tree, in tree order.
    """

    consumes = "measurements"

    def __init__(self, monitor: Monitor, dt: float, n_instances: int = 1):
        super().__init__(n_instances)
        self.monitor = monitor
        self.dt = float(check_positive("dt", dt))
        self.reset()

    def run(self, values: np.ndarray) -> np.ndarray:
        """The monitor's alarm walk over the block's ``T * N`` instance-steps.

        Each instance-step is one row of the monitors' checks, the sample
        before it its previous row: the instance's previous step in the
        block, or the carried previous measurement at the block's first
        step.  An instance with no earlier sample is checked like a trace's
        first sample.  The dead zones start from the carried run lengths.
        """
        values = self._check_blocks(values)
        T, N, m = values.shape
        if T == 0:
            return np.zeros((0, N), dtype=bool)
        previous = np.empty_like(values)
        previous[1:] = values[:-1]
        valid = np.ones((T, N), dtype=bool)
        if self._previous is None:
            previous[0] = 0.0
            valid[0] = False
        else:
            previous[0] = self._previous
            valid[0] = self._has_previous
        current = values.reshape(T * N, m)
        previous = previous.reshape(T * N, m)
        valid = valid.reshape(T * N)
        dt = self.dt
        ends: list[np.ndarray] = []
        alarms = self.monitor._alarm_walk(
            lambda monitor: ~monitor.check(current, previous, dt, valid).reshape(T, N),
            iter(self._run_lengths),
            ends,
        )
        self._run_lengths = [runs[-1] for runs in ends]
        self._previous = values[-1].copy()
        self._has_previous[:] = True
        self._step_index += T
        return alarms

    def reset(self) -> None:
        self._step_index = 0
        self._previous: np.ndarray | None = None
        self._has_previous = np.zeros(self.n_instances, dtype=bool)
        self._run_lengths = [
            np.zeros(self.n_instances, dtype=int) for _ in _dead_zones(self.monitor)
        ]

    def _grow_state(self, count: int) -> None:
        self._run_lengths = [
            np.concatenate([runs, np.zeros(count, dtype=int)]) for runs in self._run_lengths
        ]
        self._has_previous = np.concatenate(
            [self._has_previous, np.zeros(count, dtype=bool)]
        )
        if self._previous is not None:
            self._previous = np.vstack(
                [self._previous, np.zeros((count, self._previous.shape[1]))]
            )

    def _compact_state(self, keep: np.ndarray) -> None:
        self._run_lengths = [runs[keep] for runs in self._run_lengths]
        self._has_previous = self._has_previous[keep]
        if self._previous is not None:
            self._previous = self._previous[keep]

    def rebind(self, monitor) -> Monitor:
        """Swap in a structurally matching :class:`Monitor`; run lengths are kept.

        A replacement may change parameters (bounds, rates, dead-zone
        lengths) but not the tree shape: node for node in tree order, a dead
        zone must meet a dead zone and a composite a composite with the same
        member count, so every run length keeps its dead zone.
        """
        if not isinstance(monitor, Monitor):
            raise ValidationError("BatchMonitor rebinds to a Monitor")
        for (_, old), (_, new) in zip(_nodes(self.monitor), _nodes(monitor)):
            if _kind(old) != _kind(new):
                raise ValidationError(
                    f"replacement monitor structure differs ({_kind(old)} -> "
                    f"{_kind(new)}); per-instance monitor state cannot be preserved"
                )
            if isinstance(new, CompositeMonitor) and len(new.monitors) != len(old.monitors):
                raise ValidationError(
                    f"replacement composite has {len(new.monitors)} members, "
                    f"the deployed one has {len(old.monitors)}"
                )
        self.monitor = monitor
        return monitor

    @property
    def state(self) -> dict:
        state: dict = {"step": self._step_index}
        if self._previous is not None:
            state["previous"] = self._previous.copy()
        for (path, node), runs in zip(_dead_zones(self.monitor), self._run_lengths):
            state[f"{path}{node.name}.run_length"] = runs.copy()
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
