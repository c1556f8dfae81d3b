"""The scalar online detector: ``step(z_k) -> alarm`` with reset/state.

:class:`OnlineDetector` is the single-instance deployment form of every
detector kind: a controller loop feeds one residue or measurement vector per
sampling instance and receives the alarm decision immediately.  It wraps the
fleet-wide core :func:`~repro.runtime.batch.make_batched` builds with
``n_instances=1``, so the online and batched paths cannot drift apart; both
are proven trace-equivalent to the offline ``evaluate`` paths by
``tests/test_runtime_online.py`` and ``tests/test_detector_forms_property.py``.

The detector registry's ``online-residue``, ``online-cusum`` and
``online-chi-square`` names resolve to the offline classes; every deployment
path turns those into the same core.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.batch import make_batched


class OnlineDetector:
    """One deployed instance of any detector-shaped object.

    Parameters
    ----------
    obj:
        Anything :func:`~repro.runtime.batch.make_batched` accepts: a
        :class:`~repro.detectors.threshold.ThresholdVector`, a residue /
        CUSUM / chi-square detector, a plant
        :class:`~repro.monitors.base.Monitor` (requires ``dt``), or another
        ``OnlineDetector`` (re-wrapped with fresh state).
    dt:
        Sampling period; only plant monitors need it.

    Attributes
    ----------
    detector:
        The object the core computes: ``obj``, then the latest
        :meth:`rebind` target.  ``make_batched`` re-batches an
        ``OnlineDetector`` from it.
    """

    def __init__(self, obj, dt: float | None = None):
        self._core = make_batched(obj, 1, dt)
        self.detector = obj
        self.dt = dt

    @property
    def consumes(self) -> str:
        """Which per-step signal the detector expects: ``"residues"`` or ``"measurements"``."""
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

        Delegates to the core's :meth:`~repro.runtime.batch.BatchDetector.rebind`
        and keeps :attr:`detector` in sync with what it bound.
        """
        self.detector = self._core.rebind(obj)

    def run(self, samples: np.ndarray) -> np.ndarray:
        """Run through a ``(T, m)`` sequence, returning the ``(T,)`` alarm flags.

        One pass of the core over the sequence; resets first so the result
        matches a fresh deployment over the sequence.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        self.reset()
        return self._core.run(samples[:, None, :])[:, 0]


__all__ = ["OnlineDetector", "make_batched"]
