"""Batched observer: turn ingested measurements into detector residues.

A deployed monitoring service receives raw sensor measurements from real
plant instances — it does not simulate the plant.  The residue detectors,
however, consume Kalman innovations.  :class:`BatchObserver` closes that gap
by running the estimator half of the closed loop for every attached
instance::

    z_k    = y_k - (C xhat_k + D u_k)
    xhat'  = A xhat_k + B u_k + L z_k
    u'     = -K xhat' + N r

This is the library's one batched copy of that update: the reference fleet
stepper (:class:`~repro.runtime.kernel.runner._BatchStepper`) runs the plant
half and :meth:`BatchObserver.advance` for this half, so a service fed a
fleet run's recorded measurements reproduces that run's residues bit for bit
(``tests/test_serve_service.py``, ``tests/test_runtime_kernel_property.py``).

All state is ``(N, ...)`` and supports the same :meth:`grow` /
:meth:`compact` membership hooks as the detector cores, so instances can
attach and detach while the service runs.
"""

from __future__ import annotations

import numpy as np

from repro.lti.simulate import ClosedLoopSystem
from repro.utils.validation import ValidationError


class BatchObserver:
    """Estimator state (``xhat``, ``u``) for ``N`` monitored instances.

    Parameters
    ----------
    system:
        The closed loop whose observer/controller design to replicate.
    xhat0:
        Default initial state estimate for newly attached instances
        (``(n,)``); zero when omitted, matching the fleet simulator.
    """

    def __init__(self, system: ClosedLoopSystem, xhat0: np.ndarray | None = None):
        plant = system.plant
        self.system = system
        self._A_T = plant.A.T.copy()
        self._B_T = plant.B.T.copy()
        self._C_T = plant.C.T.copy()
        self._D_T = plant.D.T.copy()
        self._L_T = system.L.T.copy()
        self._K_T = system.K.T.copy()
        self._feedforward = system.feedforward @ system.reference
        if xhat0 is None:
            xhat0 = np.zeros(plant.n_states)
        self._xhat0 = np.asarray(xhat0, dtype=float).reshape(-1)
        if self._xhat0.size != plant.n_states:
            raise ValidationError(
                f"xhat0 must have length {plant.n_states}, got {self._xhat0.size}"
            )
        self.Xhat = np.zeros((0, plant.n_states))
        self.U = np.zeros((0, plant.n_inputs))

    @property
    def n_instances(self) -> int:
        """Number of instance rows currently tracked."""
        return self.Xhat.shape[0]

    def step(self, measurements: np.ndarray) -> np.ndarray:
        """Consume one ``(N, m)`` measurement block, return the ``(N, m)`` residues.

        Advances every instance's estimator and control input to the next
        sample.
        """
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        if measurements.shape[0] != self.n_instances:
            raise ValidationError(
                f"expected a block of {self.n_instances} instances, "
                f"got {measurements.shape[0]}"
            )
        return self.advance(measurements, self.U @ self._D_T, self.U @ self._B_T)

    def advance(
        self, measurements: np.ndarray, output_feed: np.ndarray, input_feed: np.ndarray
    ) -> np.ndarray:
        """:meth:`step` given this step's feeds ``U D^T`` and ``U B^T``.

        The reference fleet stepper shares the feeds with its plant half.
        """
        residues = measurements - (self.Xhat @ self._C_T + output_feed)
        self.Xhat = self.Xhat @ self._A_T + input_feed + residues @ self._L_T
        self.U = -(self.Xhat @ self._K_T) + self._feedforward
        return residues

    def grow(self, count: int = 1, xhat0: np.ndarray | None = None) -> None:
        """Append ``count`` fresh instances starting from ``xhat0`` (or the default)."""
        count = int(count)
        if count <= 0:
            raise ValidationError("grow requires a positive instance count")
        start = self._xhat0 if xhat0 is None else np.asarray(xhat0, dtype=float).reshape(-1)
        if start.size != self.Xhat.shape[1]:
            raise ValidationError(
                f"xhat0 must have length {self.Xhat.shape[1]}, got {start.size}"
            )
        self.Xhat = np.vstack([self.Xhat, np.tile(start, (count, 1))])
        self.U = np.vstack([self.U, np.zeros((count, self.U.shape[1]))])

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the given instance rows (strictly increasing indices)."""
        keep = np.asarray(keep, dtype=int).reshape(-1)
        if keep.size:
            if keep.min() < 0 or keep.max() >= self.n_instances:
                raise ValidationError(
                    f"compact indices out of range [0, {self.n_instances})"
                )
            if np.any(np.diff(keep) <= 0):
                raise ValidationError("compact indices must be strictly increasing")
        self.Xhat = self.Xhat[keep]
        self.U = self.U[keep]


__all__ = ["BatchObserver"]
