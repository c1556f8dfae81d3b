"""The fleet execution engine (``fused``) and the one stepping loop.

The engine is a stepper factory.  Given ``(system, N)``,
:meth:`FusedEngine.stepping` returns a :class:`Stepping`: the
transposed-orientation stepper class and the report metadata.  The stepper
is the fused kernel of :mod:`repro.runtime.kernel.core` (one float64 GEMM
per step over the whole fleet), or :class:`_BatchStepper`, the reference
stepper, when the differential probe rejects the BLAS.

:func:`simulate` is the only stepping loop: :class:`~repro.runtime.fleet.
FleetSimulator` and :func:`~repro.runtime.fleet.batch_simulate` both run
it.  It steps one full-width block and records; detectors run afterwards on
the recorded stacks, and :func:`service_round` is the one
:class:`~repro.serve.service.MonitorService` round.

Equivalence gate: each fused run first consults
:func:`~repro.runtime.kernel.core.probe_fused_equivalence`; a failed probe
hands the loop :class:`_BatchStepper` instead — bit-identical output either
way.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector
from repro.runtime.kernel.core import FusedStepper, probe_fused_equivalence


class _BatchStepper:
    """The reference stepper: the fused probe's reference and its fallback.

    The update order of :func:`~repro.lti.simulate.simulate_closed_loop`
    (Algorithm 1's trace semantics) in instance-major ``(w, ·)`` products:
    the plant half here, the estimator half a
    :class:`~repro.serve.observer.BatchObserver`.  Transposed interface as
    the fused stepper.
    """

    def __init__(self, system, x0_t, xhat0_t):
        # Imported here: repro.serve imports the runtime package.
        from repro.serve.observer import BatchObserver

        plant = system.plant
        self._A_T = plant.A.T.copy()
        self._C_T = plant.C.T.copy()
        self._B_T = plant.B.T.copy()
        self._D_T = plant.D.T.copy()
        self._X = np.array(x0_t.T, dtype=float, order="C")
        self.observer = BatchObserver(system)
        self.observer.Xhat = np.array(xhat0_t.T, dtype=float, order="C")
        self.observer.U = np.zeros((self._X.shape[0], plant.n_inputs))

    def step(self, vk, wk, att, res_out=None):
        """One closed-loop iteration: ``(y_true, y_attacked, residues)``, ``(m, w)``."""
        output_feed = self.observer.U @ self._D_T
        input_feed = self.observer.U @ self._B_T
        y = self._X @ self._C_T + output_feed + vk.T
        ya = y if att is None else y + att.T
        self._X = self._X @ self._A_T + input_feed
        if wk is not None:
            self._X += wk.T
        res = self.observer.advance(ya, output_feed, input_feed)
        if res_out is None:
            return y.T, ya.T, res.T
        np.copyto(res_out, res.T)
        return y.T, ya.T, res_out

    @property
    def X(self):
        return self._X.T

    @property
    def Xhat(self):
        return self.observer.Xhat.T

    @property
    def U(self):
        return self.observer.U.T


class Stepping(NamedTuple):
    """What an engine hands the stepping loop for one ``(system, N)`` run.

    ``stepper`` is a transposed-orientation stepper class called as
    ``stepper(system, x0_t, xhat0_t)``; ``metadata`` becomes the report's
    ``metadata["engine"]``.
    """

    stepper: type
    metadata: dict


def stack_steps(block: np.ndarray | None) -> np.ndarray | None:
    """Instance-major ``(N, T, ·)`` draws → contiguous ``(T, ·, N)`` stacks.

    Pure layout preparation (values untouched), done once per run before
    the stepping window.
    """
    if block is None:
        return None
    return np.ascontiguousarray(block.transpose(1, 2, 0), dtype=np.float64)


def new_recorder(
    plant, X0: np.ndarray, Xhat0: np.ndarray, horizon: int, *, attacks: bool = False
) -> dict[str, np.ndarray]:
    """Zeroed instance-major trace arrays with the initial states filled in."""
    N, T = X0.shape[0], int(horizon)
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
    shapes = {
        "states": (N, T + 1, n),
        "estimates": (N, T + 1, n),
        "inputs": (N, T + 1, p),
        "measurements": (N, T, m),
        "true_outputs": (N, T, m),
        "residues": (N, T, m),
    }
    if attacks:
        shapes["attacks"] = (N, T, m)
    recorder = {name: np.zeros(shape) for name, shape in shapes.items()}
    recorder["states"][:, 0] = X0
    recorder["estimates"][:, 0] = Xhat0
    return recorder


def simulate(
    system,
    stepping: Stepping,
    X0: np.ndarray,
    Xhat0: np.ndarray,
    Vt: np.ndarray,
    Wt: np.ndarray | None = None,
    At: np.ndarray | None = None,
    *,
    res_out: np.ndarray | None = None,
    ya_out: np.ndarray | None = None,
    recorder: dict | None = None,
) -> None:
    """The stepping loop: the state recursion over the whole horizon.

    Consumes the ``(T, ·, N)`` stacks of :func:`stack_steps` and writes
    the transposed residue/measurement stacks ``res_out``/``ya_out`` and/or
    the instance-major ``recorder`` arrays of :func:`new_recorder`
    (attacks only when the recorder has an ``"attacks"`` entry).
    """
    N, T = X0.shape[0], Vt.shape[0]
    # A lone instance rides a zero discard column in the fused stepper:
    # keeps the BLAS on its GEMM path instead of GEMV.  The reference
    # stepper IS the reference computation: no pad.
    pad = N == 1 and stepping.stepper is not _BatchStepper

    def carve(block_t):
        if block_t is None or not pad:
            return block_t
        padded = np.zeros(block_t.shape[:-1] + (2,))
        padded[..., :1] = block_t
        return padded

    stepper = stepping.stepper(system, carve(X0.T), carve(Xhat0.T))
    Vs, Ws, As = carve(Vt), carve(Wt), carve(At)
    # An unpadded run emits residues straight into the stack row.
    direct_res = res_out is not None and not pad
    record_attacks = recorder is not None and As is not None and "attacks" in recorder
    for k in range(T):
        att = None if As is None else As[k]
        y, ya, res = stepper.step(
            Vs[k],
            None if Ws is None else Ws[k],
            att,
            res_out=res_out[k] if direct_res else None,
        )
        if res_out is not None and not direct_res:
            res_out[k] = res[:, :N]
        if ya_out is not None:
            ya_out[k] = ya[:, :N]
        if recorder is not None:
            recorder["true_outputs"][:, k] = y[:, :N].T
            recorder["measurements"][:, k] = ya[:, :N].T
            recorder["residues"][:, k] = res[:, :N].T
            if record_attacks:
                recorder["attacks"][:, k] = att[:, :N].T
            recorder["states"][:, k + 1] = stepper.X[:, :N].T
            recorder["estimates"][:, k + 1] = stepper.Xhat[:, :N].T
            recorder["inputs"][:, k + 1] = stepper.U[:, :N].T


def service_round(
    cores: Mapping[str, BatchDetector],
    residues: np.ndarray,
    measurements: np.ndarray,
) -> dict[str, np.ndarray]:
    """Step every deployed core once; label → ``(N,)`` alarms, bank order."""
    return {
        label: core.step(residues if core.consumes == "residues" else measurements)
        for label, core in cores.items()
    }


@ENGINES.register("fused")
class FusedEngine:
    """The fleet engine: the fused float64 kernel, probe-gated against the reference."""

    name = "fused"
    service_round = staticmethod(service_round)

    def stepping(self, system, n_instances: int, registry=None) -> Stepping:
        """The probe-gated stepper.

        With a ``registry``, the choice is counted in
        ``fleet_kernel_runs_total`` (by path).
        """
        fused_ok = probe_fused_equivalence(system, int(n_instances))
        if registry is not None:
            registry.counter(
                "fleet_kernel_runs_total",
                help="Fused-engine fleet runs by chosen path.",
            ).inc(path="fused" if fused_ok else "reference")
        metadata = {"name": self.name, "fused_path": bool(fused_ok)}
        return Stepping(FusedStepper if fused_ok else _BatchStepper, metadata)


__all__ = [
    "FusedEngine",
    "Stepping",
    "new_recorder",
    "service_round",
    "simulate",
    "stack_steps",
]
