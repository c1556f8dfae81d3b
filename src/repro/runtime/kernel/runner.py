"""The fleet execution engine (``fused``) and the one stepping loop.

The engine is a stepper factory.  Given ``(system, N)``,
:meth:`FusedEngine.stepping` returns a :class:`Stepping`: the
transposed-orientation stepper class and the report metadata.  The stepper
is the fused kernel of :mod:`repro.runtime.kernel.core` (one float64 GEMM
per step over the whole fleet), or :class:`_BatchStepper`, the reference
stepper, when the differential probe rejects the BLAS.

:func:`simulate` is the only stepping loop: :class:`~repro.runtime.fleet.
FleetSimulator` and :func:`~repro.runtime.fleet.batch_simulate` both run
it.  It steps the whole fleet through the horizon in blocks of
:data:`BLOCK_STEPS` steps: per block it lays the noise and attack rows out
step-major, steps, records, and runs each detector lane over the block's
residues, all in buffers reused across blocks.  :func:`service_round` is
the one :class:`~repro.serve.service.MonitorService` round.

Equivalence gate: each fused run first consults
:func:`~repro.runtime.kernel.core.probe_fused_equivalence`; a failed probe
hands the loop :class:`_BatchStepper` instead — bit-identical output either
way.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from repro.obs.clock import Stopwatch
from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector
from repro.runtime.kernel.core import FusedStepper, probe_fused_equivalence
from repro.runtime.kernel.lanes import DetectorLane

#: Steps per block of the stepping loop.  The loop lays each block's noise
#: and attack rows out step-major and keeps its residues (and measurements)
#: in ``(B, ·, N)`` buffers reused block after block, so a run never holds
#: a step-major copy of its whole horizon.  32 was measured best or tied on
#: every fleet size swept (dcmotor 100/1000/4000 instances, horizon 200):
#: shorter blocks pay more per-block overhead on small fleets, longer ones
#: lose on the 4000-instance fleet.
BLOCK_STEPS = 32


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


def _fill_attacks(out: np.ndarray, attacks, k0: int, k1: int) -> None:
    """Steps ``k0..k1`` of the injected attacks into the ``(b, m, ·)`` block ``out``.

    ``attacks`` is a dense instance-major ``(N, T, m)`` block or a resolved
    schedule of ``(instance ids, (T, m) values)`` entries, summed per cell
    in entry order from zero.
    """
    if isinstance(attacks, np.ndarray):
        np.copyto(out[:, :, : attacks.shape[0]], attacks[:, k0:k1].transpose(1, 2, 0))
        return
    out.fill(0.0)
    for indices, values in attacks:
        out[:, :, indices] += values[k0:k1, :, None]


def simulate(
    system,
    stepping: Stepping,
    X0: np.ndarray,
    Xhat0: np.ndarray,
    V: np.ndarray,
    W: np.ndarray | None = None,
    attacks=None,
    *,
    lanes: Mapping[str, DetectorLane] | None = None,
    recorder: dict | None = None,
    phases: dict | None = None,
) -> dict[str, np.ndarray]:
    """The stepping loop: the whole horizon in blocks of :data:`BLOCK_STEPS` steps.

    ``V``/``W`` are the instance-major ``(N, T, ·)`` noise draws and
    ``attacks`` what :func:`_fill_attacks` takes (``None``: no attack adds).
    Per block, the draws and attack rows are laid out step-major into
    ``(B, ·, N)`` buffers reused across blocks, the stepper advances
    through the block, and each lane runs its detector pass over the
    block's residues or measurements.  Returns label → ``(T, N)`` alarms;
    fills the instance-major ``recorder`` arrays of :func:`new_recorder`
    per step (attacks only when it has an ``"attacks"`` entry).  Seconds
    accumulate into ``phases``: ``draw`` (each block's noise and attack
    layout), ``recursion`` (building the stepper and the block buffers,
    then stepping and recording) and ``lanes``.
    """
    watch = Stopwatch()
    clock = {} if phases is None else phases
    for name in ("draw", "recursion", "lanes"):
        clock.setdefault(name, 0.0)
    lanes = {} if lanes is None else lanes
    plant = system.plant
    N, T = X0.shape[0], V.shape[1]
    m, n = plant.n_outputs, plant.n_states
    # A lone instance rides a zero discard column in the fused stepper:
    # keeps the BLAS on its GEMM path instead of GEMV.  The reference
    # stepper IS the reference computation: no pad.
    cols = 2 if N == 1 and stepping.stepper is not _BatchStepper else N
    B = min(BLOCK_STEPS, T)

    def buffer(rows: int, present: bool = True) -> np.ndarray | None:
        return np.zeros((B, rows, cols)) if present else None

    def carve(initial: np.ndarray) -> np.ndarray:
        out = np.zeros((initial.shape[1], cols))
        out[:, :N] = initial.T
        return out

    stepper = stepping.stepper(system, carve(X0), carve(Xhat0))
    Vb, Wb, Ab, res = buffer(m), buffer(n, W is not None), buffer(m, attacks is not None), buffer(m)
    ya = buffer(m, any(lane.consumes != "residues" for lane in lanes.values()))
    alarms = {label: np.empty((T, N), dtype=bool) for label in lanes}
    record_attacks = recorder is not None and Ab is not None and "attacks" in recorder
    clock["recursion"] += watch.elapsed()
    for k0 in range(0, T, B):
        watch = Stopwatch()
        k1 = min(k0 + B, T)
        b = k1 - k0
        np.copyto(Vb[:b, :, :N], V[:, k0:k1].transpose(1, 2, 0))
        if Wb is not None:
            np.copyto(Wb[:b, :, :N], W[:, k0:k1].transpose(1, 2, 0))
        if Ab is not None:
            _fill_attacks(Ab[:b], attacks, k0, k1)
        clock["draw"] += watch.elapsed()

        watch = Stopwatch()
        for j in range(b):
            att = None if Ab is None else Ab[j]
            y, ya_j, _ = stepper.step(
                Vb[j], None if Wb is None else Wb[j], att, res_out=res[j]
            )
            if ya is not None:
                ya[j] = ya_j
            if recorder is not None:
                k = k0 + j
                recorder["true_outputs"][:, k] = y[:, :N].T
                recorder["measurements"][:, k] = ya_j[:, :N].T
                recorder["residues"][:, k] = res[j, :, :N].T
                if record_attacks:
                    recorder["attacks"][:, k] = att[:, :N].T
                recorder["states"][:, k + 1] = stepper.X[:, :N].T
                recorder["estimates"][:, k + 1] = stepper.Xhat[:, :N].T
                recorder["inputs"][:, k + 1] = stepper.U[:, :N].T
        clock["recursion"] += watch.elapsed()

        watch = Stopwatch()
        block_ya = None if ya is None else ya[:b, :, :N]
        for label, lane in lanes.items():
            alarms[label][k0:k1] = lane.alarms(res[:b, :, :N], block_ya)
        clock["lanes"] += watch.elapsed()
    return alarms


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
]
