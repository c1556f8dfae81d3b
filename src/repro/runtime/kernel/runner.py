"""The fleet execution engine (``fused``) and the one stepping loop.

The engine is a stepper factory.  Given ``(system, N)``,
:meth:`FusedEngine.stepping` returns a :class:`Stepping`: the
transposed-orientation stepper class, the dtype, the worker count and the
report metadata.  The stepper is the fused kernel of
:mod:`repro.runtime.kernel.core` (one GEMM per step per shard, optional
``dtype="float32"`` fast mode and ``workers=k`` shard-across-cores
execution), or :class:`_BatchStepper`, the reference stepper, when the
differential probe rejects the BLAS.

:func:`simulate` is the only stepping loop: :class:`~repro.runtime.fleet.
FleetSimulator`, :func:`~repro.runtime.fleet.batch_simulate` and the shard
probe all run it.  It carves, pads, shards and records; detectors run
afterwards on the recorded stacks, and :func:`service_round` is the one
:class:`~repro.serve.service.MonitorService` round.

Sharding contract: instances are carved into *contiguous index ranges*
(never interleaved, never by draw order) so every per-instance stream —
noise, initial states, attacks, recorded traces — is a column slice of the
run's one block draw (:func:`repro.noise.generators.draw_streams`, whose
blocks are prefix-stable: a contiguous range of instances is a slice).  Width-1 shards are padded with one zero discard column
to keep the BLAS on its GEMM path.  Detector lanes and alarm bookkeeping
always run full-width on the main thread after the sharded state recursion,
so alarm event ordering is independent of ``workers`` by construction.
Because a BLAS GEMM need not be invariant under column partitioning, a run
with ``workers > 1`` first consults :func:`probe_shard_stability` — a cached
differential probe of the shard path against the unsharded recursion — and
clamps to a single shard when partitioning would perturb any bit.  Sharded
and unsharded runs are therefore bit-identical *always*: empirically when
the BLAS cooperates, by construction when it does not.

Equivalence gate: each fused float64 run first consults
:func:`~repro.runtime.kernel.core.probe_fused_equivalence`; a failed probe
hands the loop :class:`_BatchStepper` instead — bit-identical output either
way.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, NamedTuple

import numpy as np

from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector
from repro.runtime.kernel.core import (
    PROBE_SEED,
    FusedStepper,
    _system_key,
    probe_fused_equivalence,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import ValidationError

_DTYPES = {"float64": np.float64, "float32": np.float32}


def _shard_bounds(n_instances: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` instance ranges, one per worker."""
    workers = max(1, min(int(workers), n_instances))
    base, extra = divmod(n_instances, workers)
    bounds = []
    lo = 0
    for index in range(workers):
        hi = lo + base + (1 if index < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


class _BatchStepper:
    """The reference stepper: the fused probe's reference and its fallback.

    The update order of :func:`~repro.lti.simulate.simulate_closed_loop`
    (Algorithm 1's trace semantics) in instance-major ``(w, ·)`` products:
    the plant half here, the estimator half a
    :class:`~repro.serve.observer.BatchObserver`.  Transposed interface as
    the fused stepper; always float64 (``dtype`` fills the signature only).
    """

    def __init__(self, system, x0_t, xhat0_t, dtype=np.float64):
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
    ``stepper(system, x0_t, xhat0_t, dtype)``; ``metadata`` becomes the
    report's ``metadata["engine"]``.
    """

    stepper: type
    dtype: type
    workers: int
    metadata: dict


def stack_steps(block: np.ndarray | None, dtype) -> np.ndarray | None:
    """Instance-major ``(N, T, ·)`` draws → contiguous ``(T, ·, N)`` stacks.

    Pure layout preparation (values untouched unless ``dtype`` narrows
    them), done once per run before the stepping window.
    """
    if block is None:
        return None
    return np.ascontiguousarray(block.transpose(1, 2, 0), dtype=dtype)


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
    """The stepping loop: sharded state recursion over the whole horizon.

    Consumes the ``(T, ·, N)`` stacks of :func:`stack_steps` — the run's
    block draw laid out step-major, sliced by column per shard, so shard
    boundaries never move the random streams — and writes
    the transposed residue/measurement stacks ``res_out``/``ya_out`` and/or
    the instance-major ``recorder`` arrays of :func:`new_recorder`
    (attacks only when the recorder has an ``"attacks"`` entry).
    """
    N, T = X0.shape[0], Vt.shape[0]
    dtype = stepping.dtype
    bounds = _shard_bounds(N, stepping.workers)
    sharded = len(bounds) > 1

    def run_shard(bound: tuple[int, int]) -> None:
        lo, hi = bound
        width = hi - lo
        # Width-1 shards ride a zero discard column: keeps the BLAS on its
        # (partition-invariant) GEMM path instead of GEMV.  A single
        # full-fleet reference shard IS the reference computation: no pad.
        pad = width == 1 and (sharded or stepping.stepper is not _BatchStepper)
        cols = 2 if pad else width

        def carve(block_t):
            if block_t is None:
                return None
            if not pad:
                return np.ascontiguousarray(block_t[..., lo:hi], dtype=dtype)
            padded = np.zeros(block_t.shape[:-1] + (cols,), dtype=dtype)
            padded[..., :width] = block_t[..., lo:hi]
            return padded

        shard = stepping.stepper(system, carve(X0.T), carve(Xhat0.T), dtype)
        Vs, Ws, As = carve(Vt), carve(Wt), carve(At)
        # A lone unpadded shard emits residues straight into the stack row.
        direct_res = res_out is not None and not sharded and not pad
        record_attacks = recorder is not None and As is not None and "attacks" in recorder
        for k in range(T):
            att = None if As is None else As[k]
            y, ya, res = shard.step(
                Vs[k],
                None if Ws is None else Ws[k],
                att,
                res_out=res_out[k] if direct_res else None,
            )
            if res_out is not None and not direct_res:
                res_out[k, :, lo:hi] = res[:, :width]
            if ya_out is not None:
                ya_out[k, :, lo:hi] = ya[:, :width]
            if recorder is not None:
                recorder["true_outputs"][lo:hi, k] = y[:, :width].T
                recorder["measurements"][lo:hi, k] = ya[:, :width].T
                recorder["residues"][lo:hi, k] = res[:, :width].T
                if record_attacks:
                    recorder["attacks"][lo:hi, k] = att[:, :width].T
                recorder["states"][lo:hi, k + 1] = shard.X[:, :width].T
                recorder["estimates"][lo:hi, k + 1] = shard.Xhat[:, :width].T
                recorder["inputs"][lo:hi, k + 1] = shard.U[:, :width].T

    if not sharded:
        run_shard(bounds[0])
    else:
        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            list(pool.map(run_shard, bounds))


#: Shard-stability probe horizon: a handful of steps surfaces any
#: width-dependent kernel dispatch; the (cached) probe runs at the actual
#: fleet width and worker layout, so its verdict covers the real run.
_SHARD_PROBE_HORIZON = 8

_SHARD_STABILITY_CACHE: dict[tuple, bool] = {}


def _probe_shards(
    system, dtype: str, fused_ok: bool, n_instances: int, workers: int
) -> bool:
    """Differential check: the sharded stepping loop vs one full shard."""
    plant = system.plant
    n, m = plant.n_states, plant.n_outputs
    N, T = n_instances, _SHARD_PROBE_HORIZON
    rng = ensure_rng(PROBE_SEED)
    X0 = rng.standard_normal((N, n))
    Xhat0 = rng.standard_normal((N, n))
    V = rng.standard_normal((N, T, m))
    W = rng.standard_normal((N, T, n))
    dt_np = _DTYPES[dtype]
    Vt, Wt = stack_steps(V, dt_np), stack_steps(W, dt_np)
    stepper = FusedStepper if fused_ok else _BatchStepper

    def run(n_workers: int) -> list[np.ndarray]:
        res = np.empty((T, m, N), dtype=dt_np)
        ya = np.empty((T, m, N), dtype=dt_np)
        recorder = new_recorder(plant, X0, Xhat0, T)
        stepping = Stepping(stepper, dt_np, n_workers, None)
        simulate(system, stepping, X0, Xhat0, Vt, Wt, res_out=res, ya_out=ya, recorder=recorder)
        return [res, ya, *recorder.values()]

    return all(map(np.array_equal, run(workers), run(1)))


def probe_shard_stability(
    system, dtype: str, fused_ok: bool, n_instances: int, workers: int
) -> bool:
    """Decide (and cache) whether shard partitioning preserves every bit.

    A BLAS GEMM may pick different kernels (and different accumulation
    orders) for different operand widths, so carving the fleet into
    per-worker column blocks can perturb low-order bits relative to the
    unsharded run — for the fused *and* for the fallback stepper.
    Because the dispatch depends on the concrete widths, this probe runs the
    stepping loop at the *actual* fleet width and worker layout (width-1
    padding included) on synthetic data and compares every recorded
    quantity bitwise against a single full-width shard.

    The fused engine consults it only when ``workers > 1``; a ``False``
    verdict clamps the run to one shard, so sharded configurations remain
    bit-identical to unsharded ones on every BLAS.  Verdicts are cached per
    ``(system matrices, dtype, chosen stepper, width, workers)``.
    """
    key = (
        _system_key(system, _DTYPES[dtype]),
        "shards",
        bool(fused_ok),
        int(n_instances),
        int(workers),
    )
    cached = _SHARD_STABILITY_CACHE.get(key)
    if cached is None:
        cached = _SHARD_STABILITY_CACHE[key] = _probe_shards(
            system, dtype, fused_ok, int(n_instances), int(workers)
        )
    return cached


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
    """The fleet engine: the fused kernel, probe-gated against the reference.

    Parameters
    ----------
    dtype:
        ``"float64"`` (default) — gated bit-identical to :class:`_BatchStepper` —
        or ``"float32"`` — the fast mode, with no bit-identity contract (see
        ``docs/runtime-kernel.md`` for the documented accuracy envelope).
    workers:
        Number of shard threads for the state recursion.  Instances are
        carved into contiguous index ranges; numpy releases the GIL inside
        GEMM, so threads scale on multi-core hosts.  Results are
        ``workers``-independent bit for bit.
    """

    name = "fused"
    service_round = staticmethod(service_round)

    def __init__(self, dtype: str = "float64", workers: int = 1):
        if dtype not in _DTYPES:
            raise ValidationError(
                f"fused engine dtype must be one of {sorted(_DTYPES)}, got {dtype!r}"
            )
        workers = int(workers)
        if workers < 1:
            raise ValidationError("fused engine workers must be a positive integer")
        self.dtype = dtype
        self.workers = workers

    def stepping(self, system, n_instances: int, registry=None) -> Stepping:
        """The probe-gated stepper and the probe-clamped worker count.

        With a ``registry``, the choice is counted in
        ``fleet_kernel_runs_total`` (by dtype, path and workers).
        """
        N = int(n_instances)
        fused_ok = probe_fused_equivalence(system, _DTYPES[self.dtype], N)
        workers = max(1, min(self.workers, N))
        shard_stable = True
        if workers > 1:
            shard_stable = probe_shard_stability(system, self.dtype, fused_ok, N, workers)
            if not shard_stable:
                workers = 1
        if registry is not None:
            registry.counter(
                "fleet_kernel_runs_total",
                help="Fused-engine fleet runs by dtype and chosen path.",
            ).inc(
                dtype=self.dtype,
                path="fused" if fused_ok else "legacy-shards",
                workers=str(workers),
            )
        metadata = {
            "name": self.name,
            "dtype": self.dtype,
            "workers": workers,
            "fused_path": bool(fused_ok),
            "shard_stable": bool(shard_stable),
        }
        stepper = FusedStepper if fused_ok else _BatchStepper
        return Stepping(stepper, _DTYPES[self.dtype], workers, metadata)


__all__ = [
    "FusedEngine",
    "Stepping",
    "new_recorder",
    "probe_shard_stability",
    "service_round",
    "simulate",
    "stack_steps",
]
