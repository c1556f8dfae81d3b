"""Fleet execution engines: ``legacy`` (streaming) and ``fused`` (kernel).

Engines are the registry-resolved execution strategies behind
:class:`~repro.runtime.fleet.FleetSimulator`, :func:`~repro.runtime.fleet.
batch_simulate`, the FAR evaluator and :class:`~repro.serve.service.
MonitorService` rounds:

* :class:`LegacyEngine` (``engine="legacy"``, the default) — the original
  per-step ``(N, ·)`` pipeline.
* :class:`FusedEngine` (``engine="fused"``) — the fused kernel of
  :mod:`repro.runtime.kernel.core`: one GEMM per step per shard, detector
  lanes over pre-stacked residues, optional ``dtype="float32"`` fast mode
  and ``workers=k`` shard-across-cores execution.

A fleet run is split between the simulator and the engine: the simulator
draws the inputs, the engine's ``step_fleet(sim, run)`` steps the fleet and
returns each detector's ``(T, N)`` alarm stack as a
:class:`~repro.runtime.report.FleetSteps`, and the simulator tallies,
emits and reports.

Sharding contract: instances are carved into *contiguous index ranges*
(never interleaved, never by draw order) so every per-instance stream —
noise, initial states, attacks, recorded traces — is a column slice of the
same central draw.  Width-1 shards are padded with one zero discard column
to keep the BLAS on its GEMM path.  Detector lanes and alarm bookkeeping
always run full-width on the main thread after the sharded state recursion,
so alarm event ordering is independent of ``workers`` by construction.
Because a BLAS GEMM need not be invariant under column partitioning, a run
with ``workers > 1`` first consults :func:`probe_shard_stability` — a cached
differential probe of the engine's own shard path against the unsharded
recursion — and clamps to a single shard when partitioning would perturb any
bit.  Sharded and unsharded runs are therefore bit-identical *always*:
empirically when the BLAS cooperates, by construction when it does not.

Equivalence gate: each fused float64 run first consults
:func:`~repro.runtime.kernel.core.probe_fused_equivalence`; a failed probe
downgrades the state recursion (per shard) to the legacy stepper while
keeping the lane/bookkeeping machinery — bit-identical output either way.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence

import numpy as np

from repro.obs.clock import Stopwatch
from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector
from repro.runtime.kernel.core import (
    PROBE_SEED,
    FusedStepper,
    _system_key,
    probe_fused_equivalence,
)
from repro.runtime.kernel.lanes import build_lanes
from repro.runtime.kernel.serve import FusedServicePlan
from repro.runtime.report import FleetSteps
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


#: Shard-stability probe horizon: a handful of steps surfaces any
#: width-dependent kernel dispatch; the (cached) probe runs at the actual
#: fleet width and worker layout, so its verdict covers the real run.
_SHARD_PROBE_HORIZON = 8

_SHARD_STABILITY_CACHE: dict[tuple, bool] = {}


def _probe_shards(
    system, dtype: str, fused_ok: bool, n_instances: int, workers: int
) -> bool:
    """Differential check: the engine's sharded recursion vs one full shard."""
    plant = system.plant
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
    N, T = n_instances, _SHARD_PROBE_HORIZON
    rng = ensure_rng(PROBE_SEED)
    X0 = rng.standard_normal((N, n))
    Xhat0 = rng.standard_normal((N, n))
    V = rng.standard_normal((N, T, m))
    W = rng.standard_normal((N, T, n))
    engine = FusedEngine(dtype=dtype, workers=1)

    def run(n_workers: int):
        res = np.empty((T, m, N), dtype=_DTYPES[dtype])
        ya = np.empty((T, m, N), dtype=_DTYPES[dtype])
        recorder = {
            "states": np.zeros((N, T + 1, n)),
            "estimates": np.zeros((N, T + 1, n)),
            "inputs": np.zeros((N, T + 1, p)),
            "measurements": np.zeros((N, T, m)),
            "true_outputs": np.zeros((N, T, m)),
            "residues": np.zeros((N, T, m)),
        }
        recorder["states"][:, 0] = X0
        recorder["estimates"][:, 0] = Xhat0
        Vt, Wt, _ = engine._transpose_streams(V, W, None)
        engine._simulate(
            system,
            X0,
            Xhat0,
            Vt,
            Wt,
            None,
            None,
            fused_ok=fused_ok,
            workers=n_workers,
            res_out=res,
            ya_out=ya,
            recorder=recorder,
        )
        return res, ya, recorder

    ref_res, ref_ya, ref_recorder = run(1)
    res, ya, recorder = run(workers)
    if not (np.array_equal(res, ref_res) and np.array_equal(ya, ref_ya)):
        return False
    for name, reference in ref_recorder.items():
        if not np.array_equal(recorder[name], reference):
            return False
    return True


def probe_shard_stability(
    system, dtype: str, fused_ok: bool, n_instances: int, workers: int
) -> bool:
    """Decide (and cache) whether shard partitioning preserves every bit.

    A BLAS GEMM may pick different kernels (and different accumulation
    orders) for different operand widths, so carving the fleet into
    per-worker column blocks can perturb low-order bits relative to the
    unsharded run — for the fused *and* for the legacy-fallback stepper.
    Because the dispatch depends on the concrete widths, this probe runs the
    engine's own shard machinery at the *actual* fleet width and worker
    layout (width-1 padding included) on synthetic data and compares every
    recorded quantity bitwise against a single full-width shard.

    The engines consult it only when ``workers > 1``; a ``False`` verdict
    clamps the run to one shard, so sharded configurations remain
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


class _FusedShard:
    """One shard advanced by the fused stepper (transposed orientation)."""

    def __init__(self, system, x0_t, xhat0_t, dtype):
        self._stepper = FusedStepper(system, x0_t, xhat0_t, dtype=dtype)

    def step(self, vk, wk, att, res_out=None):
        return self._stepper.step(vk, wk, att, res_out=res_out)

    @property
    def X(self):
        return self._stepper.X

    @property
    def Xhat(self):
        return self._stepper.Xhat

    @property
    def U(self):
        return self._stepper.U


class _LegacyShard:
    """Probe-fallback shard: the legacy stepper behind the fused interface."""

    def __init__(self, system, x0_t, xhat0_t):
        from repro.runtime.fleet import _BatchStepper

        self._stepper = _BatchStepper(system, x0_t.T.copy(), xhat0_t.T.copy())

    def step(self, vk, wk, att, res_out=None):
        y, ya, res = self._stepper.step(
            vk.T,
            None if wk is None else wk.T,
            None if att is None else att.T,
        )
        return y.T, ya.T, res.T

    @property
    def X(self):
        return self._stepper.X.T

    @property
    def Xhat(self):
        return self._stepper.Xhat.T

    @property
    def U(self):
        return self._stepper.U.T


@ENGINES.register("legacy")
class LegacyEngine:
    """The original streaming fleet execution path (the default engine).

    Delegates straight to the per-step ``(N, ·)`` numpy pipeline of
    :mod:`repro.runtime.fleet` and :mod:`repro.runtime.batch`; it is the
    bit-for-bit reference every fused run is gated against.
    """

    name = "legacy"

    def step_fleet(self, sim, run) -> FleetSteps:
        """Step a :class:`~repro.runtime.fleet.FleetSimulator` run.

        The streaming pipeline: each step advances the fleet one sampling
        instance and feeds every detector, whose alarms fill one row of its
        ``(T, N)`` stack.
        """
        from repro.runtime.fleet import _BatchStepper

        T, N = sim.horizon, sim.n_instances
        m = sim.system.plant.n_outputs
        stepper = _BatchStepper(sim.system, run.X0, sim.xhat0.copy())
        recorder = run.recorder
        alarms = {label: np.empty((T, N), dtype=bool) for label in sim.detectors}

        started = Stopwatch()
        lanes_s = 0.0
        for k in range(T):
            attack_k = None
            if run.schedule:
                attack_k = np.zeros((N, m))
                for indices, values in run.schedule:
                    attack_k[indices] += values[k]
            y_true, y_attacked, residues = stepper.step(
                run.V[:, k], None if run.W is None else run.W[:, k], attack_k
            )
            if recorder is not None:
                recorder["true_outputs"][:, k] = y_true
                recorder["measurements"][:, k] = y_attacked
                recorder["residues"][:, k] = residues
                if attack_k is not None:
                    recorder["attacks"][:, k] = attack_k
                recorder["states"][:, k + 1] = stepper.X
                recorder["estimates"][:, k + 1] = stepper.Xhat
                recorder["inputs"][:, k + 1] = stepper.U

            watch = Stopwatch()
            for label, detector in sim.detectors.items():
                values = residues if detector.consumes == "residues" else y_attacked
                alarms[label][k] = detector.step(values)
            lanes_s += watch.elapsed()
        phases = {"recursion": started.elapsed() - lanes_s, "lanes": lanes_s}
        return FleetSteps(alarms, phases)

    def batch_trace(
        self, system, horizon, X0, Xhat0, V, W, A, has_process_noise, has_attack
    ):
        """The :func:`~repro.runtime.fleet.batch_simulate` recording loop."""
        from repro.runtime.fleet import FleetTrace, _BatchStepper

        plant = system.plant
        N, T = X0.shape[0], int(horizon)
        n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
        stepper = _BatchStepper(system, X0, Xhat0)
        states = np.zeros((N, T + 1, n))
        estimates = np.zeros((N, T + 1, n))
        inputs = np.zeros((N, T + 1, p))
        measurements = np.zeros((N, T, m))
        true_outputs = np.zeros((N, T, m))
        residues = np.zeros((N, T, m))

        states[:, 0] = stepper.X
        estimates[:, 0] = stepper.Xhat
        inputs[:, 0] = stepper.U

        for k in range(T):
            y_true, y_attacked, z = stepper.step(
                V[:, k],
                W[:, k] if has_process_noise else None,
                A[:, k] if has_attack else None,
            )
            true_outputs[:, k] = y_true
            measurements[:, k] = y_attacked
            residues[:, k] = z
            states[:, k + 1] = stepper.X
            estimates[:, k + 1] = stepper.Xhat
            inputs[:, k + 1] = stepper.U

        return FleetTrace(
            states=states,
            estimates=estimates,
            inputs=inputs,
            measurements=measurements,
            true_outputs=true_outputs,
            residues=residues,
            attacks=A,
            process_noise=W,
            measurement_noise=V,
            dt=system.dt,
            metadata={"system": system.name},
        )

    def service_round(
        self,
        cores: Mapping[str, BatchDetector],
        residues: np.ndarray,
        measurements: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Step every deployed core once; label → ``(N,)`` alarms, bank order."""
        return {
            label: core.step(
                residues if core.consumes == "residues" else measurements
            )
            for label, core in cores.items()
        }


@ENGINES.register("fused")
class FusedEngine:
    """The fused fleet kernel (``engine="fused"``): opt-in fast path.

    Parameters
    ----------
    dtype:
        ``"float64"`` (default) — gated bit-identical to the legacy engine —
        or ``"float32"`` — the fast mode, with no bit-identity contract (see
        ``docs/runtime-kernel.md`` for the documented accuracy envelope).
    workers:
        Number of shard threads for the state recursion.  Instances are
        carved into contiguous index ranges; numpy releases the GIL inside
        GEMM, so threads scale on multi-core hosts.  Results are
        ``workers``-independent bit for bit.
    """

    name = "fused"

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
        self._service_plan: FusedServicePlan | None = None

    # ------------------------------------------------------------------
    def _transpose_streams(
        self,
        V: np.ndarray,
        W: np.ndarray | None,
        dense_attacks: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Instance-major ``(N, T, ·)`` draws → contiguous ``(T, ·, N)`` stacks.

        Pure layout preparation (element values are untouched), done once per
        run before the measured stepping window — the legacy engine's window
        likewise starts after its inputs are materialized.
        """
        dt_np = _DTYPES[self.dtype]
        Vt = np.ascontiguousarray(V.transpose(1, 2, 0), dtype=dt_np)
        Wt = (
            None
            if W is None
            else np.ascontiguousarray(W.transpose(1, 2, 0), dtype=dt_np)
        )
        At = (
            None
            if dense_attacks is None
            else np.ascontiguousarray(dense_attacks.transpose(1, 2, 0), dtype=dt_np)
        )
        return Vt, Wt, At

    # ------------------------------------------------------------------
    def _simulate(
        self,
        system,
        X0: np.ndarray,
        Xhat0: np.ndarray,
        Vt: np.ndarray,
        Wt: np.ndarray | None,
        schedule: Sequence[tuple[np.ndarray, np.ndarray]] | None,
        At: np.ndarray | None,
        *,
        fused_ok: bool,
        workers: int,
        res_out: np.ndarray | None,
        ya_out: np.ndarray | None,
        recorder: dict | None,
    ) -> None:
        """Sharded state recursion over the whole horizon.

        Consumes the transposed ``(T, ·, N)`` stacks of
        :meth:`_transpose_streams` — one *central* draw, so shard boundaries
        never move the random streams — and writes transposed residue/
        measurement stacks and/or the instance-major recorder arrays.
        """
        plant = system.plant
        n, m = plant.n_states, plant.n_outputs
        N = X0.shape[0]
        T = Vt.shape[0]
        dt_np = _DTYPES[self.dtype]

        bounds = _shard_bounds(N, workers)
        sharded = len(bounds) > 1

        def run_shard(bound: tuple[int, int]) -> None:
            lo, hi = bound
            width = hi - lo
            # Width-1 shards ride a zero discard column: keeps the BLAS on
            # its (partition-invariant) GEMM path instead of GEMV.  The
            # legacy fallback only needs the pad when actually sharded — a
            # single full-fleet legacy shard IS the reference computation.
            pad = width == 1 and (fused_ok or sharded)
            cols = 2 if pad else width

            def carve(block_t):
                if block_t is None:
                    return None
                if not pad:
                    return np.ascontiguousarray(block_t[:, :, lo:hi])
                padded = np.zeros(block_t.shape[:2] + (cols,), dtype=block_t.dtype)
                padded[:, :, :width] = block_t[:, :, lo:hi]
                return padded

            x0_t = np.zeros((n, cols), dtype=dt_np)
            x0_t[:, :width] = X0[lo:hi].T
            xh0_t = np.zeros((n, cols), dtype=dt_np)
            xh0_t[:, :width] = Xhat0[lo:hi].T
            if fused_ok:
                shard = _FusedShard(system, x0_t, xh0_t, dt_np)
            else:
                shard = _LegacyShard(system, x0_t, xh0_t)

            Vs = carve(Vt)
            Ws = carve(Wt)
            As = carve(At)
            if schedule is not None:
                # Pre-stack the schedule into one dense (T, m, cols) block:
                # each (step, instance) cell receives the same entry-ordered
                # accumulation the legacy per-step build performs.
                As = np.zeros((T, m, cols), dtype=dt_np)
                for indices, values in schedule:
                    inside = (indices >= lo) & (indices < hi)
                    As[:, :, indices[inside] - lo] += values[:, :, None]

            att = None
            # A lone full-width fused shard can emit residues straight into
            # the stack row (contiguous, same layout as the internal buffer).
            direct_res = res_out is not None and fused_ok and not pad and width == N
            for k in range(T):
                if As is not None:
                    att = As[k]
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
                    if att is not None and "attacks" in recorder:
                        recorder["attacks"][lo:hi, k] = att[:, :width].T
                    recorder["states"][lo:hi, k + 1] = shard.X[:, :width].T
                    recorder["estimates"][lo:hi, k + 1] = shard.Xhat[:, :width].T
                    recorder["inputs"][lo:hi, k + 1] = shard.U[:, :width].T

        if not sharded:
            run_shard(bounds[0])
        else:
            with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
                list(pool.map(run_shard, bounds))

    # ------------------------------------------------------------------
    def step_fleet(self, sim, run) -> FleetSteps:
        """Fused replica of the legacy stepping (same alarm stacks)."""
        T, N = sim.horizon, sim.n_instances
        m = sim.system.plant.n_outputs
        lanes = build_lanes(sim.detectors)

        fused_ok = probe_fused_equivalence(sim.system, _DTYPES[self.dtype], N)
        workers_eff = max(1, min(self.workers, N))
        shard_stable = True
        if workers_eff > 1:
            shard_stable = probe_shard_stability(
                sim.system, self.dtype, fused_ok, N, workers_eff
            )
            if not shard_stable:
                workers_eff = 1
        if run.registry is not None:
            run.registry.counter(
                "fleet_kernel_runs_total",
                help="Fused-engine fleet runs by dtype and chosen path.",
            ).inc(
                dtype=self.dtype,
                path="fused" if fused_ok else "legacy-shards",
                workers=str(workers_eff),
            )

        needs_measurements = any(
            lane.consumes != "residues" for lane in lanes.values()
        )

        watch = Stopwatch()
        Vt, Wt, _ = self._transpose_streams(run.V, run.W, None)
        phases = {"draw": watch.elapsed()}
        started = Stopwatch()
        dt_np = _DTYPES[self.dtype]
        res_stack = np.empty((T, m, N), dtype=dt_np)
        ya_stack = np.empty((T, m, N), dtype=dt_np) if needs_measurements else None
        self._simulate(
            sim.system,
            run.X0,
            sim.xhat0.copy(),
            Vt,
            Wt,
            run.schedule if run.schedule else None,
            None,
            fused_ok=fused_ok,
            workers=workers_eff,
            res_out=res_stack,
            ya_out=ya_stack,
            recorder=run.recorder,
        )
        phases["recursion"] = started.elapsed()

        watch = Stopwatch()
        alarms = {
            label: lane.alarms(res_stack, ya_stack) for label, lane in lanes.items()
        }
        for lane in lanes.values():
            lane.finalize()
        phases["lanes"] = watch.elapsed()

        engine = {
            "name": self.name,
            "dtype": self.dtype,
            "workers": workers_eff,
            "fused_path": bool(fused_ok),
            "shard_stable": bool(shard_stable),
        }
        return FleetSteps(alarms, phases, engine)

    # ------------------------------------------------------------------
    def batch_trace(
        self, system, horizon, X0, Xhat0, V, W, A, has_process_noise, has_attack
    ):
        """Fused replica of the :func:`batch_simulate` recording loop."""
        from repro.runtime.fleet import FleetTrace

        plant = system.plant
        N, T = X0.shape[0], int(horizon)
        n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
        fused_ok = probe_fused_equivalence(system, _DTYPES[self.dtype], N)
        workers_eff = max(1, min(self.workers, N))
        if workers_eff > 1 and not probe_shard_stability(
            system, self.dtype, fused_ok, N, workers_eff
        ):
            workers_eff = 1

        recorder = {
            "states": np.zeros((N, T + 1, n)),
            "estimates": np.zeros((N, T + 1, n)),
            "inputs": np.zeros((N, T + 1, p)),
            "measurements": np.zeros((N, T, m)),
            "true_outputs": np.zeros((N, T, m)),
            "residues": np.zeros((N, T, m)),
        }
        recorder["states"][:, 0] = X0
        recorder["estimates"][:, 0] = Xhat0

        Vt, Wt, At = self._transpose_streams(
            V, W if has_process_noise else None, A if has_attack else None
        )
        self._simulate(
            system,
            X0,
            Xhat0,
            Vt,
            Wt,
            None,
            At,
            fused_ok=fused_ok,
            workers=workers_eff,
            res_out=None,
            ya_out=None,
            recorder=recorder,
        )
        return FleetTrace(
            **recorder,
            attacks=A,
            process_noise=W,
            measurement_noise=V,
            dt=system.dt,
            metadata={"system": system.name},
        )

    # ------------------------------------------------------------------
    def service_round(
        self,
        cores: Mapping[str, BatchDetector],
        residues: np.ndarray,
        measurements: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """One fused service round: shared norms over a version-keyed plan."""
        key = FusedServicePlan.cache_key(cores)
        plan = self._service_plan
        if plan is None or plan.key != key:
            plan = self._service_plan = FusedServicePlan(cores)
        return plan.round(residues, measurements)


__all__ = ["LegacyEngine", "FusedEngine", "probe_shard_stability"]
