"""Vectorized fleet simulation: N monitored closed loops stepped together.

This is the execution core of the runtime subsystem.  All per-instance state
— plant state, estimator state, control input, noise, attacks, detector state
— is shaped ``(N, ...)`` and advanced one sampling instance at a time with
batched numpy, so a fleet of thousands of plant instances steps at the cost
of a handful of matrix products per sample instead of a Python loop per
instance.

Three layers; both fleet entry points run the one stepping loop,
:func:`~repro.runtime.kernel.runner.simulate`, with the stepper their
engine supplies:

* :func:`batch_simulate` — run ``N`` closed loops to completion and record
  every trajectory (:class:`FleetTrace`); the vectorized replacement for
  calling :func:`~repro.lti.simulate.simulate_closed_loop` in a loop, used by
  the FAR study's benign-population generation.
* :class:`ScheduledAttack` — one entry of the fleet's attack schedule: an
  :class:`~repro.attacks.templates.AttackTemplate` injected into a subset of
  the fleet from a given step onward.
* :class:`FleetSimulator` — the monitored fleet: draws the streams, runs the
  stepping loop, which steps the horizon in blocks and runs each deployed
  detector's pass (:meth:`~repro.runtime.batch.BatchDetector.run`) over
  every block's residues or measurements, and hands the resulting
  ``(T, N)`` alarm stacks to
  :class:`~repro.runtime.report.AlarmTally`, which aggregates a
  :class:`~repro.runtime.report.FleetReport` and pushes
  :class:`~repro.runtime.events.AlarmBatch` views into the sinks.

Both step with the one engine, ``"fused"``: the float64 block-fused kernel
of :mod:`repro.runtime.kernel`, on one thread, bit-identical to the reference
stepper (:class:`~repro.runtime.kernel.runner._BatchStepper`) and gated by
a differential probe that falls back to it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.attacks.templates import AttackTemplate
from repro.lti.simulate import ClosedLoopSystem, SimulationTrace
from repro.noise.generators import draw_streams
from repro.noise.models import GaussianNoise, NoiseModel, ZeroNoise
from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import span
from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector, make_batched
from repro.runtime.events import EventSink
from repro.runtime.kernel.lanes import build_lanes
from repro.runtime.kernel.runner import FusedEngine, Stepping, new_recorder, simulate
from repro.runtime.report import AlarmTally, FleetReport
from repro.utils.rng import spawned_rng
from repro.utils.validation import ValidationError, check_positive


def _as_instance_states(values: np.ndarray | None, n_instances: int, n: int, label: str) -> np.ndarray:
    """Broadcast a ``(n,)`` vector or validate an ``(N, n)`` matrix of states."""
    if values is None:
        return np.zeros((n_instances, n))
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        if values.size != n:
            raise ValidationError(f"{label} must have length {n}, got {values.size}")
        return np.tile(values, (n_instances, 1))
    if values.shape != (n_instances, n):
        raise ValidationError(
            f"{label} must have shape {(n_instances, n)}, got {values.shape}"
        )
    return values.copy()


def _check_noise_block(
    values: np.ndarray | None, shape: tuple[int, int, int], label: str
) -> np.ndarray:
    if values is None:
        return np.zeros(shape)
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValidationError(f"{label} must have shape {shape}, got {values.shape}")
    return values


@dataclass
class FleetTrace:
    """Recorded trajectories of a whole fleet (instance-major layout).

    Every array of :class:`~repro.lti.simulate.SimulationTrace` appears here
    with a leading instance axis: ``states`` is ``(N, T+1, n)``, ``residues``
    is ``(N, T, m)``, and so on.  :meth:`instance` slices one instance back
    out as an ordinary :class:`SimulationTrace`.
    """

    states: np.ndarray
    estimates: np.ndarray
    inputs: np.ndarray
    measurements: np.ndarray
    true_outputs: np.ndarray
    residues: np.ndarray
    attacks: np.ndarray
    process_noise: np.ndarray
    measurement_noise: np.ndarray
    dt: float = 1.0
    metadata: dict = field(default_factory=dict)

    @property
    def n_instances(self) -> int:
        """Fleet size ``N``."""
        return self.residues.shape[0]

    @property
    def horizon(self) -> int:
        """Number of closed-loop iterations ``T``."""
        return self.residues.shape[1]

    def instance(self, index: int) -> SimulationTrace:
        """The trajectory of one fleet instance as a :class:`SimulationTrace`."""
        return SimulationTrace(
            states=self.states[index],
            estimates=self.estimates[index],
            inputs=self.inputs[index],
            measurements=self.measurements[index],
            true_outputs=self.true_outputs[index],
            residues=self.residues[index],
            attacks=self.attacks[index],
            process_noise=self.process_noise[index],
            measurement_noise=self.measurement_noise[index],
            dt=self.dt,
            metadata=dict(self.metadata),
        )

    def __iter__(self):
        return (self.instance(i) for i in range(self.n_instances))


def batch_simulate(
    system: ClosedLoopSystem,
    horizon: int,
    x0: np.ndarray | None = None,
    xhat0: np.ndarray | None = None,
    measurement_noise: np.ndarray | None = None,
    process_noise: np.ndarray | None = None,
    attacks: np.ndarray | None = None,
    n_instances: int | None = None,
) -> FleetTrace:
    """Simulate ``N`` instances of one closed loop in batched numpy.

    Parameters
    ----------
    system:
        The closed loop to replicate across the fleet.
    horizon:
        Number of closed-loop iterations ``T``.
    x0 / xhat0:
        Initial plant/estimator states: either one ``(n,)`` vector shared by
        the fleet or an ``(N, n)`` matrix of per-instance states.  Default
        zero, as in the sequential simulator.
    measurement_noise / process_noise / attacks:
        Optional per-instance sequences of shape ``(N, T, m)`` / ``(N, T, n)``
        / ``(N, T, m)``; ``None`` means zero.
    n_instances:
        Fleet size; only needed when every per-instance argument is ``None``.

    Returns
    -------
    FleetTrace
        All ``N`` trajectories; ``trace.instance(i)`` is the trace
        :func:`~repro.lti.simulate.simulate_closed_loop` produces for the
        same inputs up to floating-point rounding, not bit for bit: the
        fused engine advances the fleet with one block GEMM per step, and
        BLAS sums its terms in another order than the sequential
        simulator's per-instance products.  On the six case studies'
        LP vulnerability witnesses the largest difference is 8.9e-16 (VSC)
        to 2.0e-14 (pendulum); ``tests/test_runtime_fleet.py`` holds it to
        ``rtol=1e-10, atol=1e-12``.
    """
    plant = system.plant
    T = int(check_positive("horizon", horizon))
    n, m = plant.n_states, plant.n_outputs

    for candidate in (measurement_noise, process_noise, attacks):
        if candidate is not None:
            inferred = np.asarray(candidate).shape[0]
            if n_instances is not None and n_instances != inferred:
                raise ValidationError(
                    f"n_instances={n_instances} conflicts with a per-instance "
                    f"argument sized for {inferred} instances"
                )
            n_instances = inferred
    if n_instances is None:
        x0_arr = None if x0 is None else np.asarray(x0, dtype=float)
        n_instances = x0_arr.shape[0] if x0_arr is not None and x0_arr.ndim == 2 else 1
    N = int(check_positive("n_instances", n_instances))

    X0 = _as_instance_states(x0, N, n, "x0")
    Xhat0 = _as_instance_states(xhat0, N, n, "xhat0")
    V = _check_noise_block(measurement_noise, (N, T, m), "measurement_noise")
    W = _check_noise_block(process_noise, (N, T, n), "process_noise")
    A = _check_noise_block(attacks, (N, T, m), "attacks")

    recorder = new_recorder(plant, X0, Xhat0, T)
    simulate(
        system,
        FusedEngine().stepping(system, N),
        X0,
        Xhat0,
        V,
        W if process_noise is not None else None,
        A if attacks is not None else None,
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


@dataclass(frozen=True)
class ScheduledAttack:
    """One entry of a fleet's attack schedule.

    Parameters
    ----------
    template:
        The parametric attack generator to materialise.
    start:
        Fleet step (0-based) at which the injection begins; the template is
        generated over the remaining ``horizon - start`` samples.
    instances:
        Explicit fleet instance ids to attack.  Mutually exclusive with
        ``fraction``; when both are ``None`` the whole fleet is attacked.
    fraction:
        Attack a random subset of this size (drawn once, reproducibly, from
        the fleet's seed).
    label:
        Schedule entry label used in report metadata.
    """

    template: AttackTemplate
    start: int = 0
    instances: tuple[int, ...] | None = None
    fraction: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if int(self.start) < 0:
            raise ValidationError("attack start must be non-negative")
        object.__setattr__(self, "start", int(self.start))
        if self.instances is not None and self.fraction is not None:
            raise ValidationError("give either explicit instances or a fraction, not both")
        if self.instances is not None:
            object.__setattr__(
                self, "instances", tuple(sorted(set(int(i) for i in self.instances)))
            )
        if self.fraction is not None:
            fraction = float(self.fraction)
            if not 0.0 < fraction <= 1.0:
                raise ValidationError("attack fraction must be in (0, 1]")
            object.__setattr__(self, "fraction", fraction)

    def resolve_instances(self, n_instances: int, rng: np.random.Generator) -> np.ndarray:
        """The concrete fleet instance ids this entry targets."""
        if self.instances is not None:
            indices = np.asarray(self.instances, dtype=int)
            if indices.size and (indices.min() < 0 or indices.max() >= n_instances):
                raise ValidationError(
                    f"attack instances out of range [0, {n_instances})"
                )
            return indices
        if self.fraction is not None:
            count = max(1, int(round(self.fraction * n_instances)))
            return np.sort(rng.choice(n_instances, size=count, replace=False))
        return np.arange(n_instances)

    def materialize(self, horizon: int, n_outputs: int) -> np.ndarray:
        """The ``(T, m)`` injection sequence this entry adds to its targets."""
        values = np.zeros((horizon, n_outputs))
        if self.start < horizon:
            generated = self.template.generate(horizon - self.start, n_outputs)
            values[self.start :] = generated.values
        return values


class FleetSimulator:
    """Streams ``N`` monitored plant instances step by step.

    Parameters
    ----------
    system:
        The closed loop replicated across the fleet.
    n_instances:
        Fleet size ``N``.
    horizon:
        Number of sampling instances to step.
    detectors:
        Label → detector mapping.  Values may be anything
        :func:`~repro.runtime.batch.make_batched` accepts: synthesized
        :class:`~repro.detectors.threshold.ThresholdVector` objects, offline
        residue / CUSUM / chi-square detectors, plant monitors, or
        :class:`~repro.runtime.online.OnlineDetector` objects.
    noise_model:
        Per-instance measurement-noise model; ``None`` draws Gaussian noise
        from the plant's ``R_v`` (zeros when the plant is noiseless).
    include_process_noise:
        Draw per-instance process noise from the plant's ``Q_w``.
    x0 / xhat0:
        Initial plant/estimator state shared by the fleet (``(n,)``) or per
        instance (``(N, n)``).
    x0_spread:
        Optional per-state half-widths of a uniform box around ``x0``; each
        instance draws its own initial state from the box.
    attacks:
        The attack schedule (any iterable of :class:`ScheduledAttack`).
    sinks:
        Event sinks receiving one :class:`~repro.runtime.events.AlarmBatch`
        per (step, detector) with alarms, in step order.  The batches are
        replayed after the whole horizon has been stepped, so a sink sees
        nothing while the fleet steps, and a run that fails mid-horizon
        emits no events.
    seed:
        Seed of the run's noise blocks (the block stream contract of
        :func:`~repro.noise.generators.draw_streams`) and of the schedule's
        subset draws.
    record_traces:
        Keep the full :class:`FleetTrace` on :attr:`trace` after :meth:`run`
        (off by default: the trace arrays are ``O(N T)`` floats per quantity).
    metrics:
        Telemetry wiring.  ``None`` (default) records into the process-wide
        registry from :func:`repro.obs.metrics.get_registry` — which is
        disabled by default, so the only hot-path cost is a no-op counter
        call on steps that alarm.  ``False`` compiles the instrumentation
        out entirely (the baseline of the overhead benchmark).  A
        :class:`~repro.obs.metrics.MetricsRegistry` instance records into
        that registry regardless of the global flag.
    scraper:
        Optional scrape subscription: anything with the
        :class:`~repro.obs.export.PeriodicScraper` interface.
        After the horizon has been stepped, the alarms are replayed in step
        order and ``maybe_scrape()`` is called once per step, after that
        step's alarms are counted; ``scrape()`` follows once at the end of
        :meth:`run`.  A scraper therefore sees the same progressive
        ``fleet_alarms_total`` values a step-by-step run would produce, but
        not when they happened: the replay is a tight loop, so a
        time-gated scraper fires about once in it, and an exposition file
        is not refreshed while the fleet steps.  A
        :class:`~repro.obs.watch.HealthWatcher` passed here watches the
        run's gauge/counter streams for regressions.
    engine:
        Execution engine name from :data:`repro.registry.ENGINES`; the one
        built-in engine is ``"fused"`` (the block-fused kernel,
        bit-identical to the reference stepper).
    """

    def __init__(
        self,
        system: ClosedLoopSystem,
        n_instances: int,
        horizon: int,
        *,
        detectors: Mapping[str, object] | None = None,
        noise_model: NoiseModel | None = None,
        include_process_noise: bool = False,
        x0: np.ndarray | None = None,
        xhat0: np.ndarray | None = None,
        x0_spread: np.ndarray | None = None,
        attacks: Sequence[ScheduledAttack] = (),
        sinks: Sequence[EventSink] = (),
        seed: int | None = 0,
        record_traces: bool = False,
        metrics: MetricsRegistry | None | bool = None,
        scraper=None,
        engine: str = "fused",
    ):
        self.system = system
        self.metrics = metrics
        self.scraper = scraper
        self.engine = str(engine)
        self.n_instances = int(check_positive("n_instances", n_instances))
        self.horizon = int(check_positive("horizon", horizon))
        self.include_process_noise = bool(include_process_noise)
        self.seed = seed
        self.record_traces = bool(record_traces)
        self.sinks = list(sinks)
        self.trace: FleetTrace | None = None

        plant = system.plant
        if noise_model is None and plant.R_v is not None and np.any(plant.R_v):
            noise_model = GaussianNoise(covariance=plant.R_v)
        if noise_model is not None and noise_model.dimension != plant.n_outputs:
            raise ValidationError(
                f"noise model dimension {noise_model.dimension} does not match "
                f"the plant's {plant.n_outputs} outputs"
            )
        self.noise_model = noise_model

        n = plant.n_states
        # Validated (and broadcast from (n,) to (N, n)) up front so shape
        # errors surface at construction, not mid-run.
        self._x0_matrix = _as_instance_states(x0, self.n_instances, n, "x0")
        self.x0 = self._x0_matrix
        self.xhat0 = _as_instance_states(xhat0, self.n_instances, n, "xhat0")
        if x0_spread is not None:
            x0_spread = np.asarray(x0_spread, dtype=float).reshape(-1)
            if x0_spread.size != n:
                raise ValidationError("x0_spread must have one entry per plant state")
            if np.any(x0_spread < 0):
                raise ValidationError("x0_spread must be non-negative")
        self.x0_spread = x0_spread

        self.attacks = list(attacks)
        for entry in self.attacks:
            if not isinstance(entry, ScheduledAttack):
                raise ValidationError("attacks must be ScheduledAttack entries")

        self.detectors: dict[str, BatchDetector] = {}
        for label, detector in (detectors or {}).items():
            self.detectors[str(label)] = make_batched(
                detector, self.n_instances, dt=system.dt
            )

    # ------------------------------------------------------------------
    def _draw_streams(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """The run's noise blocks and initial states, under the block stream contract.

        One :func:`~repro.noise.generators.draw_streams` call draws the
        instance-major measurement noise, process noise and initial-state
        offsets from one generator keyed by the seed — the call the FAR
        study's benign-trace generation makes, so a fleet of ``N`` and a
        FAR population of ``N`` built from the same seed see the same
        randomness.  Returns ``(V, W, X0)``; ``W`` is ``None`` without
        process noise.
        """
        plant = self.system.plant
        noise_model = self.noise_model
        if noise_model is None:
            noise_model = ZeroNoise(plant.n_outputs)
        streams = draw_streams(
            self.seed,
            self.n_instances,
            self.horizon,
            noise_model,
            process_covariance=plant.Q_w if self.include_process_noise else None,
            x0_spread=self.x0_spread,
        )
        X0 = self._x0_matrix.copy()
        if streams.x0_offsets is not None:
            X0 += streams.x0_offsets
        return streams.measurement, streams.process, X0

    def _resolve_schedule(self, rng) -> list[tuple[np.ndarray, np.ndarray]]:
        """Materialise every schedule entry: (instance ids, (T, m) values)."""
        plant = self.system.plant
        resolved = []
        for entry in self.attacks:
            indices = entry.resolve_instances(self.n_instances, rng)
            values = entry.materialize(self.horizon, plant.n_outputs)
            resolved.append((indices, values))
        return resolved

    # ------------------------------------------------------------------
    def run(self) -> FleetReport:
        """Step the whole fleet through the horizon and aggregate the report.

        A run has three parts: :meth:`_prepare` draws the streams,
        :meth:`_step` runs the stepping loop with the engine's stepper and
        each detector's pass block by block, and :meth:`_finish`
        tallies and emits the alarms and builds the report.
        """
        runner = ENGINES.create(self.engine)
        scope = nullcontext()
        if self.metrics is not False:
            scope = span(
                "fleet.run",
                system=self.system.name,
                n_instances=self.n_instances,
                horizon=self.horizon,
                engine=self.engine,
            )
        with scope:
            run = self._prepare()
            stepping = runner.stepping(self.system, self.n_instances, run.registry)
            return self._finish(run, self._step(run, stepping), stepping.metadata)

    def _prepare(self) -> "_RunInputs":
        """Draw the streams, resolve the schedule, reset the detectors."""
        T, N = self.horizon, self.n_instances
        watch = Stopwatch()
        # The scheduler is the last of N + 1 spawned generators (the layout
        # of stream contract version 1), so a seed keeps attacking the same
        # instances.
        schedule = self._resolve_schedule(spawned_rng(self.seed, N + 1, N))
        V, W, X0 = self._draw_streams()

        attacked_mask = np.zeros(N, dtype=bool)
        attack_start = np.full(N, T, dtype=int)
        for (indices, values), entry in zip(schedule, self.attacks):
            if indices.size and np.any(values):
                attacked_mask[indices] = True
                attack_start[indices] = np.minimum(attack_start[indices], entry.start)
        phases = {"draw": watch.elapsed()}

        for detector in self.detectors.values():
            detector.reset()
        if self.metrics is False:
            registry = None
        elif isinstance(self.metrics, MetricsRegistry):
            registry = self.metrics
        else:
            registry = get_registry()
        recorder = None
        if self.record_traces:
            recorder = new_recorder(self.system.plant, X0, self.xhat0, T, attacks=True)
        return _RunInputs(
            V, W, X0, schedule, attacked_mask, attack_start, recorder, registry, phases
        )

    def _step(self, run: "_RunInputs", stepping: Stepping) -> dict[str, np.ndarray]:
        """The stepping loop with each detector's lane: label → ``(T, N)`` alarms."""
        return simulate(
            self.system,
            stepping,
            run.X0,
            self.xhat0,
            run.V,
            run.W,
            run.schedule or None,
            lanes=build_lanes(self.detectors),
            recorder=run.recorder,
            phases=run.phases,
        )

    def _finish(
        self, run: "_RunInputs", alarms: dict[str, np.ndarray], engine: dict
    ) -> FleetReport:
        """Tally and emit the alarm stacks, record metrics, build the report.

        The report's ``elapsed_seconds`` is the stepping window: the
        ``recursion``, ``lanes``, ``tally`` and ``emit`` phases together.
        """
        T, N = self.horizon, self.n_instances
        registry = run.registry
        phases = run.phases
        counter = None
        if registry is not None:
            counter = registry.counter(
                "fleet_alarms_total", help="Detector alarms fired during fleet runs."
            )
        watch = Stopwatch()
        tally = AlarmTally(alarms, run.attacked_mask, run.attack_start, T)
        stats = {label: tally.stats(label) for label in self.detectors}
        phases["tally"] = watch.elapsed()
        watch = Stopwatch()
        tally.publish(self.sinks, counter, self.scraper)
        phases["emit"] = watch.elapsed()
        elapsed = sum(phases[name] for name in ("recursion", "lanes", "tally", "emit"))

        if registry is not None:
            registry.counter(
                "fleet_steps_total", help="Instance-steps executed by fleet runs."
            ).inc(N * T)
            registry.counter(
                "fleet_runs_total", help="Completed FleetSimulator.run calls."
            ).inc()
            registry.histogram(
                "fleet_run_seconds", help="Wall time per FleetSimulator.run call."
            ).observe(elapsed, system=self.system.name)
            if elapsed > 0:
                registry.gauge(
                    "fleet_throughput_steps_per_s",
                    help="Instance-steps per second of the last fleet run.",
                ).set(N * T / elapsed, system=self.system.name)

        if self.scraper is not None:
            self.scraper.scrape()

        if run.recorder is not None:
            self.trace = FleetTrace(
                **run.recorder,
                process_noise=(
                    run.W
                    if run.W is not None
                    else np.zeros((N, T, self.system.plant.n_states))
                ),
                measurement_noise=run.V,
                dt=self.system.dt,
                metadata={"system": self.system.name},
            )

        metadata = {"system": self.system.name, "seed": self.seed, "engine": engine}
        metadata["attacks"] = [
            {
                "label": entry.label or f"attack-{index}",
                "start": entry.start,
                "instances": int(indices.size),
                "template": type(entry.template).__name__,
            }
            for index, ((indices, _), entry) in enumerate(zip(run.schedule, self.attacks))
        ]
        metadata["phases"] = dict(phases)
        report = FleetReport(
            n_instances=N,
            horizon=T,
            n_attacked=int(np.sum(run.attacked_mask)),
            elapsed_seconds=elapsed,
            metadata=metadata,
        )
        report.detectors.update(stats)
        return report


@dataclass
class _RunInputs:
    """One run's drawn inputs, as :meth:`FleetSimulator._step` reads them.

    ``V``/``W`` are the instance-major ``(N, T, ·)`` noise draws, ``X0``
    the initial states, ``schedule`` the resolved ``(instance ids, (T, m)
    values)`` attack entries, ``recorder`` the trace arrays to fill (``None``
    when traces are off) and ``registry`` the metrics registry (``None``
    when compiled out).  ``phases`` holds the per-phase seconds so far.
    """

    V: np.ndarray
    W: np.ndarray | None
    X0: np.ndarray
    schedule: list[tuple[np.ndarray, np.ndarray]]
    attacked_mask: np.ndarray
    attack_start: np.ndarray
    recorder: dict[str, np.ndarray] | None
    registry: MetricsRegistry | None
    phases: dict[str, float]


__all__ = ["FleetTrace", "ScheduledAttack", "FleetSimulator", "batch_simulate"]
