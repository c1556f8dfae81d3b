"""The benchmark's workloads: inputs, the timed call, and output checks.

Each workload owns one user-facing call of the library and the inputs it
needs, all derived from the run's ``--seed``:

* ``synth-vsc`` — ``run_pipeline`` on the VSC case study (paper §IV);
* ``fleet-benign`` / ``fleet-alarm`` — ``run_fleet`` on a 4000x200 DC-motor
  fleet, without and with a 10% attack plus an in-memory sink;
* ``serve-trace`` — per-sample ``MonitorService.ingest`` replaying a
  recorded 100x1000 fleet measurement trace.

``BENCHMARK.json`` lists the workloads measured for regressions;
``fleet-benign`` stays runnable by name (the README says why it is not
listed).

``call()`` is the untraced, timed call.  ``traced_call(tracer)`` makes the
same call through the timing proxies of :mod:`layers` and then times the
layers the call does not expose by calling their public functions directly
on the same inputs (``spawn_rngs``, ``NoiseModel.sample``, ``FusedStepper``,
``build_lanes``, ``BatchObserver``, ``service_round``, the FAR evaluator).
Those re-enactments are outside the timed call, so they cost it nothing,
but they measure a copy of the work: after a change to how a layer is
built they report the old layer until they are updated.

``check(summary)`` compares one call's output against references that do
not use the engine being timed; it returns ``None`` or the reason the
output is wrong.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import TimedBackend, TimedLog, TimedSink, span_totals
from repro import (
    FARConfig,
    InMemorySink,
    MonitorService,
    RuntimeConfig,
    ServiceConfig,
    SynthesisConfig,
    get_case_study,
    run_fleet,
    run_pipeline,
)
from repro.api.execute import RAW_FAR_SUFFIX
from repro.core.far import FalseAlarmEvaluator
from repro.detectors.threshold import ThresholdVector
from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.registry import ATTACK_TEMPLATES, ENGINES
from repro.runtime.batch import make_batched
from repro.runtime.engine import build_detector_bank
from repro.runtime.fleet import ScheduledAttack
from repro.runtime.kernel.core import FusedStepper
from repro.runtime.kernel.lanes import build_lanes
from repro.serve.observer import BatchObserver
from repro.utils.rng import ensure_rng, spawn_rngs

#: The engine configuration the benchmark holds fixed: fused, float64, one worker.
ENGINE = "fused"

#: The deployed bank of the fleet and serve workloads.
STATIC = {"static": 0.1}
DETECTORS = {"cusum": {"name": "cusum", "options": {"bias": 0.02, "threshold": 0.5}}}
ATTACK = {"template": "bias", "options": {"bias": 0.5}, "fraction": 0.1}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Call:
    """One timed call: wall seconds, a compact output and request latencies."""

    seconds: float
    summary: dict
    layers: dict = field(default_factory=dict)
    #: Per-request latencies inside the call (serve-trace's round-completing
    #: ``ingest`` calls); empty for the batch workloads.
    latencies_ms: list[float] = field(default_factory=list)
    #: Reference host speed over the speed measured around the call; wall
    #: times multiplied by it are normalised (see ``run.host_slowness``).
    scale: float = 1.0


def _timed_root(tracer: Tracer, name: str, action):
    """Run ``action`` under root span ``name``; returns ``(result, seconds, root)``."""
    with tracer.span(name) as root:
        watch = Stopwatch()
        result = action()
        seconds = watch.elapsed()
    return result, seconds, root


def _detects(detector, residues: np.ndarray) -> bool:
    """Offline verdict of one bank entry on one trace's residues."""
    if isinstance(detector, ThresholdVector):
        return not detector.admits(residues)
    return bool(detector.detects(residues))


def _scheduled_attack(start: int) -> ScheduledAttack:
    return ScheduledAttack(
        template=ATTACK_TEMPLATES.create(ATTACK["template"], **ATTACK["options"]),
        start=start,
        fraction=ATTACK["fraction"],
    )


class Workload:
    """Base class: ``setup`` builds inputs and warms up, ``call`` is timed."""

    name = ""
    #: What one latency sample is, for the printed table.
    request = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = int(seed)
        self.smoke = bool(smoke)

    def setup(self, warm: bool = True) -> None:
        raise NotImplementedError

    def call(self) -> Call:
        raise NotImplementedError

    def traced_call(self, tracer: Tracer) -> Call:
        raise NotImplementedError

    def check(self, summary: dict) -> str | None:
        raise NotImplementedError

    def headline(self, call_s: float) -> tuple[str, float, str]:
        """The workload's own end-to-end metric, derived from ``call_s``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class SynthVSC(Workload):
    name = "synth-vsc"

    def setup(self, warm: bool = True) -> None:
        case = get_case_study("vsc")
        reproduction = case.extras["reproduction"]
        self.problem = case.problem
        self.synthesis = SynthesisConfig(
            algorithms=("pivot", "stepwise", "static"),
            backend="lp",
            relax={"floor": 1.0},
        )
        self.far = FARConfig(
            count=200 if self.smoke else reproduction["far_count"],
            seed=self.seed,
            noise_scale=reproduction["far_noise_scale"],
            initial_state_spread=[float(v) for v in reproduction["far_initial_state_spread"]],
        )
        if warm:
            self.call()

    @staticmethod
    def _summary(report) -> dict:
        return {
            "thresholds": {
                name: [float(v) for v in result.threshold.values]
                for name, result in report.synthesis.items()
            },
            "converged": {
                name: bool(result.converged) for name, result in report.synthesis.items()
            },
            "rates": dict(report.far_study.rates),
            "kept": report.far_study.kept,
        }

    def call(self) -> Call:
        watch = Stopwatch()
        report = run_pipeline(self.problem, self.synthesis, self.far)
        seconds = watch.elapsed()
        return Call(seconds, self._summary(report))

    @staticmethod
    def _far_detectors(report) -> dict:
        """The labels ``run_pipeline`` evaluates: deployed vectors plus raw ones."""
        detectors = {}
        for name, result in report.synthesis.items():
            deployed = report.deployed_threshold(name)
            if deployed is None:
                continue
            detectors[name] = deployed
            if name in report.relaxation and result.threshold is not None:
                detectors[name + RAW_FAR_SUFFIX] = result.threshold
        return detectors

    def traced_call(self, tracer: Tracer) -> Call:
        backend = TimedBackend(self.synthesis.build_backend(), tracer)
        with use_tracer(tracer), use_registry(MetricsRegistry(enabled=True)) as registry:
            report, seconds, root = _timed_root(
                tracer,
                "bench.call",
                lambda: run_pipeline(self.problem, self.synthesis, self.far, backend=backend),
            )
        with tracer.span("bench.layers") as aux:
            evaluator = self.far.build_evaluator(self.problem)
            with tracer.span("bench.far_gen"):
                evaluator.benign_traces()
            with tracer.span("bench.far_eval"):
                evaluator.evaluate(self._far_detectors(report))
        spans = span_totals(tracer, root)
        aux_spans = span_totals(tracer, aux)
        solve_s, solves = spans.get("bench.solve", (0.0, 0))
        # Every solve runs inside the vulnerability or synthesis stage; the
        # rest of those stages is synthesizer/relaxer logic and witness
        # re-simulation.  The static encoding is built before either stage.
        stages_s = sum(
            spans.get(stage, (0.0, 0))[0]
            for stage in ("pipeline.vulnerability", "pipeline.synthesis")
        )
        memo = registry.get("synthesis_memo_hits_total")
        layers = {
            "synth.solve_s": solve_s,
            "synth.solves": solves,
            "synth.memo_hits": 0 if memo is None else memo.total(),
            "synth.encode_s": spans.get("synthesis.encode", (0.0, 0))[0],
            "synth.cegis_s": stages_s - solve_s,
            "synth.far_gen_s": aux_spans["bench.far_gen"][0],
            "synth.far_eval_s": aux_spans["bench.far_eval"][0],
            "synth.far_trials": evaluator.count,
        }
        return Call(seconds, self._summary(report), layers)

    def check(self, summary: dict) -> str | None:
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[self.name]
        if summary["thresholds"] != reference["thresholds"]:
            return "raw thresholds differ from the reference"
        if summary["converged"] != reference["converged"]:
            return "converged flags differ from the reference"
        if set(summary["rates"]) != set(reference["far_rates"]):
            return "FAR labels differ from the reference"
        kept = summary["kept"]
        for label, expected in reference["far_rates"].items():
            # Five binomial standard errors at the reference rate, with
            # p(1-p) floored at 0.01 so rates near 0 or 1 keep a margin.
            tolerance = 5.0 * math.sqrt(max(expected * (1.0 - expected), 0.01) / kept)
            if abs(summary["rates"][label] - expected) > tolerance:
                return (
                    f"FAR of {label} is {summary['rates'][label]:.4f}, reference "
                    f"{expected:.4f} +/- {tolerance:.4f}"
                )
        return None

    def headline(self, call_s: float) -> tuple[str, float, str]:
        return "pipeline_s", call_s, "s"


# ----------------------------------------------------------------------
class _Fleet(Workload):
    attacked = False

    def setup(self, warm: bool = True) -> None:
        self.problem = get_case_study("dcmotor").problem
        n_instances, horizon = (200, 50) if self.smoke else (4000, 200)
        attacks = [dict(ATTACK, start=horizon // 4)] if self.attacked else []
        self.config = RuntimeConfig(
            n_instances=n_instances,
            horizon=horizon,
            static_thresholds=STATIC,
            detectors=DETECTORS,
            attacks=attacks,
            include_mdc=False,
            seed=self.seed,
            engine=ENGINE,
        )
        self._reference: dict | None = None
        if warm:
            self.call()

    @staticmethod
    def _summary(report, events: int) -> dict:
        return {
            "stats": {label: stats.to_dict() for label, stats in report.detectors.items()},
            "n_attacked": report.n_attacked,
            "events": events,
        }

    def call(self) -> Call:
        sinks = [InMemorySink()] if self.attacked else []
        watch = Stopwatch()
        report = run_fleet(self.config, self.problem, sinks=sinks)
        seconds = watch.elapsed()
        events = len(sinks[0]) if sinks else 0
        return Call(seconds, self._summary(report, events))

    def traced_call(self, tracer: Tracer) -> Call:
        sinks = [TimedSink(InMemorySink(), tracer)] if self.attacked else []
        with use_tracer(tracer):
            report, seconds, root = _timed_root(
                tracer, "bench.call", lambda: run_fleet(self.config, self.problem, sinks=sinks)
            )
        with tracer.span("bench.layers") as aux:
            self._reenact(tracer)
        spans = span_totals(tracer, root)
        aux_spans = span_totals(tracer, aux)
        layers = {
            "fleet.bank_s": aux_spans["bench.bank"][0],
            "fleet.rng_s": aux_spans["bench.spawn_rngs"][0],
            "fleet.draw_s": aux_spans["bench.draw"][0],
            "fleet.kernel_s": report.elapsed_seconds,
            "fleet.recursion_s": aux_spans["bench.recursion"][0],
            "fleet.lanes_s": aux_spans["bench.lanes"][0],
            "fleet.sink_s": spans.get("bench.sink", (0.0, 0))[0],
            "fleet.events": sinks[0].events if sinks else 0,
            "fleet.alarms": sum(stats.alarm_count for stats in report.detectors.values()),
        }
        layers["fleet.other_s"] = seconds - (
            layers["fleet.bank_s"]
            + layers["fleet.rng_s"]
            + layers["fleet.draw_s"]
            + layers["fleet.kernel_s"]
        )
        events = sinks[0].events if sinks else 0
        return Call(seconds, self._summary(report, events), layers)

    def _reenact(self, tracer: Tracer) -> None:
        """Time the fleet's layers by calling their public functions directly."""
        config, problem = self.config, self.problem
        system = problem.system
        N, T = config.n_instances, config.horizon
        n, m = system.plant.n_states, system.plant.n_outputs
        with tracer.span("bench.bank"):
            bank = build_detector_bank(problem, config)
        with tracer.span("bench.spawn_rngs"):
            rngs = spawn_rngs(config.seed, N + 1)
        noise = FalseAlarmEvaluator.default_noise_model(problem, scale=config.noise_scale)
        with tracer.span("bench.draw"):
            V = np.zeros((N, T, m))
            for index, rng in enumerate(rngs[:N]):
                V[index] = noise.sample(T, rng)
        Vt = np.ascontiguousarray(V.transpose(1, 2, 0))
        attack = None
        if self.attacked:
            entry = _scheduled_attack(config.attacks[0]["start"])
            targets = entry.resolve_instances(N, ensure_rng(rngs[-1]))
            attack = np.zeros((T, m, N))
            attack[:, :, targets] += entry.materialize(T, m)[:, :, None]
        residues = np.empty((T, m, N))
        with tracer.span("bench.recursion"):
            stepper = FusedStepper(system, np.tile(problem.x0, (N, 1)).T.copy(), np.zeros((n, N)))
            for k in range(T):
                stepper.step(Vt[k], None, None if attack is None else attack[k], res_out=residues[k])
        cores = {label: make_batched(obj, N, dt=system.dt) for label, obj in bank.items()}
        with tracer.span("bench.lanes"):
            for lane in build_lanes(cores).values():
                lane.alarms(residues, None)

    def _offline_reference(self) -> dict:
        """Benign FAR per detector from offline per-trace detectors (legacy engine)."""
        config, problem = self.config, self.problem
        N = config.n_instances
        evaluator = FalseAlarmEvaluator(
            problem, count=N, seed=config.seed, filter_pfc=False, filter_mdc=False
        )
        traces = evaluator.benign_traces()
        benign = np.ones(N, dtype=bool)
        if self.attacked:
            entry = _scheduled_attack(config.attacks[0]["start"])
            rngs = spawn_rngs(config.seed, N + 1)
            benign[entry.resolve_instances(N, ensure_rng(rngs[-1]))] = False
        bank = build_detector_bank(problem, config)
        rates = {}
        for label, detector in bank.items():
            alarmed = np.array([_detects(detector, trace.residues) for trace in traces])
            rates[label] = int(np.count_nonzero(alarmed & benign)) / int(np.count_nonzero(benign))
        return {"far": rates, "n_attacked": int(N - np.count_nonzero(benign))}

    def check(self, summary: dict) -> str | None:
        if self._reference is None:
            self._reference = self._offline_reference()
        reference = self._reference
        if summary["n_attacked"] != reference["n_attacked"]:
            return f"{summary['n_attacked']} attacked instances, expected {reference['n_attacked']}"
        for label, expected in reference["far"].items():
            got = summary["stats"][label]["false_alarm_rate"]
            if got != expected:
                return f"benign FAR of {label} is {got}, offline detectors give {expected}"
        if self.attacked:
            if summary["stats"]["static"]["detection_rate"] != 1.0:
                return "the static detector missed an attacked instance"
            alarms = sum(stats["alarm_count"] for stats in summary["stats"].values())
            if summary["events"] != alarms:
                return f"the sink saw {summary['events']} events for {alarms} alarms"
        return None

    def headline(self, call_s: float) -> tuple[str, float, str]:
        steps = self.config.n_instances * self.config.horizon
        return "fleet_steps_per_s", steps / call_s, "1/s"


class FleetBenign(_Fleet):
    name = "fleet-benign"


class FleetAlarm(_Fleet):
    name = "fleet-alarm"
    attacked = True


# ----------------------------------------------------------------------
class ServeTrace(Workload):
    name = "serve-trace"
    request = "round-completing ingest calls"

    def setup(self, warm: bool = True) -> None:
        self.problem = get_case_study("dcmotor").problem
        n_instances, horizon = (10, 60) if self.smoke else (100, 1000)
        recording = RuntimeConfig(
            n_instances=n_instances,
            horizon=horizon,
            static_thresholds=STATIC,
            detectors=DETECTORS,
            # Attacked from three quarters of the horizon: the latency median
            # then sits among the quiet rounds and the p99 among the alarming
            # ones.  A mid-horizon start puts the median in the gap between
            # the two modes, where it jumps with a handful of rounds.
            attacks=[dict(ATTACK, start=3 * horizon // 4)],
            include_mdc=False,
            seed=self.seed,
            record_traces=True,
            engine=ENGINE,
        )
        sink = InMemorySink()
        report = run_fleet(recording, self.problem, sinks=[sink])
        # The recording run's alarms are the reference the service must
        # reproduce from the measurements alone.
        self.expected = {
            "counts": {label: stats.alarm_count for label, stats in report.detectors.items()},
            "first": sink.first_alarms(),
        }
        self.n_instances, self.horizon = n_instances, horizon
        self.block = np.ascontiguousarray(report.trace.measurements.transpose(1, 0, 2))
        self.rounds = [list(self.block[k]) for k in range(horizon)]
        self.bank = build_detector_bank(
            self.problem,
            ServiceConfig(static_thresholds=STATIC, detectors=DETECTORS, include_mdc=False),
        )
        if warm:
            self.call()

    def _service(self, sink, log) -> MonitorService:
        service = MonitorService(
            self.problem.system, self.bank, sinks=[sink], log=log, engine=ENGINE
        )
        for _ in range(self.n_instances):
            service.attach()
        return service

    def _replay(self, service: MonitorService, round_call) -> list[float]:
        """Ingest every sample in round order; the last ingest of a round drains it."""
        ingest = service.ingest
        last = self.n_instances - 1
        latencies = []
        for row in self.rounds:
            for instance in range(last):
                ingest(instance, row[instance])
            latencies.append(round_call(ingest, last, row[last]))
        return latencies

    @staticmethod
    def _timed_ingest(ingest, instance, sample) -> float:
        watch = Stopwatch()
        ingest(instance, sample)
        return watch.elapsed() * 1e3

    @staticmethod
    def _summary(service: MonitorService, sink: InMemorySink) -> dict:
        counts: dict[str, int] = {}
        for event in sink:
            counts[event.detector] = counts.get(event.detector, 0) + 1
        return {
            "counts": counts,
            "first": sink.first_alarms(),
            "rounds": service.rounds_processed,
            "ingested": service.samples_ingested,
            "dropped": service.samples_dropped,
        }

    def call(self) -> Call:
        sink = InMemorySink()
        service = self._service(sink, None)
        watch = Stopwatch()
        latencies = self._replay(service, self._timed_ingest)
        seconds = watch.elapsed()
        return Call(seconds, self._summary(service, sink), latencies_ms=latencies)

    def traced_call(self, tracer: Tracer) -> Call:
        sink = InMemorySink()
        timed_sink = TimedSink(sink, tracer)
        log = TimedLog()
        service = self._service(timed_sink, log)

        def traced_round(ingest, instance, sample) -> float:
            with tracer.span("bench.round") as record:
                ingest(instance, sample)
            return record.wall_s * 1e3

        latencies, seconds, root = _timed_root(
            tracer, "bench.call", lambda: self._replay(service, traced_round)
        )
        with tracer.span("bench.layers") as aux:
            self._reenact(tracer)
        spans = span_totals(tracer, root)
        aux_spans = span_totals(tracer, aux)
        rounds = service.rounds_processed
        layers = {
            "serve.push_s": seconds - spans["bench.round"][0],
            "serve.log_s": log.seconds,
            "serve.log_events": len(log),
            "serve.observer_s": aux_spans["bench.observer"][0],
            "serve.detect_s": aux_spans["bench.detect"][0],
            "serve.sink_s": spans.get("bench.sink", (0.0, 0))[0],
            "serve.events": timed_sink.events,
            "serve.rounds": rounds,
            "serve.alarm_ratio": timed_sink.events
            / (rounds * self.n_instances * len(self.bank)),
            "serve.round_p50_ms": float(np.percentile(latencies, 50)),
            "serve.round_p99_ms": float(np.percentile(latencies, 99)),
        }
        return Call(seconds, self._summary(service, sink), layers, latencies)

    def _reenact(self, tracer: Tracer) -> None:
        """Observer and detector rounds over the same trace, called directly."""
        system = self.problem.system
        observer = BatchObserver(system)
        observer.grow(self.n_instances)
        residues = np.empty_like(self.block)
        with tracer.span("bench.observer"):
            for k in range(self.horizon):
                residues[k] = observer.step(self.block[k])
        cores = {
            label: make_batched(obj, self.n_instances, dt=system.dt)
            for label, obj in self.bank.items()
        }
        engine = ENGINES.create(ENGINE)
        with tracer.span("bench.detect"):
            for k in range(self.horizon):
                engine.service_round(cores, residues[k], self.block[k])

    def check(self, summary: dict) -> str | None:
        if summary["rounds"] != self.horizon:
            return f"{summary['rounds']} rounds drained, expected {self.horizon}"
        if summary["ingested"] != self.n_instances * self.horizon or summary["dropped"]:
            return "samples were dropped or not ingested"
        expected = {label: count for label, count in self.expected["counts"].items() if count}
        if summary["counts"] != expected:
            return f"alarm counts {summary['counts']} differ from the recording run's {expected}"
        if summary["first"] != self.expected["first"]:
            return "first-alarm steps differ from the recording run's"
        return None

    def headline(self, call_s: float) -> tuple[str, float, str]:
        samples = self.n_instances * self.horizon
        return "ingest_samples_per_s", samples / call_s, "1/s"


WORKLOADS = {cls.name: cls for cls in (SynthVSC, FleetBenign, FleetAlarm, ServeTrace)}

__all__ = ["Call", "WORKLOADS", "Workload"]
