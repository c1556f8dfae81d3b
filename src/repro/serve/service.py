"""The always-on monitoring service: streaming ingest over batched detectors.

:class:`MonitorService` is the deployment form of the runtime subsystem.  A
:class:`~repro.runtime.fleet.FleetSimulator` *generates* a fleet and steps it
to a fixed horizon; the service instead runs indefinitely against streams it
does not control:

* each attached plant instance pushes measurement samples through its own
  fixed-size :class:`~repro.serve.ring.RingBuffer` (absorbing producer
  asynchrony, with an explicit overflow policy);
* whenever every attached instance has at least one pending sample, the
  service drains one *lockstep round* — one ``(N, m)`` block — through the
  shared batched detector cores of :mod:`repro.runtime.batch`, so serving
  reuses exactly the vectorized step whose alarms are proven
  trace-equivalent to the offline evaluators;
* instances may :meth:`~MonitorService.attach` and
  :meth:`~MonitorService.detach` while the service runs: the batch state
  grows/compacts row-wise and every other instance's detector state
  (CUSUM accumulators, dead-zone counters, threshold positions) is untouched;
* :meth:`~MonitorService.swap_thresholds` rebinds detector parameters
  atomically, again without resetting per-instance state — the mechanism for
  pushing re-synthesized thresholds into a live fleet;
* every externally visible action lands in an ordered
  :class:`~repro.serve.log.ServiceLog`, from which
  :func:`~repro.serve.replay.replay` reproduces the run deterministically.

Residues come from one of two sources: ``"observer"`` mode runs a
:class:`~repro.serve.observer.BatchObserver` over the ingested measurements
(the real-deployment shape: the service sees only sensor data), while
``"ingest"`` mode accepts pre-computed residues alongside each measurement
(for replaying recorded traces or fronting an external estimator).
"""

from __future__ import annotations

import copy
import threading
from typing import Mapping, Sequence

import numpy as np

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.threshold import ThresholdVector
from repro.lti.simulate import ClosedLoopSystem
from repro.monitors.base import Monitor
from repro.runtime.batch import (
    BatchChiSquare,
    BatchCusum,
    BatchDetector,
    BatchMonitor,
    BatchThresholdDetector,
    make_batched,
)
from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry
from repro.registry import ENGINES
from repro.runtime.events import AlarmEvent, EventSink
from repro.serve.log import ServiceLog
from repro.serve.observer import BatchObserver
from repro.serve.ring import RingBuffer
from repro.utils.validation import ValidationError, check_positive

#: Ring-buffer overflow policies accepted by :class:`MonitorService`.
OVERFLOW_POLICIES = ("drop-oldest", "drop-newest", "error")

#: Residue sources accepted by :class:`MonitorService`.
RESIDUE_SOURCES = ("observer", "ingest")


def _swap_payload(label: str, core: BatchDetector, obj) -> tuple[object, dict]:
    """Coerce a hot-swap request into the core's parameter type plus a log payload.

    Returns ``(bound, payload)`` where ``bound`` is what ``core.rebind``
    accepts and ``payload`` is a JSON-compatible description from which
    :func:`~repro.serve.replay.replay` can rebuild ``bound``.  Monitor swaps
    carry ``"replayable": False`` — a :class:`~repro.monitors.base.Monitor`
    tree has no canonical plain-data form.
    """
    if isinstance(core, BatchThresholdDetector):
        if not isinstance(obj, ThresholdVector):
            obj = ThresholdVector(np.asarray(obj, dtype=float))
        weights = None if obj.weights is None else [float(w) for w in obj.weights]
        payload = {
            "detector_kind": "threshold",
            "values": [float(v) for v in obj.values],
            "norm": obj.norm,
            "weights": weights,
        }
        return obj, payload
    if isinstance(core, BatchCusum):
        if not isinstance(obj, CusumDetector):
            raise ValidationError(
                f"swapping {label!r} (a CUSUM core) requires a CusumDetector, "
                f"got {type(obj).__name__}"
            )
        payload = {
            "detector_kind": "cusum",
            "bias": float(obj.bias),
            "threshold": float(obj.threshold),
            "norm": obj.norm,
        }
        return obj, payload
    if isinstance(core, BatchChiSquare):
        if not isinstance(obj, ChiSquareDetector):
            raise ValidationError(
                f"swapping {label!r} (a chi-square core) requires a ChiSquareDetector, "
                f"got {type(obj).__name__}"
            )
        payload = {
            "detector_kind": "chi-square",
            "innovation_cov": np.asarray(obj.innovation_cov, dtype=float).tolist(),
            "threshold": float(obj.threshold),
        }
        return obj, payload
    if isinstance(core, BatchMonitor):
        if not isinstance(obj, Monitor):
            raise ValidationError(
                f"swapping {label!r} (a monitor core) requires a Monitor, "
                f"got {type(obj).__name__}"
            )
        return obj, {"detector_kind": "monitor", "replayable": False}
    raise ValidationError(
        f"detector {label!r} ({type(core).__name__}) does not support hot swapping"
    )


class MonitorService:
    """An always-on, dynamically-membered fleet monitor.

    Parameters
    ----------
    system:
        The closed loop every attached instance runs.
    detectors:
        Label → detector mapping (anything
        :func:`~repro.runtime.batch.make_batched` accepts); at least one
        entry.
    residue_source:
        ``"observer"`` (default) computes residues from ingested measurements
        with a :class:`~repro.serve.observer.BatchObserver`; ``"ingest"``
        expects the producer to supply residues alongside measurements.
    ring_capacity:
        Pending samples each instance's ring buffer holds.
    overflow:
        Ring-buffer overflow policy, one of :data:`OVERFLOW_POLICIES`.
    auto_drain:
        Drain complete rounds immediately from inside :meth:`ingest`
        (default).  Off, rounds accumulate until :meth:`drain` is called —
        the mode :func:`~repro.serve.replay.replay` uses to reproduce
        recorded drain timing.
    sinks:
        :class:`~repro.runtime.events.EventSink` objects receiving alarm
        batches (wrap slow consumers in a
        :class:`~repro.serve.backpressure.BufferedSink`).
    log:
        The :class:`~repro.serve.log.ServiceLog` to record to; ``None``
        creates an in-memory log.
    xhat0:
        Default initial state estimate for attaching instances (observer
        mode).
    metadata:
        Carried into the log's ``"start"`` event; :func:`run_service` stores
        the originating config here so logs are replayable standalone.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the service records
        into.  ``None`` (default) gives the service its own always-enabled
        private registry — the service's counters are its operational state,
        so :meth:`stats` must work whether or not process-wide telemetry is
        on.  Pass a shared registry to fold serve metrics into a combined
        exposition (note a *disabled* shared registry records nothing and
        :meth:`stats` would read zeros).
    scraper:
        Optional :class:`~repro.obs.export.PeriodicScraper`; its
        ``maybe_scrape`` hook runs after every processed round and a final
        unconditional scrape happens on :meth:`close`, making the service a
        file-backed Prometheus scrape target.  Anything speaking the same
        interface fits — in particular a
        :class:`~repro.obs.watch.HealthWatcher` built over this service's
        ``metrics`` registry self-monitors the live gauge/counter-rate
        streams (ingest rate, members, round cost) with the repo's own
        CUSUM detectors, one observation per processed round.
    engine / engine_options:
        Name (from :data:`repro.registry.ENGINES`) and constructor options
        of the engine.  Both engines run the same round — every core steps
        once (:func:`~repro.runtime.kernel.runner.service_round`) — so
        alarm decisions, event ordering and per-instance detector state do
        not depend on the choice; the name is recorded in the service log.
    """

    def __init__(
        self,
        system: ClosedLoopSystem,
        detectors: Mapping[str, object],
        *,
        residue_source: str = "observer",
        ring_capacity: int = 64,
        overflow: str = "drop-oldest",
        auto_drain: bool = True,
        sinks: Sequence[EventSink] = (),
        log: ServiceLog | None = None,
        xhat0: np.ndarray | None = None,
        metadata: dict | None = None,
        metrics: MetricsRegistry | None = None,
        scraper=None,
        engine: str = "legacy",
        engine_options: Mapping[str, object] | None = None,
    ):
        if residue_source not in RESIDUE_SOURCES:
            raise ValidationError(
                f"unknown residue_source {residue_source!r}; "
                f"expected one of {RESIDUE_SOURCES}"
            )
        if overflow not in OVERFLOW_POLICIES:
            raise ValidationError(
                f"unknown overflow policy {overflow!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        if not detectors:
            raise ValidationError("a MonitorService needs at least one detector")
        self.system = system
        self.residue_source = residue_source
        self.ring_capacity = int(check_positive("ring_capacity", ring_capacity))
        self.overflow = overflow
        self.auto_drain = bool(auto_drain)
        self.sinks = list(sinks)
        self.log = log if log is not None else ServiceLog()
        self.metadata = dict(metadata or {})
        self.engine = str(engine)
        self.engine_options = dict(engine_options or {})
        self._engine = ENGINES.create(self.engine, **self.engine_options)

        # Cores cannot be built empty (n_instances is validated positive), so
        # materialise each with one placeholder row and compact it away.
        empty = np.array([], dtype=int)
        self.detectors: dict[str, BatchDetector] = {}
        for label, detector in detectors.items():
            core = make_batched(detector, 1, dt=system.dt)
            core.compact(empty)
            self.detectors[str(label)] = core
        self._needs_residues = any(
            core.consumes == "residues" for core in self.detectors.values()
        )

        self._observer = (
            BatchObserver(system, xhat0) if residue_source == "observer" else None
        )
        m = system.plant.n_outputs
        self._n_outputs = m
        self._sample_width = m if residue_source == "observer" else 2 * m

        self._lock = threading.RLock()
        self._ids: list[int] = []  # row -> instance id, in attach order
        self._rows: dict[int, int] = {}  # instance id -> row
        self._rings: list[RingBuffer] = []
        self._ready = 0  # rings with >= 1 pending sample (lockstep readiness)
        self._local_steps: list[int] = []  # row -> samples consumed so far
        self._alarmed: dict[str, np.ndarray] = {
            label: np.zeros(0, dtype=bool) for label in self.detectors
        }
        self._next_id = 0

        # The service's counters live in a metrics registry (private and
        # always-enabled unless one is injected); the historical plain-int
        # attributes are read-only properties over it below.
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=True)
        self.scraper = scraper
        self._uptime = Stopwatch()
        self._c_ingested = self.metrics.counter(
            "serve_samples_ingested_total", help="Samples accepted into ring buffers."
        )
        self._c_dropped = self.metrics.counter(
            "serve_samples_dropped_total", help="Samples dropped by overflow policy."
        )
        self._c_rounds = self.metrics.counter(
            "serve_rounds_total", help="Lockstep rounds processed."
        )
        self._c_alarms = self.metrics.counter(
            "serve_alarms_total", help="Alarm events emitted, by detector."
        )
        self._c_swaps = self.metrics.counter(
            "serve_swaps_total", help="Hot threshold swaps applied."
        )
        self._c_attach = self.metrics.counter(
            "serve_attach_total", help="Instance attachments."
        )
        self._c_detach = self.metrics.counter(
            "serve_detach_total", help="Instance detachments."
        )
        self._g_members = self.metrics.gauge(
            "serve_members", help="Currently attached instances."
        )
        self._g_ingest_rate = self.metrics.gauge(
            "serve_ingest_rate_per_s",
            help="Samples ingested per second of service uptime.",
        )
        self._h_round = self.metrics.histogram(
            "serve_round_seconds", help="Wall time per lockstep round."
        )

        self.log.append(
            "start",
            data={
                "residue_source": self.residue_source,
                "ring_capacity": self.ring_capacity,
                "overflow": self.overflow,
                "detectors": list(self.detectors),
                "engine": self.engine,
                "metadata": self.metadata,
            },
        )

    # ------------------------------------------------------------------
    # membership
    @property
    def n_members(self) -> int:
        """Number of currently attached instances."""
        return len(self._ids)

    @property
    def members(self) -> tuple[int, ...]:
        """Attached instance ids, in row (attach) order."""
        return tuple(self._ids)

    def attach(self, instance_id: int | None = None, *, xhat0: np.ndarray | None = None) -> int:
        """Attach one plant instance; returns its id.

        Every batched core grows by one zero-state row; no other instance's
        detector state is touched.  ``instance_id`` defaults to the next
        unused id; ``xhat0`` seeds the observer's state estimate for this
        instance (observer mode only).
        """
        with self._lock:
            if instance_id is None:
                instance_id = self._next_id
            instance_id = int(instance_id)
            if instance_id < 0:
                raise ValidationError("instance ids must be non-negative")
            if instance_id in self._rows:
                raise ValidationError(f"instance {instance_id} is already attached")
            self._next_id = max(self._next_id, instance_id + 1)
            for core in self.detectors.values():
                core.grow(1)
            if self._observer is not None:
                self._observer.grow(1, xhat0)
            self._rows[instance_id] = len(self._ids)
            self._ids.append(instance_id)
            self._rings.append(RingBuffer(self.ring_capacity, self._sample_width))
            self._local_steps.append(0)
            for label in self._alarmed:
                self._alarmed[label] = np.append(self._alarmed[label], False)
            self._c_attach.inc()
            self._g_members.set(len(self._ids))
            self.log.append(
                "attach",
                instance=instance_id,
                data={
                    "xhat0": None if xhat0 is None else [float(v) for v in np.asarray(xhat0).reshape(-1)]
                },
            )
            return instance_id

    def detach(self, instance_id: int) -> None:
        """Detach one instance, discarding its pending samples.

        The batch state compacts row-wise: every remaining instance keeps its
        detector state (and its position in a later re-attach is a *fresh*
        instance — detector state is not parked).
        """
        with self._lock:
            row = self._rows.pop(int(instance_id), None)
            if row is None:
                raise ValidationError(f"instance {instance_id} is not attached")
            keep = np.array(
                [r for r in range(len(self._ids)) if r != row], dtype=int
            )
            for core in self.detectors.values():
                core.compact(keep)
            if self._observer is not None:
                self._observer.compact(keep)
            pending = len(self._rings[row])
            if pending:
                self._ready -= 1
            del self._ids[row]
            del self._rings[row]
            del self._local_steps[row]
            self._rows = {identity: r for r, identity in enumerate(self._ids)}
            for label in self._alarmed:
                self._alarmed[label] = self._alarmed[label][keep]
            self._c_detach.inc()
            self._g_members.set(len(self._ids))
            self.log.append(
                "detach", instance=int(instance_id), data={"pending_dropped": pending}
            )

    # ------------------------------------------------------------------
    # ingest and drain
    def ingest(
        self,
        instance_id: int,
        measurement: np.ndarray,
        residue: np.ndarray | None = None,
    ) -> bool:
        """Push one measurement sample for one instance.

        Returns True when the sample entered the instance's ring buffer.
        ``residue`` is required in ``"ingest"`` mode when any deployed
        detector consumes residues, and rejected in ``"observer"`` mode (the
        observer computes residues itself).  Under the ``"drop-newest"``
        overflow policy a sample arriving at a full buffer is counted dropped
        and False is returned; ``"drop-oldest"`` evicts the oldest pending
        sample instead; ``"error"`` raises.  Only samples that enter a buffer
        are logged, which is what makes recorded logs replayable.
        """
        with self._lock:
            row = self._rows.get(int(instance_id))
            if row is None:
                raise ValidationError(f"instance {instance_id} is not attached")
            measurement = np.asarray(measurement, dtype=float).reshape(-1)
            if measurement.size != self._n_outputs:
                raise ValidationError(
                    f"measurement has {measurement.size} channels, "
                    f"the plant has {self._n_outputs} outputs"
                )
            if self.residue_source == "observer":
                if residue is not None:
                    raise ValidationError(
                        "residues are computed by the observer; "
                        "pass measurements only (or use residue_source='ingest')"
                    )
                sample = measurement
            else:
                if residue is None:
                    if self._needs_residues:
                        raise ValidationError(
                            "residue_source='ingest' requires a residue with every "
                            "measurement while residue-consuming detectors are deployed"
                        )
                    residue = np.zeros(self._n_outputs)
                residue = np.asarray(residue, dtype=float).reshape(-1)
                if residue.size != self._n_outputs:
                    raise ValidationError(
                        f"residue has {residue.size} channels, "
                        f"the plant has {self._n_outputs} outputs"
                    )
                sample = np.concatenate([measurement, residue])

            ring = self._rings[row]
            if ring.is_full:
                if self.overflow == "error":
                    raise ValidationError(
                        f"instance {instance_id}'s ring buffer is full "
                        f"({self.ring_capacity} pending samples)"
                    )
                if self.overflow == "drop-newest":
                    self._c_dropped.inc(policy="drop-newest")
                    return False
                ring.drop_oldest()
                self._c_dropped.inc(policy="drop-oldest")
            if not len(ring):
                self._ready += 1
            ring.push(sample)
            self._c_ingested.inc()
            data = {"measurement": [float(v) for v in measurement]}
            if self.residue_source == "ingest":
                data["residue"] = [float(v) for v in sample[self._n_outputs :]]
            self.log.append("measurement", instance=int(instance_id), data=data)
            if self.auto_drain:
                self._drain_locked(None)
            return True

    def pending(self) -> dict[int, int]:
        """Pending (buffered, not yet drained) sample counts per instance id."""
        with self._lock:
            return {identity: len(ring) for identity, ring in zip(self._ids, self._rings)}

    def drain(self, max_rounds: int | None = None) -> int:
        """Process complete lockstep rounds; returns how many were drained.

        A round is complete when *every* attached instance has at least one
        pending sample — the service never steps a partial fleet, so the
        batched cores always see the full membership.
        """
        with self._lock:
            return self._drain_locked(max_rounds)

    def _drain_locked(self, max_rounds: int | None) -> int:
        # The readiness counter makes the lockstep check O(1) per ingest —
        # a per-call scan of all rings would make every round O(N^2).
        rounds = 0
        while self._ids and self._ready == len(self._ids):
            if max_rounds is not None and rounds >= max_rounds:
                break
            self._process_round()
            rounds += 1
        return rounds

    def _process_round(self) -> None:
        """Pop one sample per instance and step every detector once."""
        round_watch = Stopwatch()
        self.log.append("round", data={"members": list(self._ids)})
        block = np.stack([ring.pop() for ring in self._rings])
        self._ready -= sum(1 for ring in self._rings if not len(ring))
        measurements = block[:, : self._n_outputs]
        if self._observer is not None:
            residues = self._observer.step(measurements)
        else:
            residues = block[:, self._n_outputs :]
        steps = list(self._local_steps)
        round_alarms = self._engine.service_round(self.detectors, residues, measurements)
        for label in self.detectors:
            alarms = round_alarms[label]
            if not np.any(alarms):
                continue
            alarmed = self._alarmed[label]
            newly = alarms & ~alarmed
            self._alarmed[label] = alarmed | alarms
            events = [
                AlarmEvent(self._ids[r], steps[r], label, first=bool(newly[r]))
                for r in np.flatnonzero(alarms)
            ]
            for sink in self.sinks:
                sink.emit(events)
            for event in events:
                self.log.append(
                    "alarm",
                    instance=event.instance,
                    step=event.step,
                    data={"detector": label, "first": event.first},
                )
            self._c_alarms.inc(len(events), detector=label)
        for row in range(len(self._local_steps)):
            self._local_steps[row] += 1
        self._c_rounds.inc()
        self._h_round.observe(round_watch.elapsed())
        if self.scraper is not None:
            self._update_derived()
            self.scraper.maybe_scrape()

    # ------------------------------------------------------------------
    # hot swap
    def swap_thresholds(self, swaps: Mapping[str, object]) -> None:
        """Atomically rebind detector parameters without resetting state.

        ``swaps`` maps deployed labels to replacement parameters: a
        :class:`~repro.detectors.threshold.ThresholdVector` (or plain array)
        for threshold cores, a :class:`~repro.detectors.cusum.CusumDetector`
        for CUSUM cores, a :class:`~repro.detectors.chi_square.ChiSquareDetector`
        for chi-square cores, a structurally matching
        :class:`~repro.monitors.base.Monitor` for monitor cores.  Every swap
        is validated (including a dry-run rebind on a copy of the core)
        before *any* is applied, so a bad entry leaves the whole bank
        unchanged.  Per-instance detector state — threshold positions, CUSUM
        accumulators, dead-zone run lengths — survives the swap.
        """
        with self._lock:
            prepared = []
            for label, obj in swaps.items():
                label = str(label)
                core = self.detectors.get(label)
                if core is None:
                    raise ValidationError(
                        f"no detector labelled {label!r} is deployed "
                        f"(deployed: {', '.join(self.detectors)})"
                    )
                bound, payload = _swap_payload(label, core, obj)
                # Dry-run on a copy: rebind-time validation (e.g. monitor
                # structure checks) fails here, before anything is applied.
                copy.deepcopy(core).rebind(bound)
                prepared.append((label, core, bound, payload))
            for label, core, bound, payload in prepared:
                core.rebind(bound)
                self.log.append("swap", data={"label": label, **payload})
            self._c_swaps.inc(len(prepared))

    # ------------------------------------------------------------------
    # telemetry views — the historical plain-int counter attributes are
    # read-only properties over the registry, so existing callers (tests,
    # examples, benchmarks) keep working unchanged.
    @property
    def samples_ingested(self) -> int:
        """Samples accepted into ring buffers since start."""
        return int(self._c_ingested.total())

    @property
    def samples_dropped(self) -> int:
        """Samples dropped by the overflow policy since start."""
        return int(self._c_dropped.total())

    @property
    def rounds_processed(self) -> int:
        """Lockstep rounds processed since start."""
        return int(self._c_rounds.total())

    @property
    def alarms_emitted(self) -> int:
        """Alarm events emitted since start (all detectors)."""
        return int(self._c_alarms.total())

    @property
    def swaps_applied(self) -> int:
        """Hot swaps applied since start."""
        return int(self._c_swaps.total())

    def _update_derived(self) -> None:
        """Refresh gauges derived from counters (ingest rate)."""
        uptime = self._uptime.elapsed()
        if uptime > 0:
            self._g_ingest_rate.set(self._c_ingested.total() / uptime)

    def stats(self) -> dict:
        """Counters and membership snapshot of the running service.

        The counter values are a view over the service's metrics registry
        (see the ``metrics`` parameter); keys and meanings are unchanged
        from the pre-registry implementation.
        """
        with self._lock:
            self._update_derived()
            return {
                "members": list(self._ids),
                "pending": {
                    identity: len(ring)
                    for identity, ring in zip(self._ids, self._rings)
                },
                "samples_ingested": self.samples_ingested,
                "samples_dropped": self.samples_dropped,
                "rounds_processed": self.rounds_processed,
                "alarms_emitted": self.alarms_emitted,
                "swaps_applied": self.swaps_applied,
                "detectors": list(self.detectors),
                "residue_source": self.residue_source,
            }

    def close(self) -> None:
        """Close the event log and every sink (pending partial rounds are kept).

        A configured scraper gets one final unconditional scrape so the
        exposition file reflects the service's terminal counters.
        """
        with self._lock:
            if self.scraper is not None:
                self._update_derived()
                self.scraper.scrape()
            self.log.close()
            for sink in self.sinks:
                sink.close()

    def __enter__(self) -> "MonitorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["OVERFLOW_POLICIES", "RESIDUE_SOURCES", "MonitorService"]
