"""Streaming fleet-monitoring runtime: deploy synthesized detectors online.

The synthesis pipeline (:mod:`repro.api`) produces detectors; this package
*operates* them.  It provides:

* one online stateful wrapper, :class:`OnlineDetector`, with a
  ``step(y_k) -> alarm`` API for any detector or plant monitor,
  trace-equivalent to the offline ``evaluate`` paths (the registry's
  ``online-*`` detector names resolve to the offline classes);
* the fleet-wide vectorized cores it wraps (:mod:`repro.runtime.batch`),
  all state shaped ``(N, ...)``, built by the one dispatch
  :func:`make_batched`;
* the :class:`FleetSimulator` — N closed-loop instances advanced step by
  step in batched numpy, with per-instance noise streams and a scheduled
  attack injector (:class:`ScheduledAttack`);
* one execution engine (:class:`FusedEngine` from
  :mod:`repro.runtime.kernel`, ``engine="fused"`` in
  :data:`repro.registry.ENGINES`) — the stepper factory of the one stepping
  loop; the fused stepper collapses each fleet step into one float64 block
  GEMM while staying bit-identical to the reference stepper, which
  is its probe fallback and the test suite's oracle.  Detectors then run
  one vectorized pass per core (:meth:`BatchDetector.run`) over the
  recorded residues;
* an event layer (:class:`AlarmEvent`, the column-backed
  :class:`AlarmBatch`, :class:`InMemorySink`, :class:`JSONLSink`) and the
  :class:`FleetReport` aggregate;
* the config-driven :func:`run_fleet` entry point (see
  :class:`repro.api.RuntimeConfig`).
"""

from repro.runtime.batch import (
    BatchChiSquare,
    BatchCusum,
    BatchDetector,
    BatchMonitor,
    BatchThresholdDetector,
    make_batched,
)
from repro.runtime.events import (
    AlarmBatch,
    AlarmEvent,
    EventSink,
    InMemorySink,
    JSONLSink,
)
from repro.runtime.fleet import FleetSimulator, FleetTrace, ScheduledAttack, batch_simulate
from repro.runtime.online import OnlineDetector
from repro.runtime.report import DetectorFleetStats, FleetReport
from repro.runtime.engine import run_fleet
from repro.runtime.kernel import FusedEngine

__all__ = [
    "AlarmBatch",
    "AlarmEvent",
    "BatchChiSquare",
    "BatchCusum",
    "BatchDetector",
    "BatchMonitor",
    "BatchThresholdDetector",
    "DetectorFleetStats",
    "EventSink",
    "FleetReport",
    "FleetSimulator",
    "FleetTrace",
    "FusedEngine",
    "InMemorySink",
    "JSONLSink",
    "OnlineDetector",
    "ScheduledAttack",
    "batch_simulate",
    "make_batched",
    "run_fleet",
]
