"""Streaming fleet-monitoring runtime: deploy synthesized detectors online.

The synthesis pipeline (:mod:`repro.api`) produces detectors; this package
*operates* them.  It provides:

* online stateful wrappers (:class:`OnlineResidueDetector`,
  :class:`OnlineCusum`, :class:`OnlineChiSquare`, :class:`OnlineMonitor`)
  with a ``step(y_k) -> alarm`` API, trace-equivalent to the offline
  ``evaluate`` paths;
* their fleet-wide vectorized cores (:mod:`repro.runtime.batch`), all state
  shaped ``(N, ...)``;
* the :class:`FleetSimulator` — N closed-loop instances advanced step by
  step in batched numpy, with per-instance noise streams and a scheduled
  attack injector (:class:`ScheduledAttack`);
* pluggable execution engines (:class:`LegacyEngine`, :class:`FusedEngine`
  from :mod:`repro.runtime.kernel`, selected by ``engine="legacy"/"fused"``
  through :data:`repro.registry.ENGINES`) — stepper factories for the one
  stepping loop; the fused stepper collapses each fleet step into one block
  GEMM while staying bit-identical in float64.  Detectors then run one
  vectorized pass per core (:meth:`BatchDetector.run`) over the recorded
  residues;
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
from repro.runtime.online import (
    OnlineChiSquare,
    OnlineCusum,
    OnlineDetector,
    OnlineMonitor,
    OnlineResidueDetector,
    make_online,
)
from repro.runtime.report import DetectorFleetStats, FleetReport
from repro.runtime.engine import run_fleet
from repro.runtime.kernel import FusedEngine, LegacyEngine

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
    "LegacyEngine",
    "JSONLSink",
    "OnlineChiSquare",
    "OnlineCusum",
    "OnlineDetector",
    "OnlineMonitor",
    "OnlineResidueDetector",
    "ScheduledAttack",
    "batch_simulate",
    "make_batched",
    "make_online",
    "run_fleet",
]
