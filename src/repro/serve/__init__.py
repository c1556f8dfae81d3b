"""Always-on fleet serving: streaming ingest, dynamic membership, hot swaps.

Where :mod:`repro.runtime` *simulates* a monitored fleet to a fixed horizon,
:mod:`repro.serve` *operates* one indefinitely:

* :class:`~repro.serve.service.MonitorService` — the service itself:
  ring-buffer ingest draining lockstep rounds through the batched
  detector cores, ``attach``/``detach`` while running, and atomic
  ``swap_thresholds`` that preserves per-instance detector state;
* :class:`~repro.serve.observer.BatchObserver` — computes residues from raw
  measurements with the fleet simulator's exact estimator arithmetic;
* :class:`~repro.serve.ring.RingBuffer` — the fixed-capacity ingest queue,
  one row per attached instance;
* :class:`~repro.serve.backpressure.BufferedSink` — bounded, policy-driven
  buffering in front of slow alarm consumers;
* :class:`~repro.serve.log.ServiceLog` / :func:`~repro.serve.replay.replay`
  — the unified replayable event stream and the driver that re-runs it
  deterministically;
* :func:`~repro.serve.engine.run_service` — config-driven construction from
  a :class:`~repro.api.config.ServiceConfig`.

See ``docs/serving.md`` for the full lifecycle and semantics.
"""

from repro.serve.backpressure import POLICIES, BufferedSink
from repro.serve.engine import run_service
from repro.serve.log import EVENT_KINDS, ServiceEvent, ServiceLog
from repro.serve.observer import BatchObserver
from repro.serve.replay import ReplayResult, replay
from repro.serve.ring import RingBuffer
from repro.serve.service import (
    OVERFLOW_POLICIES,
    RESIDUE_SOURCES,
    MonitorService,
)

__all__ = [
    "BatchObserver",
    "BufferedSink",
    "EVENT_KINDS",
    "MonitorService",
    "OVERFLOW_POLICIES",
    "POLICIES",
    "RESIDUE_SOURCES",
    "ReplayResult",
    "RingBuffer",
    "ServiceEvent",
    "ServiceLog",
    "replay",
    "run_service",
]
