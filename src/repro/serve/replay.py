"""Deterministic re-execution of a recorded service event log.

:func:`replay` drives a fresh :class:`~repro.serve.service.MonitorService`
through a recorded :class:`~repro.serve.log.ServiceLog` stream: attaches and
detaches fire in their original order, measurements re-enter the ring
buffers, threshold swaps are rebuilt from their logged payloads, and — the
part that makes replay exact rather than approximate — each recorded
``"round"`` event forces exactly one lockstep drain, so the batch
composition of every detector step matches the original run even around
membership changes.  The float64 pipeline is deterministic given identical
inputs and batch shapes, so the replayed alarm sequence is bit-identical to
the recorded one; :attr:`ReplayResult.matches` checks exactly that.

Typical uses: auditing a production alarm ("show me this alarm firing from
the raw samples"), regression-testing detector changes against recorded
traffic, and the round-trip test suite in ``tests/test_serve_log_replay.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.runtime.events import AlarmEvent, EventSink, InMemorySink
from repro.serve.log import ServiceEvent, ServiceLog
from repro.serve.service import SWAP_KINDS, MonitorService
from repro.utils.validation import ValidationError


@dataclass
class ReplayResult:
    """Outcome of one :func:`replay` run.

    Attributes
    ----------
    recorded:
        The alarm sequence the original run logged, in stream order.
    replayed:
        The alarm sequence the re-execution produced, in stream order.
    service:
        The replayed service (final state inspectable; still attached).
    events_processed:
        How many log events were consumed.
    """

    recorded: list[AlarmEvent] = field(default_factory=list)
    replayed: list[AlarmEvent] = field(default_factory=list)
    service: MonitorService | None = None
    events_processed: int = 0

    @property
    def matches(self) -> bool:
        """True when the replayed alarm sequence equals the recorded one exactly."""
        return self.recorded == self.replayed


def _load_events(source) -> Sequence[ServiceEvent]:
    if isinstance(source, ServiceLog):
        # Not cached on the log: a cached view would pin every rebuilt
        # event until the next append, which a closed log never gets.
        return source.snapshot()
    if isinstance(source, (str, Path)):
        return ServiceLog.read(source)
    events = list(source)
    for event in events:
        if not isinstance(event, ServiceEvent):
            raise ValidationError(
                "replay sources must be a ServiceLog, a log file path, or "
                f"ServiceEvent iterables; found a {type(event).__name__}"
            )
    return events


def _rebuild_service(
    events: Sequence[ServiceEvent],
    problem,
    sinks: Sequence[EventSink],
    detectors,
) -> MonitorService:
    """Reconstruct the original service from the log's ``"start"`` snapshot."""
    start = next((event for event in events if event.kind == "start"), None)
    config_data = None if start is None else start.data.get("metadata", {}).get("config")
    if config_data is None:
        raise ValidationError(
            "the log carries no service config to rebuild from (it was not "
            "recorded through run_service); pass the service to replay on "
            "explicitly"
        )
    from repro.api.config import ServiceConfig
    from repro.serve.engine import run_service

    config_data = dict(config_data)
    # Replay controls drain timing itself and must not re-log to disk.
    config_data["auto_drain"] = False
    config_data["log_path"] = None
    # Logs recorded while ServiceConfig still chose an engine carry these;
    # every engine ran the same round, so they select nothing.
    config_data.pop("engine", None)
    config_data.pop("engine_options", None)
    config = ServiceConfig.from_dict(config_data)
    return run_service(config, problem=problem, sinks=sinks, detectors=detectors)


def replay(
    source,
    *,
    service: MonitorService | None = None,
    problem=None,
    sinks: Sequence[EventSink] = (),
    detectors=None,
) -> ReplayResult:
    """Re-run a recorded service log and compare alarm sequences.

    Parameters
    ----------
    source:
        A :class:`~repro.serve.log.ServiceLog`, a path to its JSONL file, or
        an iterable of :class:`~repro.serve.log.ServiceEvent` objects.
    service:
        The service to drive.  ``None`` rebuilds one from the config snapshot
        in the log's ``"start"`` event (recorded by
        :func:`~repro.serve.engine.run_service`); a passed service must be
        freshly constructed with the same detector bank and is switched to
        manual draining.
    problem / sinks / detectors:
        Forwarded to :func:`~repro.serve.engine.run_service` when the service
        is rebuilt from the log.

    Returns
    -------
    ReplayResult
        Recorded vs replayed alarm sequences (``result.matches`` is the
        determinism check) plus the replayed service.
    """
    events = _load_events(source)
    if service is None:
        service = _rebuild_service(events, problem, sinks, detectors)
    else:
        service.auto_drain = False

    capture = InMemorySink()
    service.sinks.append(capture)
    recorded: list[AlarmEvent] = []
    processed = 0
    for event in events:
        processed += 1
        if event.kind == "start":
            continue
        if event.kind == "attach":
            xhat0 = event.data.get("xhat0")
            service.attach(
                event.instance,
                xhat0=None if xhat0 is None else np.asarray(xhat0, dtype=float),
            )
        elif event.kind == "detach":
            service.detach(event.instance)
        elif event.kind == "swap":
            payload = event.data
            kind = payload.get("detector_kind")
            if payload.get("replayable") is False:
                raise ValidationError(
                    f"swap event on {payload['label']!r} ({kind}) is not replayable: "
                    "monitor swaps have no plain-data form; replay up to the swap or "
                    "re-run with threshold/CUSUM/chi-square swaps only"
                )
            if kind not in SWAP_KINDS:
                raise ValidationError(f"unknown swap payload kind {kind!r}")
            service.swap_thresholds({payload["label"]: SWAP_KINDS[kind].from_dict(payload)})
        elif event.kind == "measurement":
            residue = event.data.get("residue")
            service.ingest(
                event.instance,
                np.asarray(event.data["measurement"], dtype=float),
                residue=None if residue is None else np.asarray(residue, dtype=float),
            )
        elif event.kind == "round":
            members = event.data.get("members")
            if members is not None and list(service.members) != [int(i) for i in members]:
                raise ValidationError(
                    f"membership diverged at event {event.seq}: the log drained "
                    f"{members}, the replayed service holds {list(service.members)}"
                )
            service.drain(max_rounds=1)
        elif event.kind == "alarm":
            recorded.append(
                AlarmEvent(
                    instance=int(event.instance),
                    step=int(event.step),
                    detector=str(event.data["detector"]),
                    first=bool(event.data.get("first", False)),
                )
            )
    service.sinks.remove(capture)
    return ReplayResult(
        recorded=recorded,
        replayed=list(capture.events),
        service=service,
        events_processed=processed,
    )


__all__ = ["ReplayResult", "replay"]
