"""Unified, replayable service event log (one ordered JSONL stream).

A running :class:`~repro.serve.service.MonitorService` appends every externally
visible action to one :class:`ServiceLog`: measurements entering the ring
buffers, fleet rounds being drained, alarms firing, instances attaching and
detaching, thresholds hot-swapping.  Because the stream is *totally ordered*
(one monotone ``seq`` per event) and records exactly the inputs the service
acted on, :func:`~repro.serve.replay.replay` can re-run a recorded log and
reproduce the original alarm sequence bit for bit — including the timing of
drains relative to membership changes, which ``"round"`` events pin down.

The on-disk form is JSON Lines, one :class:`ServiceEvent` per line, with the
same crash-recovery contract as :meth:`repro.runtime.events.JSONLSink.read`:
a truncated trailing line is dropped, interior corruption raises.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path
from typing import Iterator

from repro.runtime.events import _stripped_lines
from repro.utils.validation import ValidationError

#: The event kinds a service emits, in the roles replay relies on.
EVENT_KINDS = (
    "start",  # service construction: configuration snapshot
    "attach",  # instance joined the fleet
    "detach",  # instance left (pending samples discarded)
    "swap",  # threshold hot-swap on one detector label
    "measurement",  # one sample entered an instance's ring buffer
    "round",  # one lockstep fleet round was drained
    "alarm",  # one detector alarm on one instance
)


_KINDS = frozenset(EVENT_KINDS)


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValidationError(
            f"unknown service event kind {kind!r}; expected one of {EVENT_KINDS}"
        )


class ServiceEvent(namedtuple("ServiceEvent", "seq kind instance step data")):
    """One entry of the service's ordered event stream.

    An immutable tuple of its five fields, so the log stores each entry as
    one tuple and :meth:`ServiceLog.append` builds it without a per-field
    Python constructor.

    Attributes
    ----------
    seq:
        Monotone position in the stream (0-based).
    kind:
        One of :data:`EVENT_KINDS`.
    instance:
        Instance id the event concerns (``None`` for fleet-wide events).
    step:
        The instance's local sample index, where meaningful (alarms).
    data:
        Kind-specific payload (JSON-compatible); ``{}`` when omitted.
    """

    __slots__ = ()

    def __new__(cls, seq, kind, instance=None, step=None, data=None):
        _check_kind(kind)
        return super().__new__(cls, seq, kind, instance, step, {} if data is None else data)

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "instance": self.instance,
            "step": self.step,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceEvent":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            instance=None if data.get("instance") is None else int(data["instance"]),
            step=None if data.get("step") is None else int(data["step"]),
            data=dict(data.get("data", {})),
        )


_tuple_new = tuple.__new__


class ServiceLog:
    """Ordered event stream of one service run, kept in memory and/or on disk.

    Parameters
    ----------
    path:
        Optional JSONL file the stream is appended to (created on first
        event).  ``None`` keeps the log in memory only — still replayable
        within the process.
    flush_every:
        Flush the OS buffer every this-many appended events (default 1, so a
        killed service leaves at most one partial line).  ``0`` defers
        flushing to :meth:`close`.
    """

    def __init__(self, path: str | Path | None = None, flush_every: int = 1):
        self.path = None if path is None else Path(path)
        self.flush_every = int(flush_every)
        if self.flush_every < 0:
            raise ValidationError("flush_every must be non-negative")
        self.events: list[ServiceEvent] = []
        self._handle = None
        self._since_flush = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ServiceEvent]:
        return iter(self.events)

    def append(
        self,
        kind: str,
        *,
        instance: int | None = None,
        step: int | None = None,
        data: dict | None = None,
    ) -> ServiceEvent:
        """Record one event; assigns the next sequence number and returns it."""
        _check_kind(kind)
        # The fields are already checked: build the tuple without __new__.
        event = _tuple_new(
            ServiceEvent,
            (len(self.events), kind, instance, step, {} if data is None else dict(data)),
        )
        self.events.append(event)
        if self.path is not None:
            if self._handle is None:
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(json.dumps(event.to_dict()) + "\n")
            self._since_flush += 1
            if self.flush_every and self._since_flush >= self.flush_every:
                self._handle.flush()
                self._since_flush = 0
        return event

    def close(self) -> None:
        """Flush and close the backing file (the in-memory stream stays)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ServiceLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def read(path: str | Path) -> list[ServiceEvent]:
        """Load a recorded JSONL event stream back into :class:`ServiceEvent` objects.

        A corrupt *trailing* line — the signature of a service killed
        mid-append — is dropped silently; corrupt interior lines raise.
        """
        events = []
        for position, line in enumerate(lines := _stripped_lines(path)):
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    break
                raise
            events.append(ServiceEvent.from_dict(data))
        return events


__all__ = ["EVENT_KINDS", "ServiceEvent", "ServiceLog"]
