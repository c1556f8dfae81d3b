"""Unified, replayable service event log (one ordered JSONL stream).

A running :class:`~repro.serve.service.MonitorService` appends every externally
visible action to one :class:`ServiceLog`: measurements entering the ring
buffers, fleet rounds being drained, alarms firing, instances attaching and
detaching, thresholds hot-swapping.  Because the stream is *totally ordered*
(one monotone ``seq`` per event) and records exactly the inputs the service
acted on, :func:`~repro.serve.replay.replay` can re-run a recorded log and
reproduce the original alarm sequence bit for bit — including the timing of
drains relative to membership changes, which ``"round"`` events pin down.

In memory the log is columnar.  An ingested sample, one per entry for
nearly all of a long run, arrives through :meth:`ServiceLog.append_sample`
as the floats the service validated; it keeps them in one flat
``array("d")``, its instance id in an int64 array and its kind and width in
one code byte, so logging a sample leaves no Python object behind for the
cyclic garbage collector to walk again and again.  Every event recorded
through :meth:`ServiceLog.append` (start, attach, detach, swap, round,
alarm, and any measurement payload handed in as a dict) is kept whole as a
:class:`ServiceEvent` tuple.  :attr:`ServiceLog.events` rebuilds the full
stream on first read and caches it until the next append.

The on-disk form is JSON Lines, one :class:`ServiceEvent` per line, with the
same crash-recovery contract as :meth:`repro.runtime.events.JSONLSink.read`:
a truncated trailing line is dropped, interior corruption raises.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from collections.abc import Sequence
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

    An immutable tuple of its five fields, so :meth:`ServiceLog.append`
    builds it without a per-field Python constructor.

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

# Entry codes, one byte per event.  0: the event is kept whole in the tuple
# list.  1 + w: a measurement of w floats held in the columns.  128 + w: a
# measurement of w floats followed by a residue of w floats.  The widths
# place every column entry in the flat float column, so no offsets are
# stored.
_WHOLE = 0
_RESIDUE = 128
_MAX_WIDTH = 126
_INSTANCE_MAX = 2**63 - 1  # the instance column is int64


def sample_data(values: list, with_residue: bool) -> dict:
    """The ``"measurement"`` payload of one sample's floats.

    ``values`` holds the measurement, then, ``with_residue``, a residue of
    the same width.
    """
    if not with_residue:
        return {"measurement": values}
    width = len(values) // 2
    return {"measurement": values[:width], "residue": values[width:]}


class EventView(Sequence):
    """Read-only sequence of a log's events, in stream order.

    Compares equal to any list or tuple of the same events, as the plain
    event list it stands in for did; slicing returns a list.
    """

    __slots__ = ("_events",)

    def __init__(self, events: tuple):
        self._events = events

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._events[index])
        return self._events[index]

    def __iter__(self) -> Iterator[ServiceEvent]:
        return iter(self._events)

    def __eq__(self, other) -> bool:
        if isinstance(other, EventView):
            return self._events == other._events
        if isinstance(other, (list, tuple)):
            return self._events == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"EventView({list(self._events)!r})"


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
        self._codes = bytearray()  # one entry code per event
        self._whole: list[ServiceEvent] = []  # the events kept whole, in order
        self._instances = array("q")  # one per column entry
        self._floats = array("d")  # the column entries' floats, back to back
        self._view: EventView | None = None
        self._handle = None
        self._since_flush = 0

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[ServiceEvent]:
        # A closed log is never appended to again, so nothing would release a cache.
        return iter(self.snapshot())

    @property
    def events(self) -> EventView:
        """Every logged event in stream order, built on first read after an append."""
        if self._view is None:
            self._view = EventView(self._rebuild())
        return self._view

    def snapshot(self) -> tuple:
        """Every logged event in stream order, without caching them on the log.

        Returns the cached view's events when a read already built them.
        """
        return self._rebuild() if self._view is None else self._view._events

    def _rebuild(self) -> tuple:
        floats = self._floats.tolist()
        instances = iter(self._instances.tolist())
        whole = iter(self._whole)
        events = []
        start = 0
        for seq, code in enumerate(self._codes):
            if code == _WHOLE:
                events.append(next(whole))
                continue
            if code < _RESIDUE:
                end = start + code - 1
                data = {"measurement": floats[start:end]}
            else:
                cut = start + code - _RESIDUE
                end = cut + code - _RESIDUE
                data = {"measurement": floats[start:cut], "residue": floats[cut:end]}
            start = end
            events.append(
                _tuple_new(ServiceEvent, (seq, "measurement", next(instances), None, data))
            )
        return tuple(events)

    def append(
        self,
        kind: str,
        *,
        instance: int | None = None,
        step: int | None = None,
        data: dict | None = None,
    ) -> ServiceEvent:
        """Record one event; assigns the next sequence number and returns it.

        The event is kept whole, with a copy of ``data``.  Ingested samples
        go through :meth:`append_sample` instead.
        """
        _check_kind(kind)
        # The kind is checked: build the tuple without __new__.
        event = _tuple_new(
            ServiceEvent,
            (len(self._codes), kind, instance, step, {} if data is None else dict(data)),
        )
        self._whole.append(event)
        self._codes.append(_WHOLE)
        self._view = None
        if self.path is not None:
            self._write(event.to_dict())
        return event

    def append_sample(self, instance: int, values: list, with_residue: bool) -> None:
        """Record one ingested sample as a ``"measurement"`` event.

        ``values`` are the sample's validated Python floats: the measurement,
        then, ``with_residue``, a residue of the same width.  They go straight
        into the columns (an instance id or width the columns cannot hold
        keeps the event whole), and a file-backed log writes the line
        :meth:`append` writes for the same event.
        """
        width = len(values) // 2 if with_residue else len(values)
        if width > _MAX_WIDTH or instance > _INSTANCE_MAX:
            self.append("measurement", instance=instance, data=sample_data(values, with_residue))
            return
        self._floats.fromlist(values)
        self._instances.append(instance)
        self._codes.append(_RESIDUE + width if with_residue else 1 + width)
        self._view = None
        if self.path is not None:
            seq = len(self._codes) - 1  # only the file needs it
            record = {"seq": seq, "kind": "measurement", "instance": instance, "step": None}
            record["data"] = sample_data(values, with_residue)
            self._write(record)

    def _write(self, record: dict) -> None:
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(record) + "\n")
        self._since_flush += 1
        if self.flush_every and self._since_flush >= self.flush_every:
            self._handle.flush()
            self._since_flush = 0

    def close(self) -> None:
        """Flush and close the backing file, drop the cached :attr:`events` (the stream stays)."""
        self._view = None
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


__all__ = ["EVENT_KINDS", "EventView", "ServiceEvent", "ServiceLog"]
