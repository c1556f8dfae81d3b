"""Alarm events and pluggable event sinks for the fleet runtime.

Every alarm a deployed detector raises is an :class:`AlarmEvent` — which
fleet instance, at which sampling instance, from which detector.  The
:class:`~repro.runtime.fleet.FleetSimulator` pushes batches of events into
:class:`EventSink` objects, one batch per (step, detector) in step order,
replayed once the whole horizon has been stepped; the
:class:`~repro.serve.service.MonitorService` pushes one batch per detector
as each lockstep round completes.  Ship your own sink to forward alarms to
a message bus, a metrics system, or an incident pipeline.

The sink contract: ``emit`` receives a ``Sequence[AlarmEvent]``.  Both
fleet runs and the service pass an :class:`AlarmBatch` — an immutable
sequence over array columns whose ``len()`` is O(1) and whose indexing and
iteration build the :class:`AlarmEvent` objects on demand.  A sink written
against ``Sequence[AlarmEvent]`` needs no change: iterating a batch yields
real :class:`AlarmEvent` objects, and a plain list of events is accepted
by every shipped sink too.

Two sinks ship with the library: :class:`InMemorySink` (keeps the batches
and builds its event list on first read, with small query helpers for tests
and reports) and :class:`JSONLSink` (appends one JSON object per event to a
file, the standard interchange form for offline analysis).
"""

from __future__ import annotations

import abc
import json
import operator
from collections import deque
from dataclasses import asdict, dataclass, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.utils.jsonl import JsonlWriter, read_jsonl
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class AlarmEvent:
    """One alarm raised by one detector on one fleet instance.

    Attributes
    ----------
    instance:
        Fleet instance id (``0 .. N-1``).
    step:
        0-based sampling instance at which the alarm fired.
    detector:
        Label of the detector that raised it.
    first:
        True when this is the instance's first alarm from this detector
        (useful for time-to-alarm analysis without replaying the stream).
    """

    instance: int
    step: int
    detector: str
    first: bool = False

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        return asdict(self)


class AlarmBatch(Sequence[AlarmEvent]):
    """One detector's alarms at one step, held as array columns.

    An immutable ``Sequence[AlarmEvent]``: ``len()`` is O(1), and indexing
    or iteration builds the :class:`AlarmEvent` objects on demand, so a run
    whose sinks only count or store batches never pays for per-event
    objects.  The columns are read-only: a fleet run's batches are slices of
    its :class:`~repro.runtime.report.AlarmTally` alarm index, made read-only
    once per detector and sliced without per-batch checks.

    Attributes
    ----------
    detector:
        Label of the detector that raised every alarm in the batch.
    instance / step / first:
        Equal-length columns: fleet instance ids (ascending), the sampling
        instance of each alarm, and the first-alarm flags.
    """

    __slots__ = ("detector", "instance", "step", "first")

    def __init__(
        self,
        detector: str,
        instance: np.ndarray,
        step: np.ndarray,
        first: np.ndarray,
    ) -> None:
        self.detector = detector
        self.instance = _read_only(instance, np.int64)
        self.step = _read_only(step, np.int64)
        self.first = _read_only(first, bool)
        if not self.instance.shape == self.step.shape == self.first.shape:
            raise ValidationError("AlarmBatch columns must have equal lengths")

    @classmethod
    def _of_columns(cls, detector, instance, step, first) -> "AlarmBatch":
        """A batch over read-only, equal-length 1-D int64/int64/bool columns, unchecked."""
        batch = object.__new__(cls)
        batch.detector = detector
        batch.instance = instance
        batch.step = step
        batch.first = first
        return batch

    def __len__(self) -> int:
        return self.instance.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AlarmBatch._of_columns(
                self.detector, self.instance[index], self.step[index], self.first[index]
            )
        index = operator.index(index)
        return AlarmEvent(
            int(self.instance[index]),
            int(self.step[index]),
            self.detector,
            bool(self.first[index]),
        )

    def __iter__(self) -> Iterator[AlarmEvent]:
        return map(
            AlarmEvent,
            self.instance.tolist(),
            self.step.tolist(),
            repeat(self.detector),
            self.first.tolist(),
        )


def _read_only(column: np.ndarray, dtype) -> np.ndarray:
    """A read-only 1-D ``dtype`` view of ``column`` (a copy only to convert)."""
    view = np.asarray(column, dtype=dtype).view()
    if view.ndim != 1:
        raise ValidationError("AlarmBatch columns must be one-dimensional")
    view.flags.writeable = False
    return view


class EventSink(abc.ABC):
    """Receives alarm-event batches from a running fleet."""

    @abc.abstractmethod
    def emit(self, events: Sequence[AlarmEvent]) -> None:
        """Consume one batch of events (all from the same fleet step).

        ``events`` may be an :class:`AlarmBatch`: ``len(events)`` is O(1)
        and iterating it builds the events.
        """

    def close(self) -> None:
        """Flush and release any underlying resources."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InMemorySink(EventSink):
    """Collects every event in memory (the default sink for tests and reports).

    ``emit`` only stores the incoming batch and counts it in O(1); the
    :class:`AlarmEvent` objects are built when :attr:`events` is first read
    (and again only for batches emitted since), so a run whose events are
    never read never builds them.

    Parameters
    ----------
    maxlen:
        Optional retention cap.  ``None`` (the default) keeps every event in
        a plain list; an integer keeps only the most recent ``maxlen`` events
        in a bounded deque, so an always-on service cannot grow the sink
        without bound.  :attr:`evicted` counts events that aged out.
    """

    def __init__(self, maxlen: int | None = None) -> None:
        self.maxlen = None if maxlen is None else int(maxlen)
        if self.maxlen is not None and self.maxlen <= 0:
            raise ValidationError("maxlen must be positive (or None for unbounded)")
        self._events: list[AlarmEvent] | deque[AlarmEvent] = (
            [] if self.maxlen is None else deque(maxlen=self.maxlen)
        )
        # Batches emitted since the last read of ``events``, oldest first.
        self._pending: deque[Sequence[AlarmEvent]] = deque()
        self._pending_count = 0
        self.evicted = 0

    @property
    def events(self) -> list[AlarmEvent] | deque[AlarmEvent]:
        """The retained events, oldest first (a deque when ``maxlen`` is set)."""
        if self._pending:
            self._events.extend(chain.from_iterable(self._pending))
            self._pending.clear()
            self._pending_count = 0
        return self._events

    def emit(self, events: Sequence[AlarmEvent]) -> None:
        if not isinstance(events, AlarmBatch):
            events = list(events)
        if not events:
            return
        if self.maxlen is not None:
            overflow = len(self) + len(events) - self.maxlen
            if overflow > 0:
                self.evicted += overflow
        self._pending.append(events)
        self._pending_count += len(events)
        if self.maxlen is not None:
            # Drop batches the newer ones already push out of the deque.
            while self._pending_count - len(self._pending[0]) >= self.maxlen:
                self._pending_count -= len(self._pending.popleft())

    def __len__(self) -> int:
        held = len(self._events) + self._pending_count
        return held if self.maxlen is None else min(held, self.maxlen)

    def __iter__(self) -> Iterable[AlarmEvent]:
        return iter(self.events)

    def by_detector(self, label: str) -> list[AlarmEvent]:
        """All events raised by the detector with the given label."""
        return [event for event in self.events if event.detector == label]

    def by_instance(self, instance: int) -> list[AlarmEvent]:
        """All events raised on one fleet instance."""
        return [event for event in self.events if event.instance == instance]

    def first_alarms(self) -> dict[tuple[str, int], int]:
        """Mapping ``(detector, instance) -> step`` of each first alarm."""
        return {
            (event.detector, event.instance): event.step
            for event in self.events
            if event.first
        }


class JSONLSink(EventSink):
    """Appends one JSON object per event to a file (JSON Lines format).

    Parameters
    ----------
    path:
        The event-log file (appended to, created on first event).
    flush_every:
        Flush the OS buffer every this-many ``emit`` batches (default 1:
        after every batch), so a killed long-running service leaves a
        readable log that is at most ``flush_every`` batches behind.  ``0``
        defers flushing to :meth:`close` (the pre-flush behaviour, fastest
        for short offline runs).
    """

    def __init__(self, path: str | Path, flush_every: int = 1):
        self.path = Path(path)
        self._journal = JsonlWriter(self.path, flush_every)

    def emit(self, events: Sequence[AlarmEvent]) -> None:
        if events:
            self._journal.append("".join(json.dumps(e.to_dict()) + "\n" for e in events))

    def close(self) -> None:
        self._journal.close()

    @staticmethod
    def read(path: str | Path) -> list[AlarmEvent]:
        """Load a JSONL event file back into :class:`AlarmEvent` objects.

        Each record comes back as the :class:`AlarmEvent` class, or the
        direct subclass such as a watcher's ``RegressionEvent``, whose
        fields it carries.
        """
        by_fields = {
            frozenset(field.name for field in fields(cls)): cls
            for cls in (AlarmEvent, *AlarmEvent.__subclasses__())
        }
        return [by_fields.get(frozenset(data), AlarmEvent)(**data) for data in read_jsonl(path)]


__all__ = ["AlarmBatch", "AlarmEvent", "EventSink", "InMemorySink", "JSONLSink"]
