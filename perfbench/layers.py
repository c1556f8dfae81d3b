"""Timing proxies that split a traced call into layers from the outside.

Nothing here changes the library.  Each proxy is a public extension point
the library already accepts, wrapped around the real implementation:

* :class:`TimedBackend` goes through ``run_pipeline(backend=...)`` and
  records one ``bench.solve`` span per Algorithm 1 solve;
* :class:`TimedLog` is a ``ServiceLog`` subclass for
  ``MonitorService(log=...)`` that sums the time spent appending events;
* :class:`TimedSink` wraps an event sink and records one ``bench.sink`` span
  per emitted batch.

Fine-grained calls (one log append per sample) are summed with a
``Stopwatch`` instead of one span each, so tracing does not dominate the
call it measures.  :func:`span_totals` folds the spans recorded under one
root into per-name wall-time totals and counts.
"""

from __future__ import annotations

from collections import defaultdict

from repro.falsification.base import AttackBackend, BackendSession
from repro.obs.clock import Stopwatch
from repro.obs.trace import Tracer
from repro.runtime.events import EventSink
from repro.serve.log import ServiceLog


class _TimedSession(BackendSession):
    """Backend session whose every ``solve`` lands in a ``bench.solve`` span."""

    def __init__(self, backend: "TimedBackend", inner: BackendSession):
        super().__init__(backend, inner.encoding)
        self._inner = inner

    def solve(self, threshold=None, time_budget=None):
        with self.backend.tracer.span("bench.solve"):
            return self._inner.solve(threshold, time_budget=time_budget)


class TimedBackend(AttackBackend):
    """Attack-synthesis backend proxy timing each solve of ``inner``."""

    def __init__(self, inner: AttackBackend, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def solve(self, encoding, time_budget=None):
        with self.tracer.span("bench.solve"):
            return self.inner.solve(encoding, time_budget=time_budget)

    def open_session(self, encoding) -> BackendSession:
        return _TimedSession(self, self.inner.open_session(encoding))


class TimedLog(ServiceLog):
    """In-memory service log that sums the wall time of its appends."""

    def __init__(self):
        super().__init__()
        self.seconds = 0.0

    def append(self, kind, *, instance=None, step=None, data=None):
        watch = Stopwatch()
        event = super().append(kind, instance=instance, step=step, data=data)
        self.seconds += watch.elapsed()
        return event


class TimedSink(EventSink):
    """Forwards alarm batches to ``inner``, one ``bench.sink`` span per batch."""

    def __init__(self, inner: EventSink, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.events = 0

    def emit(self, events) -> None:
        with self.tracer.span("bench.sink"):
            self.inner.emit(events)
        self.events += len(events)

    def close(self) -> None:
        self.inner.close()


def span_totals(tracer: Tracer, root) -> dict[str, tuple[float, int]]:
    """``name -> (summed wall seconds, count)`` over the spans below ``root``.

    Spans are recorded at close, so every descendant of ``root`` precedes it
    in ``tracer.records``; the parent chain decides membership.
    """
    by_id = {record.span_id: record for record in tracer.records}
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for record in tracer.records:
        cursor = record
        while cursor.parent_id is not None and cursor.parent_id != root.span_id:
            cursor = by_id[cursor.parent_id]
        if cursor.parent_id == root.span_id:
            entry = totals[record.name]
            entry[0] += record.wall_s
            entry[1] += 1
    return {name: (wall, count) for name, (wall, count) in totals.items()}


__all__ = ["TimedBackend", "TimedLog", "TimedSink", "span_totals"]
