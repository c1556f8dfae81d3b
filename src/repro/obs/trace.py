"""Nested spans: where does a pipeline, fleet run or serve round spend time.

A :class:`Tracer` records a tree of *spans* — named ``with`` blocks carrying
wall-clock and CPU durations plus string labels.  Spans nest naturally
(``with span("pipeline.synthesis"): ... with span("synthesis.solve"): ...``),
and each completed span is appended to an in-memory list and, when a path is
configured, to a JSONL stream under the library's crash-recovery contract
(:mod:`repro.utils.jsonl`).

Two text renderings answer the common questions directly:

* :meth:`Tracer.tree` — the call tree with per-span wall/CPU durations, for
  "where did this one run spend its time";
* :meth:`Tracer.flamegraph` — folded-stack lines (``a;b;c <wall_s> <count>``,
  the format flamegraph tooling consumes), aggregated over repeated paths,
  for "what dominates across many rounds".

Like metrics, tracing is opt-in: the module-level default tracer starts
disabled (enable with :func:`enable_tracing` or by pointing the
``REPRO_TRACE`` environment variable at an output path), and a disabled
:func:`span` yields without recording anything.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.jsonl import JsonlWriter, read_jsonl


@dataclass
class SpanRecord:
    """One completed span of a trace.

    Attributes
    ----------
    span_id / parent_id:
        Position in the span tree (ids are assigned at span *open*, so a
        parent's id is always smaller than its children's; ``parent_id`` is
        ``None`` for root spans).
    name:
        The span's dotted name (``"pipeline.synthesis"``).
    labels:
        String labels attached at open (algorithm, backend, ...).
    depth:
        Nesting depth (0 for roots).
    start_s:
        Wall-clock offset from the tracer's epoch at open.
    wall_s / cpu_s:
        Wall-clock and process-CPU duration of the block.
    """

    span_id: int
    parent_id: int | None
    name: str
    labels: dict = field(default_factory=dict)
    depth: int = 0
    start_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "labels": dict(self.labels),
            "depth": self.depth,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            span_id=int(data["span_id"]),
            parent_id=None if data.get("parent_id") is None else int(data["parent_id"]),
            name=str(data["name"]),
            labels=dict(data.get("labels", {})),
            depth=int(data.get("depth", 0)),
            start_s=float(data.get("start_s", 0.0)),
            wall_s=float(data.get("wall_s", 0.0)),
            cpu_s=float(data.get("cpu_s", 0.0)),
        )


class Tracer:
    """Records nested spans, in memory and optionally as JSONL.

    Parameters
    ----------
    enabled:
        Whether :meth:`span` records anything; a disabled tracer's span is a
        bare ``yield``.
    path:
        Optional JSONL file completed spans are appended to (created on the
        first span).
    flush_every:
        Flush the OS buffer every this-many appended spans (default 1 — a
        killed process leaves at most one partial line); ``0`` defers
        flushing to :meth:`close`.

    The span stack is thread-local: concurrent threads each build their own
    branch of the tree (records from all threads land in one ordered list).
    A worker thread hangs its branch under a span open on the thread that
    started it with :meth:`adopt`.  Sibling spans from such workers overlap
    in time, so their wall times can sum past their parent's; ``cpu_s`` is
    process CPU time, which counts every thread's work during the span.
    Records are appended at span *close*, so a child precedes its parent in
    :attr:`records` — :meth:`tree` reorders via ``parent_id``.
    """

    def __init__(self, enabled: bool = True, path: str | Path | None = None, flush_every: int = 1):
        self.enabled = bool(enabled)
        self._journal = JsonlWriter(path, flush_every)
        self.records: list[SpanRecord] = []
        self._epoch = time.perf_counter()
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def enable(self) -> "Tracer":
        """Turn span recording on; returns the tracer for chaining."""
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        """Turn span recording off (recorded spans stay)."""
        self.enabled = False
        return self

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> SpanRecord | None:
        """The innermost span open on the calling thread (``None`` when none)."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def adopt(self, parent: SpanRecord | None):
        """Open this thread's next spans as children of ``parent``.

        ``parent`` is a span still open on another thread, taken there with
        :meth:`current`: a worker thread starts with an empty span stack, so
        without this its spans would be roots of their own.  ``None`` (no
        span open, or tracing disabled) adopts nothing.
        """
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def span(self, name: str, **labels):
        """Record one named block; yields the :class:`SpanRecord` (or ``None``).

        Labels are coerced to strings (they feed metric-style grouping, not
        arbitrary payloads).  The record's durations are filled in when the
        block exits, exceptions included — a span that raises still lands in
        the trace with its time.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        record = SpanRecord(
            span_id=span_id,
            parent_id=None if parent is None else parent.span_id,
            name=str(name),
            labels={str(k): str(v) for k, v in labels.items()},
            depth=0 if parent is None else parent.depth + 1,
            start_s=time.perf_counter() - self._epoch,
        )
        stack.append(record)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield record
        finally:
            record.wall_s = time.perf_counter() - wall0
            record.cpu_s = time.process_time() - cpu0
            stack.pop()
            with self._lock:
                self.records.append(record)
                if self._journal.path is not None:
                    self._journal.append(json.dumps(record.to_dict()) + "\n")

    @property
    def path(self) -> Path | None:
        """The JSONL file completed spans are appended to (``None``: memory only)."""
        return self._journal.path

    @path.setter
    def path(self, path: str | Path | None) -> None:
        self.close()
        self._journal.path = None if path is None else Path(path)

    def close(self) -> None:
        """Flush and close the backing file (in-memory records stay)."""
        self._journal.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear(self) -> None:
        """Drop every in-memory record (the JSONL file is untouched)."""
        self.records.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def read(path: str | Path) -> list[SpanRecord]:
        """Load a recorded JSONL trace back into :class:`SpanRecord` objects.

        A torn trailing line is dropped; interior damage raises
        :class:`json.JSONDecodeError`.
        """
        return [SpanRecord.from_dict(data) for data in read_jsonl(path)]

    # ------------------------------------------------------------------
    def _children(self) -> dict[int | None, list[SpanRecord]]:
        children: dict[int | None, list[SpanRecord]] = {}
        for record in self.records:
            children.setdefault(record.parent_id, []).append(record)
        for siblings in children.values():
            siblings.sort(key=lambda r: r.span_id)
        return children

    def tree(self) -> str:
        """The span tree as indented text with per-span wall/CPU durations.

        Durations are inclusive.  Children that ran concurrently (worker
        threads under an adopted parent) can together show more wall time
        than their parent.
        """
        children = self._children()
        lines = ["span tree (wall s / cpu s)"]

        def render(record: SpanRecord) -> None:
            labels = ""
            if record.labels:
                labels = " {" + ", ".join(f"{k}={v}" for k, v in sorted(record.labels.items())) + "}"
            lines.append(
                f"{'  ' * record.depth}- {record.name}{labels}: "
                f"{record.wall_s:.4f}s wall, {record.cpu_s:.4f}s cpu"
            )
            for child in children.get(record.span_id, []):
                render(child)

        for root in children.get(None, []):
            render(root)
        return "\n".join(lines)

    def flamegraph(self) -> str:
        """Folded-stack lines: ``root;child;leaf <total_wall_s> <count>``.

        Repeated paths aggregate (every CEGIS round's ``synthesis.solve``
        folds into one line), and the output is sorted by descending total
        wall time — feed it to standard flamegraph tooling or read the top
        lines directly.  Totals are inclusive and concurrent paths are summed,
        so a child path can total more wall time than its parent.
        """
        by_id = {record.span_id: record for record in self.records}
        totals: dict[str, list[float]] = {}
        for record in self.records:
            parts = [record.name]
            cursor = record
            while cursor.parent_id is not None:
                cursor = by_id[cursor.parent_id]
                parts.append(cursor.name)
            path = ";".join(reversed(parts))
            entry = totals.setdefault(path, [0.0, 0])
            entry[0] += record.wall_s
            entry[1] += 1
        lines = [
            f"{path} {wall:.6f} {count}"
            for path, (wall, count) in sorted(
                totals.items(), key=lambda item: -item[1][0]
            )
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The process-wide default tracer.
# ----------------------------------------------------------------------
def _env_tracer() -> Tracer:
    path = os.environ.get("REPRO_TRACE", "").strip()
    return Tracer(enabled=bool(path), path=path or None)


_default_tracer = _env_tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer instrumented layers record into."""
    return _default_tracer


def enable_tracing(path: str | Path | None = None) -> Tracer:
    """Enable the default tracer, optionally (re)pointing it at a JSONL path."""
    if path is not None:
        _default_tracer.path = path
    return _default_tracer.enable()


def disable_tracing() -> Tracer:
    """Disable the default tracer; recorded spans are kept."""
    return _default_tracer.disable()


@contextmanager
def span(name: str, **labels):
    """Record one span on the process-wide default tracer."""
    with _default_tracer.span(name, **labels) as record:
        yield record


@contextmanager
def use_tracer(tracer: Tracer):
    """Temporarily make ``tracer`` the process default (see ``use_registry``)."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    try:
        yield tracer
    finally:
        _default_tracer = previous


__all__ = [
    "SpanRecord",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "span",
    "use_tracer",
]
