"""Process-local metrics: labelled counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a plain-Python, zero-dependency metrics store in
the Prometheus data model: *counters* only go up, *gauges* hold the last set
value, *histograms* count observations into fixed buckets.  Every instrument
accepts string labels (``counter.inc(3, detector="cusum")``), so one metric
family covers a whole detector bank or backend set.

Three properties shape the design:

* **Disabled is near-free.**  The module-level default registry starts
  *disabled* (opt-in via :func:`enable_metrics` or the ``REPRO_METRICS``
  environment variable), and a disabled instrument's record call is a single
  attribute check — cheap enough to leave compiled into hot paths like the
  fleet step loop, which is gated by
  ``benchmarks/test_bench_obs_overhead.py``.
* **Snapshots are plain JSON.**  :meth:`MetricsRegistry.snapshot` returns a
  deterministic JSON-compatible dict and :meth:`MetricsRegistry.merge` folds
  such a snapshot back in (counters and histograms add, gauges last-write-
  wins) — which is how ``multiprocessing`` workers in
  :class:`~repro.api.runner.BatchRunner` ship their per-group metrics back
  to the parent process alongside result rows.
* **One process-wide default.**  Instrumented layers resolve
  :func:`get_registry` at use time, so :func:`use_registry` can scope a
  fresh registry around a unit of work (a worker's group execution) without
  threading a registry argument through every constructor.

Record calls are unlocked read-modify-writes, so one registry must not be
recorded into from several threads at once.  A worker thread scopes a
private registry with :func:`use_thread_registry` (it overrides the default
for that thread only) and its caller merges the snapshot after the join —
how :func:`repro.api.execute.run_pipeline` runs its synthesis algorithms
side by side.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

from repro.utils.validation import ValidationError

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus style).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of one label set (values coerced to str)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared base of the three instrument kinds.

    An instrument belongs to exactly one registry and checks the registry's
    ``enabled`` flag on every record call — that check is the entire cost of
    instrumentation when metrics are off.
    """

    kind = "abstract"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str):
        self._registry = registry
        self.name = name
        self.help = help
        self._values: dict[tuple, object] = {}

    def labelsets(self) -> list[tuple]:
        """Recorded label sets, in deterministic (sorted) order."""
        return sorted(self._values)

    def clear(self) -> None:
        """Drop every recorded value (the instrument itself stays registered)."""
        self._values.clear()


class Counter(_Instrument):
    """A monotonically increasing metric (events, items, bytes, ...)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the counter for this label set."""
        if not self._registry._enabled:
            return
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = _label_key(labels) if labels else ()
        self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        """Current value for one label set (0.0 when never incremented)."""
        return float(self._values.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label set."""
        return float(sum(self._values.values()))


class Gauge(_Instrument):
    """A point-in-time value (queue depth, utilization, throughput)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Record the current value for this label set."""
        if not self._registry._enabled:
            return
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        if not self._registry._enabled:
            return
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels) -> float:
        """Current value for one label set (0.0 when never set)."""
        return float(self._values.get(_label_key(labels), 0.0))


class Histogram(_Instrument):
    """Observations counted into fixed buckets, plus their sum and count.

    ``buckets`` are the *upper bounds* of each bucket, strictly increasing;
    an implicit overflow bucket (``+Inf``) catches everything above the last
    bound.  Per label set the histogram keeps non-cumulative bucket counts —
    the Prometheus exposition in :mod:`repro.obs.export` converts to the
    cumulative form on the way out.
    """

    kind = "histogram"

    def __init__(self, registry, name, help, buckets=DEFAULT_BUCKETS):
        super().__init__(registry, name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValidationError(f"histogram {self.name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram {self.name!r} buckets must be strictly increasing"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        """Count one observation into its bucket and the sum/count totals."""
        if not self._registry._enabled:
            return
        key = _label_key(labels)
        cell = self._values.get(key)
        if cell is None:
            cell = self._values[key] = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
        value = float(value)
        cell["counts"][bisect_left(self.buckets, value)] += 1
        cell["sum"] += value
        cell["count"] += 1

    def count(self, **labels) -> int:
        """Number of observations for one label set."""
        cell = self._values.get(_label_key(labels))
        return 0 if cell is None else int(cell["count"])

    def sum(self, **labels) -> float:
        """Sum of observations for one label set."""
        cell = self._values.get(_label_key(labels))
        return 0.0 if cell is None else float(cell["sum"])

    def total_count(self) -> int:
        """Number of observations over every label set."""
        return int(sum(cell["count"] for cell in self._values.values()))


class MetricsRegistry:
    """A process-local collection of named instruments.

    Parameters
    ----------
    enabled:
        Whether record calls take effect.  A disabled registry still hands
        out instruments (so instrumentation code needs no conditionals) but
        every ``inc``/``set``/``observe`` returns after one flag check.

    Instruments are created idempotently: asking twice for the same name
    returns the same object, asking for an existing name as a different kind
    (or a histogram with different buckets) raises.
    """

    def __init__(self, enabled: bool = True):
        self._enabled = bool(enabled)
        self._instruments: dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether record calls currently take effect."""
        return self._enabled

    def enable(self) -> "MetricsRegistry":
        """Turn recording on; returns the registry for chaining."""
        self._enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        """Turn recording off (instruments and recorded values stay)."""
        self._enabled = False
        return self

    # ------------------------------------------------------------------
    def _instrument(self, cls, name: str, help: str, **kwargs) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValidationError(
                    f"metric {name!r} is already registered as a {existing.kind}, "
                    f"not a {cls.kind}"
                )
            if kwargs.get("buckets") is not None and tuple(
                float(b) for b in kwargs["buckets"]
            ) != existing.buckets:
                raise ValidationError(
                    f"histogram {name!r} is already registered with different buckets"
                )
            return existing
        instrument = cls(self, name, help, **{k: v for k, v in kwargs.items() if v is not None})
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._instrument(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._instrument(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=None) -> Histogram:
        """Get or create the histogram ``name`` (``buckets`` fixed at creation)."""
        return self._instrument(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> _Instrument | None:
        """The instrument registered under ``name`` (``None`` when absent)."""
        return self._instruments.get(name)

    def __iter__(self) -> Iterator[_Instrument]:
        return iter(self._instruments[name] for name in self.names())

    def reset(self) -> None:
        """Clear every recorded value (instruments stay registered)."""
        for instrument in self._instruments.values():
            instrument.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic JSON-compatible dump of every recorded value.

        The shape is ``{"counters": {...}, "gauges": {...}, "histograms":
        {...}}``; each family maps metric name to ``{"help", "values"}``
        (histograms additionally carry ``"buckets"``), and ``values`` is a
        list of ``{"labels": {...}, ...}`` entries sorted by label set.
        Instruments that never recorded anything are included with an empty
        ``values`` list, so a snapshot documents the full instrumented
        surface.
        """
        counters, gauges, histograms = {}, {}, {}
        for name in self.names():
            instrument = self._instruments[name]
            if instrument.kind == "counter":
                counters[name] = {
                    "help": instrument.help,
                    "values": [
                        {"labels": dict(key), "value": instrument._values[key]}
                        for key in instrument.labelsets()
                    ],
                }
            elif instrument.kind == "gauge":
                gauges[name] = {
                    "help": instrument.help,
                    "values": [
                        {"labels": dict(key), "value": instrument._values[key]}
                        for key in instrument.labelsets()
                    ],
                }
            else:
                histograms[name] = {
                    "help": instrument.help,
                    "buckets": list(instrument.buckets),
                    "values": [
                        {
                            "labels": dict(key),
                            "counts": list(instrument._values[key]["counts"]),
                            "sum": instrument._values[key]["sum"],
                            "count": instrument._values[key]["count"],
                        }
                        for key in instrument.labelsets()
                    ],
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram cells *add*; gauges take the snapshot's value
        (last-write-wins — a merged gauge is a report of the most recent
        state, not an accumulation).  Instruments absent here are created
        from the snapshot; a histogram arriving with different buckets
        raises.  Merging respects the enabled flag the same way record calls
        do not — merge always applies, because it moves already-recorded
        values between registries rather than recording new ones.
        """
        for name, entry in snapshot.get("counters", {}).items():
            counter = self.counter(name, entry.get("help", ""))
            for cell in entry["values"]:
                key = _label_key(cell["labels"])
                counter._values[key] = counter._values.get(key, 0.0) + float(cell["value"])
        for name, entry in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name, entry.get("help", ""))
            for cell in entry["values"]:
                gauge._values[_label_key(cell["labels"])] = float(cell["value"])
        for name, entry in snapshot.get("histograms", {}).items():
            histogram = self.histogram(
                name, entry.get("help", ""), buckets=entry["buckets"]
            )
            for cell in entry["values"]:
                key = _label_key(cell["labels"])
                existing = histogram._values.get(key)
                if existing is None:
                    existing = histogram._values[key] = {
                        "counts": [0] * (len(histogram.buckets) + 1),
                        "sum": 0.0,
                        "count": 0,
                    }
                if len(cell["counts"]) != len(existing["counts"]):
                    raise ValidationError(
                        f"histogram {name!r} merge: bucket count mismatch"
                    )
                existing["counts"] = [
                    a + b for a, b in zip(existing["counts"], cell["counts"])
                ]
                existing["sum"] += float(cell["sum"])
                existing["count"] += int(cell["count"])


# ----------------------------------------------------------------------
# The process-wide default registry.
# ----------------------------------------------------------------------
def _env_enabled() -> bool:
    return os.environ.get("REPRO_METRICS", "").strip().lower() in ("1", "true", "yes", "on")


_default_registry = MetricsRegistry(enabled=_env_enabled())

# Per-thread overrides set by use_thread_registry.
_thread = threading.local()


def get_registry() -> MetricsRegistry:
    """The registry instrumented layers record into.

    The calling thread's :func:`use_thread_registry` override when one is
    active, else the process-wide default.
    """
    return getattr(_thread, "registry", _default_registry)


def enable_metrics() -> MetricsRegistry:
    """Enable the default registry (idempotent); returns it."""
    return _default_registry.enable()


def disable_metrics() -> MetricsRegistry:
    """Disable the default registry; recorded values are kept."""
    return _default_registry.disable()


def metrics_enabled() -> bool:
    """Whether the default registry is currently recording."""
    return _default_registry.enabled


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Temporarily make ``registry`` the process default.

    Everything instrumented through :func:`get_registry` records into
    ``registry`` for the duration — the mechanism batch workers use to scope
    one fresh registry per executed group and ship its snapshot back with
    the group's rows.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    try:
        yield registry
    finally:
        _default_registry = previous


@contextmanager
def use_thread_registry(registry: MetricsRegistry):
    """Make ``registry`` what :func:`get_registry` returns on this thread only.

    Other threads keep resolving the process default (or their own
    override), so a worker thread records into a private registry without a
    lock; its caller merges the worker's :meth:`~MetricsRegistry.snapshot`
    after the join.
    """
    previous = _thread.__dict__.get("registry")
    _thread.registry = registry
    try:
        yield registry
    finally:
        if previous is None:
            del _thread.registry
        else:
            _thread.registry = previous


@contextmanager
def timed(histogram: Histogram, **labels):
    """Observe the wall-clock duration of a ``with`` block into ``histogram``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        histogram.observe(time.perf_counter() - started, **labels)


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "metrics_enabled",
    "timed",
    "use_registry",
    "use_thread_registry",
]
