"""`repro.obs`: unified metrics, tracing, and export across every layer.

One telemetry vocabulary for the whole reproduction — synthesis sessions,
batch runners, the explorer, the fleet simulator, and the always-on
monitoring service all record into the same process-local
:class:`MetricsRegistry` and :class:`Tracer`:

* :mod:`repro.obs.metrics` — labelled counters, gauges, and fixed-bucket
  histograms with a near-zero disabled path, plus ``snapshot()``/``merge()``
  so multiprocessing workers ship their registries home with result rows;
* :mod:`repro.obs.trace` — nested ``span(name, **labels)`` blocks with
  wall/CPU durations, crash-tolerant JSONL export, and text tree /
  folded-stack flamegraph renderings;
* :mod:`repro.obs.export` — Prometheus text exposition (losslessly
  parseable back into a snapshot), atomic JSON snapshot files, and a
  :class:`PeriodicScraper` hook for long-running loops;
* :mod:`repro.obs.clock` — the :class:`Stopwatch` every other layer uses
  for elapsed-time reporting and solver time budgets, keeping direct
  wall-clock reads confined to ``repro.obs`` (lint rule ``REP001`` in
  :mod:`repro.lint`);
* :mod:`repro.obs.watch` — self-monitoring: the repo's own CUSUM
  detectors watch its benchmark trajectory (``BENCH_*.json``) and live
  registry snapshots for regressions (``python -m repro.obs.watch``).

The ``watch`` names (``BenchHistory``, ``SeriesWatcher``,
``HealthWatcher``, ``WatchSpec``, ``RegressionEvent``, ...) are
re-exported lazily via module ``__getattr__``: ``repro.obs.watch`` pulls
in the detector cores from :mod:`repro.runtime`, which itself imports
``repro.obs`` — deferring the import keeps the package cycle-free.

Everything is opt-in: the default registry and tracer start disabled
(``REPRO_METRICS=1`` / ``REPRO_TRACE=<path>`` environment variables or
:func:`enable_metrics` / :func:`enable_tracing` turn them on), and the
disabled path is cheap enough to leave compiled into hot loops — the fleet
benchmark gate runs with instrumentation present.
"""

from repro.obs.clock import Stopwatch
from repro.obs.export import (
    PeriodicScraper,
    parse_prometheus_text,
    prometheus_text,
    read_json_snapshot,
    text_report,
    write_json_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    timed,
    use_registry,
    use_thread_registry,
)
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    use_tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeriodicScraper",
    "SpanRecord",
    "Stopwatch",
    "Tracer",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "get_registry",
    "get_tracer",
    "metrics_enabled",
    "parse_prometheus_text",
    "prometheus_text",
    "read_json_snapshot",
    "span",
    "text_report",
    "timed",
    "use_registry",
    "use_thread_registry",
    "use_tracer",
    "write_json_snapshot",
]

#: Names resolved lazily from :mod:`repro.obs.watch` (see module docstring).
_WATCH_EXPORTS = frozenset(
    {
        "Baseline",
        "BenchHistory",
        "BenchRecord",
        "BenchSeries",
        "HealthWatcher",
        "RegressionEvent",
        "SeriesWatcher",
        "WatchPolicy",
        "WatchSpec",
        "estimate_baseline",
        "orientation_for",
    }
)


def __getattr__(name: str):
    """Lazy re-export of the ``repro.obs.watch`` surface (PEP 562)."""
    if name in _WATCH_EXPORTS:
        from repro.obs import watch

        return getattr(watch, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
