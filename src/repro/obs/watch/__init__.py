"""`repro.obs.watch`: the repo's own detectors watching its own telemetry.

The reproduction synthesizes and deploys online change detectors — so this
subpackage closes the loop and points them at the repository itself (the
classic self-adaptive MAPE-K monitoring shape):

* :mod:`repro.obs.watch.history` — :class:`BenchHistory` parses the
  machine-readable ``BENCH_<test>.json`` perf trajectory that
  ``benchmarks/conftest.py`` appends to (both schema variants: records with
  a measured ``elapsed`` and ``timing_disabled`` smoke records that only
  carry the test's own ``extra_info`` numbers) into per-test, per-metric
  time series with git-SHA/timestamp provenance, plus crash-tolerant JSONL
  append/merge for accumulating history across CI runs;
* :mod:`repro.obs.watch.baseline` — benign-envelope estimation
  (median/MAD over the leading warm-up window) that auto-derives per-series
  CUSUM bias/threshold parameters, the same profile-then-threshold shape
  the paper uses on benign residue streams;
* :mod:`repro.obs.watch.detect` — :class:`SeriesWatcher` adapters around
  the existing :class:`~repro.runtime.online.OnlineDetector` over a CUSUM
  detector (no new detector math) emitting typed :class:`RegressionEvent`
  alarms into the existing :class:`~repro.runtime.events.EventSink` layer, with a
  dead-zone-style consecutive-alarm confirmation;
* :mod:`repro.obs.watch.service` — :class:`HealthWatcher` applies the same
  detectors to live :class:`~repro.obs.metrics.MetricsRegistry` snapshots
  (gauge values and counter rates); it speaks the
  :class:`~repro.obs.export.PeriodicScraper` protocol, so it drops into the
  ``scraper=`` hook of a running
  :class:`~repro.serve.service.MonitorService` or
  :class:`~repro.runtime.fleet.FleetSimulator` unchanged;
* :mod:`repro.obs.watch.cli` — ``python -m repro.obs.watch check`` (the CI
  gate: non-zero exit on a confirmed regression) and ``... report``
  (per-series sparkline/trend summary).

See ``docs/self-monitoring.md`` for baseline semantics, the CI gate, and
how to silence a known intentional perf change.
"""

from repro.obs.watch.baseline import Baseline, WatchPolicy, estimate_baseline, orientation_for
from repro.obs.watch.detect import RegressionEvent, SeriesWatcher
from repro.obs.watch.history import BenchHistory, BenchRecord, BenchSeries
from repro.obs.watch.service import HealthWatcher, WatchSpec

__all__ = [
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
]
