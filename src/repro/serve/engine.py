"""Config-driven service construction: from a ServiceConfig to a running service.

:func:`run_service` is to :class:`~repro.serve.service.MonitorService` what
:func:`~repro.runtime.engine.run_fleet` is to the fleet simulator: it
resolves the configured case study, assembles the detector bank through the
shared :func:`~repro.runtime.engine.build_detector_bank` (synthesis
algorithms, static thresholds, registry-named baselines, the plant's
``mdc``), wires the back-pressure and logging layers, and hands back the
*running* (empty) service — unlike ``run_fleet`` it does not simulate
anything, because the measurements come from the caller's streams.

The originating config rides along in the service log's ``"start"`` event,
which is what lets :func:`~repro.serve.replay.replay` rebuild an identical
service from a recorded log with no other context.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.runtime.engine import _resolve_problem, build_detector_bank
from repro.runtime.events import EventSink
from repro.serve.backpressure import BufferedSink
from repro.serve.log import ServiceLog
from repro.serve.service import MonitorService


def run_service(
    config,
    problem=None,
    *,
    sinks: Sequence[EventSink] = (),
    detectors: Mapping[str, object] | None = None,
    metrics=None,
    scraper=None,
) -> MonitorService:
    """Build a :class:`~repro.serve.service.MonitorService` from a config.

    Parameters
    ----------
    config:
        A :class:`~repro.api.config.ServiceConfig` describing the detector
        bank, residue source, ring buffers, back-pressure and logging.
    problem:
        The :class:`~repro.core.problem.SynthesisProblem` (or packaged case
        study) to serve; ``None`` builds it from ``config.case_study``.
    sinks:
        Alarm sinks; each is wrapped in a
        :class:`~repro.serve.backpressure.BufferedSink` when
        ``config.sink_capacity`` is set.
    detectors:
        Extra label → detector entries merged into the configured bank.
    metrics / scraper:
        Passed through to :class:`~repro.serve.service.MonitorService` —
        a shared :class:`~repro.obs.metrics.MetricsRegistry` and an optional
        :class:`~repro.obs.export.PeriodicScraper` exposition hook.  These
        are live objects, which is why they ride here rather than on the
        JSON-serializable :class:`~repro.api.config.ServiceConfig`.

    Returns
    -------
    MonitorService
        A running service with no instances attached yet; call
        :meth:`~repro.serve.service.MonitorService.attach` and start
        ingesting.
    """
    problem = _resolve_problem(config, problem)
    bank = build_detector_bank(problem, config, extra=detectors)

    wired = list(sinks)
    if config.sink_capacity is not None:
        wired = [
            BufferedSink(sink, capacity=config.sink_capacity, policy=config.sink_policy)
            for sink in wired
        ]
    log = ServiceLog(config.log_path, flush_every=config.flush_every)
    return MonitorService(
        problem.system,
        bank,
        residue_source=config.residue_source,
        ring_capacity=config.ring_capacity,
        overflow=config.overflow,
        auto_drain=config.auto_drain,
        sinks=wired,
        log=log,
        metadata={"config": config.to_dict(), "problem": problem.name},
        metrics=metrics,
        scraper=scraper,
    )


__all__ = ["run_service"]
