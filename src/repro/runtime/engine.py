"""Config-driven fleet deployment: synthesize detectors, monitor a fleet online.

:func:`run_fleet` is the runtime counterpart of
:func:`~repro.api.execute.run_pipeline`: where the pipeline *evaluates* the
synthesized detectors offline on pre-computed traces, ``run_fleet`` *deploys*
them — it synthesizes the configured thresholds, wraps them (plus any
registry-named baseline detectors and the plant's own ``mdc`` monitors) into
fleet-wide online cores, and streams a whole fleet of plant instances under
scheduled attacks, producing the online metrics (detection latency,
per-step FAR, throughput) of a live deployment.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.registry import ATTACK_TEMPLATES, CASE_STUDIES, DETECTORS, NOISE_MODELS
from repro.runtime.events import EventSink, JSONLSink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack
from repro.runtime.report import FleetReport
from repro.utils.validation import ValidationError


def _resolve_problem(config, problem):
    """The SynthesisProblem to deploy: explicit argument or the config's case study."""
    if problem is None:
        if config.case_study is None:
            raise ValidationError(
                "a config-driven deployment needs a problem: pass one "
                "explicitly or set case_study on the config"
            )
        problem = CASE_STUDIES.create(config.case_study, **config.case_study_options)
    # Accept a packaged CaseStudy as well as a bare problem.
    return getattr(problem, "problem", problem)


def _innovation_covariance(problem) -> np.ndarray:
    """Steady-state innovation covariance ``S = C P C^T + R`` of the plant's filter."""
    from repro.estimation.kalman import steady_state_kalman

    plant = problem.system.plant
    _, P = steady_state_kalman(plant)
    R_v = plant.R_v if plant.R_v is not None else np.zeros((plant.n_outputs,) * 2)
    S = plant.C @ P @ plant.C.T + R_v
    return 0.5 * (S + S.T)


def _build_detector(problem, name: str, options: Mapping):
    """Instantiate a registry-named detector, filling in problem-derived defaults.

    The chi-square baselines need the plant's innovation covariance; when the
    config does not carry one explicitly it is derived from the plant's
    steady-state Kalman design, and a ``false_alarm_probability`` option
    selects the threshold from the chi-square inverse CDF.
    """
    options = dict(options)
    factory = DETECTORS.get(name)
    if name in ("chi-square", "online-chi-square"):
        options.setdefault("innovation_cov", _innovation_covariance(problem))
        probability = options.pop("false_alarm_probability", None)
        if probability is not None:
            return factory.from_false_alarm_probability(
                options["innovation_cov"], probability
            )
    return factory(**options)


def _default_noise_model(problem, scale: float):
    """The FAR study's benign envelope (bounded uniform at ``scale`` sigma).

    Falls back to the simulator's own default (Gaussian from the plant's
    ``R_v``) when the plant carries no measurement-noise covariance.
    """
    from repro.core.far import FalseAlarmEvaluator

    try:
        return FalseAlarmEvaluator.default_noise_model(problem, scale=scale)
    except ValidationError:
        return None


def _build_schedule(config) -> list[ScheduledAttack]:
    schedule = []
    for entry in config.attacks:
        entry = dict(entry)
        template = ATTACK_TEMPLATES.create(
            entry.pop("template"), **entry.pop("options", {})
        )
        instances = entry.pop("instances", None)
        if instances is not None:
            instances = tuple(int(i) for i in instances)
        schedule.append(
            ScheduledAttack(
                template=template,
                start=entry.pop("start", 0),
                instances=instances,
                fraction=entry.pop("fraction", None),
                label=entry.pop("label", ""),
            )
        )
    return schedule


def build_detector_bank(
    problem, config, extra: Mapping[str, object] | None = None
) -> dict[str, object]:
    """Assemble the ``label -> detector`` bank a deployment config describes.

    Shared by :func:`run_fleet` and :func:`repro.serve.engine.run_service`:
    ``config`` is any object carrying the four bank-defining fields
    (``synthesis``, ``static_thresholds``, ``detectors``, ``include_mdc``) —
    both :class:`~repro.api.config.RuntimeConfig` and
    :class:`~repro.api.config.ServiceConfig` qualify.  ``extra`` entries
    (caller-supplied detector objects) are merged last.  Raises when the
    result would be empty or any two sources collide on a label.
    """
    bank: dict[str, object] = {}

    def deploy(label: str, obj, source: str) -> None:
        # Silent label collisions would drop a configured detector; every
        # source (synthesis algorithms, static thresholds, named detectors,
        # mdc, explicit extras) must produce a distinct label.
        if label in bank:
            raise ValidationError(
                f"detector label {label!r} (from {source}) is already deployed; "
                "rename one of the colliding entries"
            )
        bank[label] = obj

    if config.synthesis is not None:
        # One run_pipeline call (FAR skipped) shares a single incremental
        # SynthesisSession across every algorithm and the optional relax
        # stage; the deployed vector is the relaxed one when configured.
        from repro.api.execute import run_pipeline

        pipeline = run_pipeline(problem, synthesis=config.synthesis)
        for algorithm in config.synthesis.algorithms:
            threshold = pipeline.deployed_threshold(algorithm)
            if threshold is not None:
                deploy(algorithm, threshold, "synthesis")
    for label, value in config.static_thresholds.items():
        deploy(str(label), problem.static_threshold(float(value)), "static_thresholds")
    for label, spec in config.detectors.items():
        deploy(
            str(label),
            _build_detector(problem, spec["name"], spec.get("options", {})),
            "detectors",
        )
    if config.include_mdc and len(problem.mdc) > 0:
        deploy("mdc", problem.mdc, "include_mdc")
    for label, obj in (extra or {}).items():
        deploy(str(label), obj, "the detectors argument")
    if not bank:
        raise ValidationError(
            "the configuration deploys no detectors: configure synthesis, "
            "static_thresholds, detectors, or include_mdc on a monitored plant"
        )
    return bank


def run_fleet(
    config,
    problem=None,
    *,
    detectors: Mapping[str, object] | None = None,
    attacks: Sequence[ScheduledAttack] = (),
    sinks: Sequence[EventSink] = (),
    metrics=None,
) -> FleetReport:
    """Deploy synthesized and baseline detectors on a monitored fleet.

    Parameters
    ----------
    config:
        A :class:`~repro.api.config.RuntimeConfig` describing the fleet:
        size, horizon, benign-noise envelope, detector bank, attack schedule.
    problem:
        The :class:`~repro.core.problem.SynthesisProblem` (or packaged
        :class:`~repro.systems.base.CaseStudy`) to deploy on; ``None``
        builds it from ``config.case_study``.
    detectors:
        Extra label → detector entries merged into the configured bank (any
        form :func:`~repro.runtime.batch.make_batched` accepts).
    attacks:
        Extra :class:`ScheduledAttack` entries appended to the configured
        schedule.
    sinks:
        Extra event sinks in addition to the config's ``events_path``.
    metrics:
        Telemetry wiring forwarded to :class:`FleetSimulator`: ``None``
        records into the process-wide registry (disabled by default),
        ``False`` compiles the instrumentation out, a
        :class:`~repro.obs.metrics.MetricsRegistry` records into that
        registry unconditionally.

    Returns
    -------
    FleetReport
        Detection rate, detection latency and false-alarm rates per deployed
        detector, plus throughput; the full config rides along in
        ``report.metadata["config"]``.
    """
    problem = _resolve_problem(config, problem)
    horizon = problem.horizon if config.horizon is None else config.horizon

    bank = build_detector_bank(problem, config, extra=detectors)

    if config.noise_model is not None:
        noise_model = NOISE_MODELS.create(config.noise_model, **config.noise_options)
    else:
        noise_model = _default_noise_model(problem, config.noise_scale)

    schedule = _build_schedule(config) + list(attacks)

    all_sinks = list(sinks)
    owned_sink = None
    if config.events_path is not None:
        owned_sink = JSONLSink(config.events_path)
        all_sinks.append(owned_sink)

    spread = None
    if config.initial_state_spread is not None:
        spread = np.asarray(config.initial_state_spread, dtype=float)

    simulator = FleetSimulator(
        problem.system,
        config.n_instances,
        horizon,
        detectors=bank,
        noise_model=noise_model,
        include_process_noise=config.include_process_noise,
        x0=problem.x0,
        x0_spread=spread,
        attacks=schedule,
        sinks=all_sinks,
        seed=config.seed,
        record_traces=config.record_traces,
        metrics=metrics,
        engine=config.engine,
    )
    try:
        report = simulator.run()
    finally:
        if owned_sink is not None:
            owned_sink.close()
    report.metadata["config"] = config.to_dict()
    report.metadata["problem"] = problem.name
    if config.record_traces:
        report.trace = simulator.trace
    return report


__all__ = ["build_detector_bank", "run_fleet"]
