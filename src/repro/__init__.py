"""Formal synthesis of monitoring and detection systems for secure CPS implementations.

A from-scratch Python reproduction of Koley et al., DATE 2020: residue-based
attack detectors with formally synthesized variable thresholds for LTI
control loops under false-data-injection attacks.

Quick start (one problem)::

    from repro import SynthesisConfig, get_case_study, run_pipeline

    case = get_case_study("vsc")
    report = run_pipeline(case.problem, SynthesisConfig(algorithms=("pivot",)))
    print(report.summary_rows())

Quick start (a sweep)::

    from repro import ExperimentSpec, run_experiments

    spec = ExperimentSpec(
        case_studies=("dcmotor", "trajectory"),
        backends=("lp", "optimizer"),
        algorithms=("pivot", "static"),
    )
    result = run_experiments(spec, workers=4)
    print(result.to_json())

Every component is resolved by name through the plugin registries in
:mod:`repro.registry` (``available_backends()``, ``available_case_studies()``,
...); register your own backends, synthesizers, detectors, noise models and
case studies there and sweep them with the same API.

Subpackages
-----------
``repro.api``
    Experiment API v2: declarative configs (``SynthesisConfig``, ``FARConfig``,
    ``ExperimentSpec``), ``run_pipeline`` and the ``BatchRunner`` sweep engine.
``repro.registry``
    The shared plugin registries behind every string-resolved component name.
``repro.core``
    Algorithms 1-3 (one ``SynthesisSession`` path), the static baseline, FAR evaluation.
``repro.lti``, ``repro.estimation``, ``repro.control``
    The plant / estimator / controller substrate.
``repro.attacks``, ``repro.monitors``, ``repro.detectors``, ``repro.noise``
    Attacker models, plant monitors (``mdc``), residue detectors, noise models.
``repro.falsification``
    The attack-synthesis backends: the LP decision procedure (HiGHS) and a
    simulation-based falsifier.
``repro.systems``
    Ready-made case studies (VSC, trajectory tracking, DC motor, ...).
``repro.runtime``
    The streaming fleet-monitoring engine: the ``OnlineDetector`` wrapper,
    the vectorized ``FleetSimulator`` with scheduled attacks, alarm-event
    sinks, and the ``run_fleet`` deployment entry point.
``repro.serve``
    Always-on fleet serving: the ``MonitorService`` with ring-buffer ingest,
    dynamic attach/detach, atomic threshold hot-swap, back-pressure-aware
    sinks, and a replayable service event log (``run_service``, ``replay``).
``repro.explore``
    Design-space exploration: declarative ``SearchSpace`` axes, grid and
    adaptive-bisection samplers, a persistent content-addressed
    ``ResultStore``, and Pareto-front extraction over (FAR, detection
    latency, stealth margin).
"""

from repro.core import (
    SynthesisProblem,
    ReachSetCriterion,
    FractionOfTargetCriterion,
    StateBoundCriterion,
    CompositeCriterion,
    synthesize_attack,
    AttackSynthesisResult,
    SynthesisSession,
    PivotThresholdSynthesizer,
    StepwiseThresholdSynthesizer,
    StaticThresholdSynthesizer,
    ThresholdRelaxer,
    FalseAlarmEvaluator,
)
from repro.core.synthesis_result import ThresholdSynthesisResult
from repro.api import (
    SynthesisConfig,
    FARConfig,
    RelaxConfig,
    ExperimentSpec,
    ExperimentUnit,
    RuntimeConfig,
    ServiceConfig,
    ExploreConfig,
    PipelineReport,
    run_pipeline,
    run_fleet,
    run_service,
    run_exploration,
    BatchRunner,
    ExperimentResult,
    ExperimentRow,
    default_workers,
    run_experiments,
)
from repro.explore import (
    AdaptiveBisectionSampler,
    ExplorationReport,
    ExplorePoint,
    Explorer,
    GridSampler,
    ResultStore,
    SearchSpace,
    pareto_front,
)
from repro.serve import (
    BufferedSink,
    MonitorService,
    ReplayResult,
    ServiceEvent,
    ServiceLog,
    replay,
)
from repro.runtime import (
    AlarmEvent,
    FleetReport,
    FleetSimulator,
    FleetTrace,
    InMemorySink,
    JSONLSink,
    OnlineDetector,
    ScheduledAttack,
    batch_simulate,
)
from repro.registry import (
    Registry,
    RegistryError,
    register,
    register_sampler,
    get_registry,
    available_backends,
    available_synthesizers,
    available_detectors,
    available_noise_models,
    available_case_studies,
    available_attack_templates,
    available_samplers,
    available_engines,
    get_case_study,
    get_noise_model,
    get_detector,
    get_synthesizer,
    get_attack_template,
    get_sampler,
)
from repro.falsification.registry import get_backend
from repro.detectors import ThresholdVector, ResidueDetector, ChiSquareDetector, CusumDetector
from repro.attacks import FDIAttack, AttackChannelMask
from repro.lti import StateSpace, ClosedLoopSystem, SimulationOptions, simulate_closed_loop, discretize
from repro.monitors import (
    CompositeMonitor,
    RangeMonitor,
    GradientMonitor,
    RelationMonitor,
    DeadZoneMonitor,
)
from repro.systems import (
    build_vsc_case_study,
    build_trajectory_case_study,
    build_dcmotor_case_study,
    build_quadtank_case_study,
    build_cruise_case_study,
    build_pendulum_case_study,
    CaseStudy,
)
from repro.utils.results import SolveStatus

__version__ = "2.0.0"

__all__ = [
    # Experiment API v2
    "SynthesisConfig",
    "FARConfig",
    "RelaxConfig",
    "ExperimentSpec",
    "ExperimentUnit",
    "RuntimeConfig",
    "PipelineReport",
    "run_pipeline",
    "BatchRunner",
    "ExperimentResult",
    "ExperimentRow",
    "default_workers",
    "run_experiments",
    # design-space exploration
    "ExploreConfig",
    "run_exploration",
    "Explorer",
    "ExplorationReport",
    "ExplorePoint",
    "SearchSpace",
    "GridSampler",
    "AdaptiveBisectionSampler",
    "ResultStore",
    "pareto_front",
    # runtime fleet monitoring
    "run_fleet",
    "FleetSimulator",
    "FleetReport",
    "FleetTrace",
    "ScheduledAttack",
    "AlarmEvent",
    "InMemorySink",
    "JSONLSink",
    "OnlineDetector",
    "batch_simulate",
    # always-on serving
    "ServiceConfig",
    "run_service",
    "MonitorService",
    "BufferedSink",
    "ServiceEvent",
    "ServiceLog",
    "ReplayResult",
    "replay",
    # registries
    "Registry",
    "RegistryError",
    "register",
    "get_registry",
    "available_backends",
    "available_synthesizers",
    "available_detectors",
    "available_noise_models",
    "available_case_studies",
    "available_attack_templates",
    "available_samplers",
    "available_engines",
    "register_sampler",
    "get_sampler",
    "get_backend",
    "get_case_study",
    "get_noise_model",
    "get_detector",
    "get_synthesizer",
    "get_attack_template",
    # core algorithms
    "SynthesisProblem",
    "ReachSetCriterion",
    "FractionOfTargetCriterion",
    "StateBoundCriterion",
    "CompositeCriterion",
    "synthesize_attack",
    "SynthesisSession",
    "AttackSynthesisResult",
    "PivotThresholdSynthesizer",
    "StepwiseThresholdSynthesizer",
    "StaticThresholdSynthesizer",
    "ThresholdRelaxer",
    "ThresholdSynthesisResult",
    "FalseAlarmEvaluator",
    # detectors / attacks / substrate
    "ThresholdVector",
    "ResidueDetector",
    "ChiSquareDetector",
    "CusumDetector",
    "FDIAttack",
    "AttackChannelMask",
    "StateSpace",
    "ClosedLoopSystem",
    "SimulationOptions",
    "simulate_closed_loop",
    "discretize",
    "CompositeMonitor",
    "RangeMonitor",
    "GradientMonitor",
    "RelationMonitor",
    "DeadZoneMonitor",
    # case studies
    "build_vsc_case_study",
    "build_trajectory_case_study",
    "build_dcmotor_case_study",
    "build_quadtank_case_study",
    "build_cruise_case_study",
    "build_pendulum_case_study",
    "CaseStudy",
    "SolveStatus",
    "__version__",
]
