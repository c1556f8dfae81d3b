"""Design-space exploration: Pareto fronts over the paper's trade-off axes.

The subsystem turns the reproduction into the tool the paper implies: sweep
detectors × horizons × noise scales × threshold floors × case studies
(with an optional declarative ``relax=`` stage applied to every synthesized
point), extract the (FAR, detection latency, stealth margin) Pareto surface
— latency resolved by a probe attack ladder (1.1x/1.5x/3x of each
candidate's own threshold) — and never recompute a point twice thanks to a
persistent content-addressed result store whose keys split into a synthesis
half and an evaluation half (noise/FAR/probe variations of a synthesized
point re-run only the cheap evaluation).  Walkthrough:
``docs/exploration.md``.

Four layers::

    SearchSpace / samplers   which points exist and in what order  (space)
    ResultStore              content-addressed persistence + resume (store)
    Explorer                 batch evaluation through BatchRunner  (engine)
    pareto / ExplorationReport  fronts, sensitivity, JSON export   (pareto, report)

Quick start::

    from repro.explore import SearchSpace, Explorer

    space = SearchSpace(
        case_studies=("dcmotor",),
        min_thresholds=(0.0, 0.01, 0.02, 0.04),
        noise_scales=(0.5, 1.0),
    )
    report = Explorer(space, "grid", store="./results").run()
    for row in report.front():
        print(row["min_threshold"], row["false_alarm_rate"], row["stealth_margin"])

Samplers are plugins: ``@repro.registry.register_sampler("my-sampler")``.
"""

from repro.explore.pareto import (
    dominates,
    front_signature,
    objective_vector,
    pareto_front,
    sensitivity,
)
from repro.explore.report import ExplorationReport
from repro.explore.space import (
    DEFAULT_OBJECTIVES,
    AdaptiveBisectionSampler,
    ExplorePoint,
    GridSampler,
    Sampler,
    SearchSpace,
)
from repro.explore.store import ResultStore, StoreCorruptionWarning, canonical_config_key
from repro.explore.engine import ExploreConfig, Explorer, run_exploration

__all__ = [
    "DEFAULT_OBJECTIVES",
    "AdaptiveBisectionSampler",
    "ExplorationReport",
    "ExploreConfig",
    "ExplorePoint",
    "Explorer",
    "GridSampler",
    "ResultStore",
    "Sampler",
    "SearchSpace",
    "StoreCorruptionWarning",
    "canonical_config_key",
    "dominates",
    "front_signature",
    "objective_vector",
    "pareto_front",
    "run_exploration",
    "sensitivity",
]
