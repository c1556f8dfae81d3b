"""The exploration engine: sampler-driven evaluation of a design space.

:class:`Explorer` runs the loop the subsystem exists for::

    points = sampler.initial(space)
    while points:
        rows += evaluate(points)            # BatchRunner fan-out + store
        points = sampler.refine(space, rows)

Evaluation lowers each point into an
:class:`~repro.api.config.ExperimentUnit` and hands the batch to
:meth:`repro.api.runner.BatchRunner.run_units`, inheriting everything the
batch layer already does: per-group sharing of the vulnerability check /
incremental :class:`~repro.core.session.SynthesisSession` / FAR population,
``multiprocessing`` fan-out, per-row error capture, and content-addressed
store reuse — full-row hits skip everything, and synthesis-key hits
(points whose FAR/noise/probe settings changed but whose synthesis half is
stored) re-run only the evaluation with zero solver calls.  Points that
differ only in ``far_budget`` share one unit (and one store entry); the
engine emits one row per point regardless.

:class:`ExploreConfig` is the declarative, JSON-round-trippable form of an
exploration (space + sampler + store + fan-out), and
:func:`run_exploration` the one-call entry point.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.api.config import _PlainData
from repro.api.runner import BatchRunner, ExperimentRow
from repro.explore.report import ExplorationReport
from repro.explore.space import DEFAULT_OBJECTIVES, ExplorePoint, SearchSpace
from repro.explore.store import ResultStore, as_store, canonical_config_key
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.registry import SAMPLERS
from repro.utils.validation import ValidationError


@dataclass
class ExploreConfig(_PlainData):
    """Declarative description of one design-space exploration.

    Parameters
    ----------
    space:
        The :class:`~repro.explore.space.SearchSpace` (or its ``to_dict``
        form).
    sampler / sampler_options:
        Registry name (and constructor kwargs) of the sampler that walks
        the space.
    store_path:
        Optional directory of the persistent content-addressed
        :class:`~repro.explore.store.ResultStore`; ``None`` explores without
        cross-run reuse.
    workers:
        Batch-runner fan-out (``"auto"`` = CPU-affinity count).
    max_points:
        Safety cap on the number of points evaluated (``None`` = unbounded;
        hitting the cap sets ``stats["truncated"]``).
    objectives:
        The minimized row fields for front extraction.
    name:
        Display name carried onto the report.
    """

    space: SearchSpace = field(default_factory=SearchSpace)
    sampler: str = "grid"
    sampler_options: dict = field(default_factory=dict)
    store_path: str | None = None
    workers: int | str | None = None
    max_points: int | None = None
    objectives: tuple[str, ...] = DEFAULT_OBJECTIVES
    name: str = "exploration"

    def __post_init__(self) -> None:
        if isinstance(self.space, dict):
            self.space = SearchSpace.from_dict(self.space)
        self.sampler = str(self.sampler)
        SAMPLERS.get(self.sampler)
        self.objectives = tuple(str(o) for o in self.objectives)
        if not self.objectives:
            raise ValidationError("objectives must name at least one row field")
        if self.max_points is not None:
            self.max_points = int(self.max_points)
            if self.max_points <= 0:
                raise ValidationError("max_points must be positive")


class Explorer:
    """Expand, evaluate and refine a :class:`SearchSpace` into a report.

    Parameters
    ----------
    space:
        The design space (or an :class:`ExploreConfig`, which supplies every
        other parameter as defaults).
    sampler / sampler_options / store / workers / max_points / objectives / name:
        As on :class:`ExploreConfig`; ``store`` also accepts a live
        :class:`~repro.explore.store.ResultStore` instance.
    """

    def __init__(
        self,
        space: SearchSpace | ExploreConfig,
        sampler: str | None = None,
        *,
        sampler_options: dict | None = None,
        store: ResultStore | str | None = None,
        workers: int | str | None = None,
        max_points: int | None = None,
        objectives: tuple[str, ...] | None = None,
        name: str | None = None,
    ):
        if isinstance(space, ExploreConfig):
            config = space
            self.space = config.space
            self.sampler = sampler or config.sampler
            self.sampler_options = dict(
                config.sampler_options if sampler_options is None else sampler_options
            )
            self.store = as_store(store if store is not None else config.store_path)
            self.workers = workers if workers is not None else config.workers
            self.max_points = max_points if max_points is not None else config.max_points
            self.objectives = tuple(objectives or config.objectives)
            self.name = name or config.name
        else:
            self.space = space
            self.sampler = sampler or "grid"
            self.sampler_options = dict(sampler_options or {})
            self.store = as_store(store)
            self.workers = workers
            self.max_points = max_points
            self.objectives = tuple(objectives or DEFAULT_OBJECTIVES)
            self.name = name or "exploration"
        SAMPLERS.get(self.sampler)

    # ------------------------------------------------------------------
    def _flat_row(self, point: ExplorePoint, key: str | None, row: ExperimentRow) -> dict:
        data = row.to_dict()
        metrics = data.pop("metrics", {})
        # The unit's algorithm duplicates the point's synthesizer coordinate.
        data.pop("algorithm", None)
        data.pop("case_study", None)
        data.pop("backend", None)
        flat = {**point.coordinates(), **data, **metrics, "key": key}
        far = flat.get("false_alarm_rate")
        flat["feasible"] = row.error is None and (
            far is None or far <= point.far_budget + 1e-12
        )
        return flat

    # ------------------------------------------------------------------
    def _build_sampler(self):
        """Instantiate the sampler, forwarding the run's objectives.

        Samplers that look at metrics (adaptive bisection) must compare the
        same objectives the front is extracted over; explicit
        ``sampler_options`` still win.
        """
        factory = SAMPLERS.get(self.sampler)
        options = dict(self.sampler_options)
        try:
            parameters = inspect.signature(factory).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            parameters = {}
        if "objectives" in parameters:
            options.setdefault("objectives", self.objectives)
        return factory(**options)

    def run(self) -> ExplorationReport:
        """Drive the sampler to exhaustion and return the aggregated report."""
        sampler = self._build_sampler()
        runner = BatchRunner(None, workers=self.workers, store=self.store)
        hits_before = self.store.hits if self.store is not None else 0
        misses_before = self.store.misses if self.store is not None else 0

        registry = get_registry()
        points_counter = registry.counter(
            "explore_points_total", help="Design points accepted for evaluation."
        )
        units_counter = registry.counter(
            "explore_units_total", help="Units lowered from design points."
        )
        rounds_counter = registry.counter(
            "explore_rounds_total", help="Sampler rounds (initial + refinements)."
        )
        proposals_counter = registry.counter(
            "explore_proposals_total",
            help="Points proposed by the sampler, duplicates included.",
        )

        rows: list[dict] = []
        seen: set[ExplorePoint] = set()
        stats = {
            "points": 0,
            "units": 0,
            "units_executed": 0,
            "rounds": 0,
            "truncated": False,
        }

        pending = sampler.initial(self.space)
        while pending:
            proposals_counter.inc(len(pending), sampler=self.sampler)
            batch = [point for point in pending if point not in seen]
            if not batch:
                break
            if self.max_points is not None:
                room = self.max_points - stats["points"]
                if room <= 0:
                    stats["truncated"] = True
                    break
                if len(batch) > room:
                    batch = batch[:room]
                    stats["truncated"] = True
            seen.update(batch)
            stats["points"] += len(batch)
            stats["rounds"] += 1
            points_counter.inc(len(batch), sampler=self.sampler)
            rounds_counter.inc(sampler=self.sampler)

            # Points differing only in far_budget lower to the same unit:
            # evaluate once, emit one row per point.
            units: list = []
            grouped_points: list[list[ExplorePoint]] = []
            unit_index: dict[str, int] = {}
            for point in batch:
                unit = self.space.unit(point)
                unit_key = canonical_config_key(unit.to_dict())
                index = unit_index.get(unit_key)
                if index is None:
                    unit_index[unit_key] = len(units)
                    units.append(unit)
                    grouped_points.append([point])
                else:
                    grouped_points[index].append(point)
            stats["units"] += len(units)

            units_counter.inc(len(units), sampler=self.sampler)

            # A store miss inside run_units is exactly a fresh execution
            # (error rows included; they also re-run on resume).
            batch_misses = self.store.misses if self.store is not None else 0
            with span("explore.round", sampler=self.sampler, round=stats["rounds"]):
                pairs = runner.run_units(units)
            stats["units_executed"] += (
                self.store.misses - batch_misses if self.store is not None else len(units)
            )
            for (key, row), points in zip(pairs, grouped_points):
                for point in points:
                    rows.append(self._flat_row(point, key, row))

            pending = sampler.refine(self.space, rows)

        if self.store is not None:
            stats["store_hits"] = self.store.hits - hits_before
            stats["store_misses"] = self.store.misses - misses_before
            # Units that missed as full rows but found their synthesis half
            # on disk: executed with zero solver calls (evaluation only).
            stats["synthesis_reused"] = runner.synthesis_reused
        return ExplorationReport(
            name=self.name,
            space=self.space,
            sampler=self.sampler,
            objectives=self.objectives,
            rows=rows,
            stats=stats,
        )


def run_exploration(config: ExploreConfig | SearchSpace | dict, **overrides) -> ExplorationReport:
    """One-call entry point: build an :class:`Explorer` and run it.

    ``config`` may be an :class:`ExploreConfig` (or its ``to_dict`` /
    ``from_json`` form) or a bare :class:`SearchSpace`; keyword overrides
    (``store=``, ``workers=``, ``sampler=``, ...) pass through to
    :class:`Explorer`.
    """
    if isinstance(config, dict):
        config = ExploreConfig.from_dict(config)
    sampler = overrides.pop("sampler", None)
    return Explorer(config, sampler, **overrides).run()
