"""Declarative design spaces and the samplers that walk them.

A :class:`SearchSpace` names the axes of a design-space exploration — case
studies, synthesis algorithms, backends, online detector forms, horizons,
benign-noise scales, threshold floors and FAR budgets — as plain registry
names and numbers, so a whole exploration is JSON round-trippable the same
way one :class:`~repro.api.config.ExperimentSpec` is.

Every coordinate combination is an :class:`ExplorePoint`; the space knows
how to lower a point into the :class:`~repro.api.config.ExperimentUnit` the
batch runner executes.  The ``far_budget`` axis is deliberately *not* part
of that unit: it caps the acceptable false-alarm rate when fronts are
extracted, but does not change the computation, so points differing only in
budget share one content-addressed store entry.

Samplers decide which points to evaluate and in what order.  They are
plugins (``@SAMPLERS.register`` / ``SAMPLERS.available()`` in
:mod:`repro.registry`); two ship with the library:

* ``grid`` — exhaustive enumeration of the full cartesian product;
* ``adaptive-bisection`` — evaluates the corners of the numeric box first,
  then recursively bisects only those grid intervals whose endpoint metrics
  differ, skipping the interior of constant plateaus.  Threshold synthesis
  responds piecewise-constantly to floors and Monte-Carlo FAR to noise
  scales, so large plateaus are the common case and the sampler typically
  recovers the exhaustive grid's Pareto front with a fraction of the
  synthesis calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.api.config import ExperimentUnit, FARConfig, RelaxConfig, _PlainData
from repro.registry import (
    ATTACK_TEMPLATES,
    BACKENDS,
    CASE_STUDIES,
    DETECTORS,
    SAMPLERS,
    SYNTHESIZERS,
)
from repro.utils.validation import ValidationError

#: Detector forms a synthesized threshold can be deployed as for the
#: online latency probe (see :func:`repro.api.runner._run_probe`).
PROBE_DETECTORS = ("online-residue", "online-cusum")

#: Objectives every sampler and front extraction minimizes by default.
DEFAULT_OBJECTIVES = ("false_alarm_rate", "mean_detection_latency", "stealth_margin")


@dataclass(frozen=True)
class ExplorePoint:
    """One coordinate combination of a :class:`SearchSpace`.

    ``horizon=None`` means "the case study's own default horizon".  Points
    are frozen/hashable so samplers can dedupe proposals across rounds.
    """

    case_study: str
    synthesizer: str
    backend: str
    detector: str
    horizon: int | None
    noise_scale: float
    min_threshold: float
    far_budget: float

    def coordinates(self) -> dict:
        """The point as a plain dict (the coordinate part of a result row)."""
        return {
            "case_study": self.case_study,
            "synthesizer": self.synthesizer,
            "backend": self.backend,
            "detector": self.detector,
            "horizon": self.horizon,
            "noise_scale": self.noise_scale,
            "min_threshold": self.min_threshold,
            "far_budget": self.far_budget,
        }


def _float_axis(label: str, values) -> tuple[float, ...]:
    result = tuple(sorted({float(v) for v in values}))
    if not result:
        raise ValidationError(f"{label} must hold at least one value")
    return result


@dataclass
class SearchSpace(_PlainData):
    """A declarative design space over the paper's trade-off axes.

    Axis parameters (each a tuple; the grid is their cartesian product)
    ----------------------------------------------------------------------
    case_studies / synthesizers / backends:
        Registry names of the plants, threshold-synthesis algorithms and
        solver backends to sweep.
    detectors:
        Online deployment forms for the latency probe (from
        :data:`PROBE_DETECTORS`).
    horizons:
        Analysis horizons ``T`` (empty tuple = each case study's default).
    noise_scales:
        Benign measurement-noise envelopes, as sigma multiples of the
        plant's measurement noise (drives both the FAR study and the probe).
    min_thresholds:
        Threshold floors passed to the synthesizers — the paper's knob that
        trades stealthy-attack margin against false alarms.
    far_budgets:
        Acceptable FAR caps; a point whose measured FAR exceeds its budget
        is infeasible for front extraction.  Not part of the computation
        (and therefore not of the store key).

    Shared settings (identical for every point)
    ----------------------------------------------------------------------
    max_rounds:
        Safety cap on synthesis rounds per point.
    relax:
        Optional declarative relaxation stage applied to every synthesized
        point before FAR evaluation and probing: a
        :class:`~repro.api.config.RelaxConfig` (or its dict form, or
        ``True`` for the defaults).  Part of each unit's *synthesis* key —
        relaxation issues solver calls, so its outcome is cached and reused
        alongside the raw synthesis.
    far_count / far_seed / filter_pfc / filter_mdc:
        The Monte-Carlo FAR population (``far_count=0`` disables FAR).
    probe_instances:
        Fleet size of the online detection-latency probe (0 disables it).
    probe_horizon:
        Probe fleet horizon (``None`` = the problem's horizon).
    probe_attack / probe_attack_options / probe_attack_start:
        The scheduled attack the probe injects.  A ``bias`` template with no
        explicit magnitude is scaled per candidate (see ``probe_biases``).
    probe_biases:
        The attack ladder: for a ``bias`` probe with no explicit magnitude,
        the fleet is probed once per rung at ``multiplier x`` the
        candidate's mean threshold, yielding per-rung
        ``mean_detection_latency_x<m>`` columns plus rung-averaged
        aggregates — near-threshold rungs make the latency objective
        actually vary across the front.  An empty tuple restores the single
        3x probe.
    probe_seed:
        Seed of the probe fleet's noise streams.
    """

    case_studies: tuple[str, ...] = ("dcmotor",)
    synthesizers: tuple[str, ...] = ("stepwise",)
    backends: tuple[str, ...] = ("lp",)
    detectors: tuple[str, ...] = ("online-residue",)
    horizons: tuple[int, ...] = ()
    noise_scales: tuple[float, ...] = (1.0,)
    min_thresholds: tuple[float, ...] = (0.0,)
    far_budgets: tuple[float, ...] = (1.0,)
    max_rounds: int = 150
    relax: RelaxConfig | None = None
    far_count: int = 100
    far_seed: int = 0
    filter_pfc: bool = False
    filter_mdc: bool = False
    probe_instances: int = 24
    probe_horizon: int | None = None
    probe_attack: str = "bias"
    probe_attack_options: dict = field(default_factory=dict)
    probe_attack_start: int = 2
    probe_biases: tuple[float, ...] = (1.1, 1.5, 3.0)
    probe_seed: int = 0

    def __post_init__(self) -> None:
        for label, names, registry in (
            ("case_studies", self.case_studies, CASE_STUDIES),
            ("synthesizers", self.synthesizers, SYNTHESIZERS),
            ("backends", self.backends, BACKENDS),
            ("detectors", self.detectors, DETECTORS),
        ):
            names = tuple(str(n) for n in (names if not isinstance(names, str) else (names,)))
            if not names:
                raise ValidationError(f"{label} must name at least one entry")
            unknown = set(names) - set(registry.available())
            if unknown:
                raise ValidationError(
                    f"unknown {label} {sorted(unknown)}; "
                    f"available: {', '.join(registry.available())}"
                )
            setattr(self, label, names)
        unsupported = set(self.detectors) - set(PROBE_DETECTORS)
        if unsupported:
            raise ValidationError(
                f"detectors {sorted(unsupported)} cannot be deployed from a "
                f"synthesized threshold; supported: {', '.join(PROBE_DETECTORS)}"
            )
        self.horizons = tuple(sorted({int(h) for h in self.horizons}))
        if any(h <= 0 for h in self.horizons):
            raise ValidationError("horizons must be positive")
        self.noise_scales = _float_axis("noise_scales", self.noise_scales)
        self.min_thresholds = _float_axis("min_thresholds", self.min_thresholds)
        if any(v < 0 for v in self.min_thresholds):
            raise ValidationError("min_thresholds must be non-negative")
        self.far_budgets = _float_axis("far_budgets", self.far_budgets)
        self.max_rounds = int(self.max_rounds)
        self.far_count = int(self.far_count)
        if self.far_count < 0:
            raise ValidationError("far_count must be non-negative")
        self.probe_instances = int(self.probe_instances)
        if self.probe_instances < 0:
            raise ValidationError("probe_instances must be non-negative")
        if self.probe_attack not in ATTACK_TEMPLATES:
            raise ValidationError(
                f"unknown probe attack template {self.probe_attack!r}; "
                f"available: {', '.join(ATTACK_TEMPLATES.available())}"
            )
        if self.relax is True:
            self.relax = RelaxConfig()
        elif self.relax is False:
            self.relax = None
        elif isinstance(self.relax, dict):
            self.relax = RelaxConfig.from_dict(self.relax)
        self.probe_biases = tuple(sorted({float(b) for b in self.probe_biases}))
        if any(b <= 0 for b in self.probe_biases):
            raise ValidationError("probe_biases must be positive multipliers")

    # ------------------------------------------------------------------
    def axes(self) -> dict[str, tuple]:
        """Axis name → values, in grid-expansion order."""
        return {
            "case_study": self.case_studies,
            "synthesizer": self.synthesizers,
            "backend": self.backends,
            "detector": self.detectors,
            "horizon": self.horizons or (None,),
            "noise_scale": self.noise_scales,
            "min_threshold": self.min_thresholds,
            "far_budget": self.far_budgets,
        }

    @property
    def size(self) -> int:
        """Number of points in the full grid."""
        size = 1
        for values in self.axes().values():
            size *= len(values)
        return size

    def points(self) -> list[ExplorePoint]:
        """The full cartesian product, in axis order."""
        axes = self.axes()
        return [
            ExplorePoint(**dict(zip(axes.keys(), combo)))
            for combo in itertools.product(*axes.values())
        ]

    # ------------------------------------------------------------------
    def unit(self, point: ExplorePoint) -> ExperimentUnit:
        """Lower a point into the executable batch-runner unit.

        The unit's ``to_dict()`` payload is the point's content address;
        everything that changes the computation must flow through here (and
        ``far_budget``, which does not, must not).
        """
        options = {}
        if point.horizon is not None:
            options["horizon"] = point.horizon
        far = None
        if self.far_count > 0:
            far = FARConfig(
                count=self.far_count,
                seed=self.far_seed,
                noise_scale=point.noise_scale,
                filter_pfc=self.filter_pfc,
                filter_mdc=self.filter_mdc,
            )
        probe = None
        if self.probe_instances > 0:
            probe = {
                "detector": point.detector,
                "n_instances": self.probe_instances,
                "horizon": self.probe_horizon,
                "noise_scale": point.noise_scale,
                "attack": {
                    "template": self.probe_attack,
                    "options": dict(self.probe_attack_options),
                    "start": self.probe_attack_start,
                },
                "seed": self.probe_seed,
            }
            # The attack ladder only applies to auto-scaled bias probes; for
            # any other template the biases would not change the computation
            # and therefore must stay out of the content address.
            if (
                self.probe_biases
                and self.probe_attack == "bias"
                and "bias" not in self.probe_attack_options
            ):
                probe["biases"] = list(self.probe_biases)
        return ExperimentUnit(
            case_study=point.case_study,
            backend=point.backend,
            algorithm=point.synthesizer,
            case_study_options=options,
            max_rounds=self.max_rounds,
            min_threshold=point.min_threshold,
            relax=self.relax,
            far=far,
            probe=probe,
        )


# ----------------------------------------------------------------------
# Samplers.
# ----------------------------------------------------------------------
class Sampler:
    """Iteration protocol every design-space sampler implements.

    :meth:`initial` proposes the first batch of points; after each batch is
    evaluated the engine calls :meth:`refine` with every result row so far
    (flat dicts: coordinates + outcome + metrics) and evaluates whatever it
    returns, until a round proposes nothing new.
    """

    def initial(self, space: SearchSpace) -> list[ExplorePoint]:
        raise NotImplementedError

    def refine(self, space: SearchSpace, rows: list[dict]) -> list[ExplorePoint]:
        raise NotImplementedError


@SAMPLERS.register("grid")
class GridSampler(Sampler):
    """Exhaustive enumeration of the full cartesian product."""

    def initial(self, space: SearchSpace) -> list[ExplorePoint]:
        return space.points()

    def refine(self, space: SearchSpace, rows: list[dict]) -> list[ExplorePoint]:
        return []


#: Numeric axes the adaptive sampler bisects, in coordinate order.
_NUMERIC_AXES = ("horizon", "noise_scale", "min_threshold")
_CATEGORICAL_AXES = ("case_study", "synthesizer", "backend", "detector")


@SAMPLERS.register("adaptive-bisection")
class AdaptiveBisectionSampler(Sampler):
    """Recursive interval bisection along the numeric grid axes.

    The first batch is the cartesian product of the categorical axes with
    the *endpoints* of every numeric axis (the corners of the numeric box).
    Each refinement round then looks at every 1-D grid line through the
    evaluated points and, for each pair of adjacent evaluated values with
    unevaluated grid values between them, proposes the midpoint **iff** the
    two endpoint rows disagree — different status, or any objective
    differing by more than ``tolerance``.  Intervals whose endpoints agree
    are taken to be plateaus and their interior is never evaluated.

    The proposal set is always a subset of the grid, so the sampler
    degrades to the exhaustive grid in the worst case and terminates after
    at most ``log2(axis length)`` rounds per variation region.  Fronts match
    the exhaustive grid exactly whenever equal-endpoint intervals really
    are constant — the case for threshold synthesis (piecewise-constant in
    the floor) and fixed-seed Monte-Carlo FAR (plateaus in the noise
    scale).  A response that dips strictly inside an equal-endpoint
    interval is the documented blind spot; lower ``tolerance`` and denser
    grids shrink it.

    Parameters
    ----------
    objectives:
        Row fields compared between interval endpoints (default
        :data:`DEFAULT_OBJECTIVES`).
    tolerance:
        Absolute per-objective difference below which two rows count as
        equal (default ``0.0`` — exact agreement, the right choice for the
        library's deterministic seeded metrics).
    """

    def __init__(self, objectives=DEFAULT_OBJECTIVES, tolerance: float = 0.0):
        self.objectives = tuple(objectives)
        self.tolerance = float(tolerance)

    # ------------------------------------------------------------------
    def initial(self, space: SearchSpace) -> list[ExplorePoint]:
        axes = space.axes()
        numeric_choices = []
        for name in _NUMERIC_AXES:
            values = axes[name]
            endpoints = (values[0], values[-1]) if len(values) > 1 else (values[0],)
            numeric_choices.append(tuple(dict.fromkeys(endpoints)))
        combos = itertools.product(
            *(axes[name] for name in _CATEGORICAL_AXES),
            *numeric_choices,
            axes["far_budget"],
        )
        names = _CATEGORICAL_AXES + _NUMERIC_AXES + ("far_budget",)
        return [ExplorePoint(**dict(zip(names, combo))) for combo in combos]

    # ------------------------------------------------------------------
    def _signature(self, row: dict) -> tuple:
        values = [row.get("status")]
        for objective in self.objectives:
            values.append(row.get(objective))
        return tuple(values)

    def _agree(self, a: tuple, b: tuple) -> bool:
        for x, y in zip(a, b):
            if x is None or y is None or isinstance(x, str) or isinstance(y, str):
                if x != y:
                    return False
            elif abs(float(x) - float(y)) > self.tolerance:
                return False
        return True

    def refine(self, space: SearchSpace, rows: list[dict]) -> list[ExplorePoint]:
        axes = space.axes()
        # One signature per computational coordinate (rows duplicated across
        # far budgets share their metrics; first one wins).
        evaluated: dict[tuple, tuple] = {}
        for row in rows:
            coord = tuple(row[name] for name in _CATEGORICAL_AXES + _NUMERIC_AXES)
            evaluated.setdefault(coord, self._signature(row))

        proposals: set[tuple] = set()
        n_cat = len(_CATEGORICAL_AXES)
        for axis_offset, axis_name in enumerate(_NUMERIC_AXES):
            values = axes[axis_name]
            if len(values) < 2:
                continue
            position = {value: index for index, value in enumerate(values)}
            axis_index = n_cat + axis_offset
            lines: dict[tuple, list[tuple]] = {}
            for coord, signature in evaluated.items():
                line_key = coord[:axis_index] + coord[axis_index + 1 :]
                lines.setdefault(line_key, []).append(
                    (position[coord[axis_index]], signature)
                )

            for line_key, entries in lines.items():
                entries.sort(key=lambda item: item[0])

                def coord_at(index: int) -> tuple:
                    return (
                        line_key[:axis_index]
                        + (values[index],)
                        + line_key[axis_index:]
                    )

                # A line opened by another axis' refinement gets its own
                # endpoints before any bisection happens on it.
                if entries[0][0] != 0:
                    proposals.add(coord_at(0))
                if entries[-1][0] != len(values) - 1:
                    proposals.add(coord_at(len(values) - 1))
                for (low, sig_low), (high, sig_high) in zip(entries, entries[1:]):
                    if high - low > 1 and not self._agree(sig_low, sig_high):
                        proposals.add(coord_at((low + high) // 2))

        names = _CATEGORICAL_AXES + _NUMERIC_AXES
        points = []
        for coord in sorted(proposals, key=repr):
            if coord in evaluated:
                continue
            base = dict(zip(names, coord))
            for budget in axes["far_budget"]:
                points.append(ExplorePoint(**base, far_budget=budget))
        return points
