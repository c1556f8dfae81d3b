"""Declarative, JSON-serializable experiment configuration objects.

Three dataclasses describe an experiment as plain data:

* :class:`SynthesisConfig` — which algorithms to run, on which backend, with
  which refinement knobs;
* :class:`FARConfig` — how to build the benign-noise population for the
  false-alarm-rate study;
* :class:`ExperimentSpec` — a full sweep grid (case studies × backends ×
  algorithms) plus the shared synthesis/FAR settings, the input of
  :func:`repro.api.runner.run_experiments`.

Every config round-trips losslessly through ``to_dict()``/``from_dict()``
and ``to_json()``/``from_json()``, all four derived once from the dataclass
fields (:class:`_PlainData`), so sweeps can be stored in version control,
shipped to worker processes, and rebuilt anywhere.  All component
references are *names* resolved through the shared registries in
:mod:`repro.registry`, which keeps the configs plain data and lets
downstream users sweep their own registered components.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from dataclasses import dataclass, field

import numpy as np

from repro.registry import (
    ATTACK_TEMPLATES,
    BACKENDS,
    CASE_STUDIES,
    DETECTORS,
    ENGINES,
    NOISE_MODELS,
    SYNTHESIZERS,
)
from repro.serve.backpressure import POLICIES as SINK_POLICIES
from repro.serve.service import OVERFLOW_POLICIES, RESIDUE_SOURCES
from repro.utils.validation import ValidationError


def _constructor_params(factory) -> tuple[set[str], bool]:
    """Parameter names accepted by ``factory`` and whether it takes ``**kwargs``."""
    if dataclasses.is_dataclass(factory):
        return {f.name for f in dataclasses.fields(factory)}, False
    signature = inspect.signature(factory)
    accepts_var = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in signature.parameters.values()
    )
    names = {
        name
        for name, p in signature.parameters.items()
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    return names, accepts_var


def _filtered_kwargs(factory, kwargs: dict) -> dict:
    """Drop kwargs the factory does not accept (synthesizers vary in knobs)."""
    supported, accepts_var = _constructor_params(factory)
    if accepts_var:
        return dict(kwargs)
    return {key: value for key, value in kwargs.items() if key in supported}


def _name_tuple(label: str, values) -> tuple[str, ...]:
    if isinstance(values, str):
        values = (values,)
    result = tuple(str(value) for value in values)
    if not result:
        raise ValidationError(f"{label} must name at least one entry")
    return result


def _plain(value):
    """The JSON-compatible form of one field value (see :class:`_PlainData`)."""
    if isinstance(value, _PlainData):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class _PlainData:
    """A dataclass's plain-data form, derived from its fields.

    ``to_dict`` maps every field, in declaration order, to its plain form: a
    nested config becomes its own ``to_dict()``, a tuple or list a list, and
    a dict a recursive copy.  ``from_dict`` rejects unknown keys; turning
    nested dicts back into configs is each class's ``__post_init__``'s job.
    Store keys hash ``to_dict()``, so its text is pinned by
    ``tests/test_plain_data.py``.
    """

    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild from :meth:`to_dict` output (unknown keys rejected: a typo guard)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown {cls.__name__} fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)

    def to_json(self, indent: int | None = 2) -> str:
        """JSON string form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str):
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


@dataclass
class RelaxConfig(_PlainData):
    """Declarative description of the threshold-relaxation pipeline stage.

    When attached to :class:`SynthesisConfig.relax`, every synthesized
    threshold vector is post-processed by
    :class:`~repro.core.relaxation.ThresholdRelaxer` through the pipeline's
    shared :class:`~repro.core.session.SynthesisSession` before FAR
    evaluation and probe deployment: thresholds are raised wherever the
    solver certifies that no stealthy successful attack appears, which
    lowers the false-alarm rate without giving up the formal guarantee.

    ``floor`` is the explicit residual-risk knob: set thresholds below it
    are lifted *without* certification (recorded in
    ``RelaxationResult.floored_instants``), which is what un-saturates the
    FAR of un-floored synthesis on plants like the VSC whose terminal
    threshold is provably pinned at ~0.  The paper's §IV FAR numbers accept
    exactly this trade.

    Parameters
    ----------
    floor:
        Optional uncertified lower bound on set thresholds (``None`` keeps
        relaxation fully solver-certified).
    preserve_monotonicity:
        Never raise a threshold above its predecessor (default True), so
        monotonically decreasing vectors stay monotone.
    raise_cap:
        Optional absolute ceiling on raised values.
    verify_input:
        Re-verify that each input vector is safe before relaxing it
        (default False — synthesis output is already certified when it
        converged).
    """

    floor: float | None = None
    preserve_monotonicity: bool = True
    raise_cap: float | None = None
    verify_input: bool = False

    def __post_init__(self) -> None:
        if self.floor is not None:
            self.floor = float(self.floor)
            if self.floor < 0:
                raise ValidationError("floor must be non-negative")
        if self.raise_cap is not None:
            self.raise_cap = float(self.raise_cap)
        if (
            self.floor is not None
            and self.raise_cap is not None
            and self.floor > self.raise_cap
        ):
            raise ValidationError(
                f"floor ({self.floor}) must not exceed raise_cap ({self.raise_cap}): "
                "the floor would silently lift thresholds above the declared ceiling"
            )
        self.preserve_monotonicity = bool(self.preserve_monotonicity)
        self.verify_input = bool(self.verify_input)


@dataclass
class SynthesisConfig(_PlainData):
    """Declarative description of one threshold-synthesis run.

    Parameters
    ----------
    algorithms:
        Synthesizer names from :data:`repro.registry.SYNTHESIZERS`
        (built-ins: ``"pivot"``, ``"stepwise"``, ``"static"``).
    backend:
        Backend name from :data:`repro.registry.BACKENDS`.
    max_rounds:
        Safety cap on Algorithm 1 calls per synthesizer.
    min_threshold:
        Floor below which thresholds are never placed (ignored by
        synthesizers that do not take it, e.g. the static baseline).
    time_budget_per_call:
        Optional per-call wall-clock budget in seconds.
    backend_options:
        Constructor kwargs for the backend (e.g. ``{"margin_mode": "none"}``).
    algorithm_options:
        Per-algorithm constructor overrides, keyed by algorithm name
        (e.g. ``{"pivot": {"pivot_rule": "first-violation"}}``).
    relax:
        Optional :class:`RelaxConfig` (or its ``to_dict`` form): when set,
        every synthesized threshold is relaxed through the shared synthesis
        session before FAR evaluation, and reports carry both the raw and
        the relaxed vector.
    """

    algorithms: tuple[str, ...] = ("pivot", "stepwise", "static")
    backend: str = "lp"
    max_rounds: int = 500
    min_threshold: float = 0.0
    time_budget_per_call: float | None = None
    backend_options: dict = field(default_factory=dict)
    algorithm_options: dict = field(default_factory=dict)
    relax: RelaxConfig | None = None

    def __post_init__(self) -> None:
        self.algorithms = _name_tuple("algorithms", self.algorithms)
        unknown = set(self.algorithms) - set(SYNTHESIZERS.available())
        if unknown:
            raise ValidationError(
                f"unknown algorithms {sorted(unknown)}; "
                f"available: {', '.join(SYNTHESIZERS.available())}"
            )
        self.backend = str(self.backend)
        BACKENDS.get(self.backend)
        unknown_options = set(self.algorithm_options) - set(self.algorithms)
        if unknown_options:
            raise ValidationError(
                f"algorithm_options given for algorithms not in the run: "
                f"{sorted(unknown_options)}"
            )
        self.max_rounds = int(self.max_rounds)
        self.min_threshold = float(self.min_threshold)
        if isinstance(self.relax, dict):
            self.relax = RelaxConfig.from_dict(self.relax)

    # ------------------------------------------------------------------
    def build_backend(self):
        """Instantiate the configured backend."""
        return BACKENDS.create(self.backend, **self.backend_options)

    def build_relaxer(self, backend=None):
        """Instantiate the :class:`~repro.core.relaxation.ThresholdRelaxer`.

        ``backend`` (an instance) overrides the configured backend name so
        relaxation shares the pipeline's solver; returns ``None`` when no
        ``relax`` stage is configured.
        """
        if self.relax is None:
            return None
        from repro.core.relaxation import ThresholdRelaxer

        return ThresholdRelaxer(
            backend=backend if backend is not None else self.backend,
            time_budget_per_call=self.time_budget_per_call,
            preserve_monotonicity=self.relax.preserve_monotonicity,
            raise_cap=self.relax.raise_cap,
            floor=self.relax.floor,
        )

    def build_synthesizer(self, name: str, backend=None):
        """Instantiate the synthesizer registered under ``name``.

        ``backend`` (an instance) overrides the configured backend name so
        one solver instance can be shared across algorithms.  Only the
        *shared* config knobs are dropped when a synthesizer does not accept
        them (the static baseline has no ``min_threshold``, for instance);
        explicit ``algorithm_options`` entries are passed through unfiltered
        so a misspelled option fails loudly instead of being ignored.
        """
        factory = SYNTHESIZERS.get(name)
        shared = {
            "backend": backend if backend is not None else self.backend,
            "max_rounds": self.max_rounds,
            "min_threshold": self.min_threshold,
            "time_budget_per_call": self.time_budget_per_call,
        }
        kwargs = _filtered_kwargs(factory, shared)
        kwargs.update(self.algorithm_options.get(name, {}))
        return factory(**kwargs)


@dataclass
class FARConfig(_PlainData):
    """Declarative description of one false-alarm-rate study.

    Parameters
    ----------
    count:
        Number of benign noise vectors to draw (0 disables the study).
    seed:
        RNG seed for the population.
    noise_model:
        Optional noise-model name from :data:`repro.registry.NOISE_MODELS`;
        ``None`` uses the evaluator's default (bounded uniform noise at
        ``noise_scale`` sigma of the plant's measurement noise).
    noise_options:
        Constructor kwargs for the named noise model (e.g. ``{"bounds":
        [0.01, 0.02]}``).
    noise_scale:
        Sigma multiple for the default noise model (ignored when
        ``noise_model`` is given).
    include_process_noise / filter_pfc / filter_mdc:
        Forwarded to :class:`~repro.core.far.FalseAlarmEvaluator`.
    initial_state_spread:
        Optional per-state half-widths of the initial-state box (list of
        floats, one per plant state).
    """

    count: int = 200
    seed: int | None = 0
    noise_model: str | None = None
    noise_options: dict = field(default_factory=dict)
    noise_scale: float = 1.0
    include_process_noise: bool = False
    filter_pfc: bool = True
    filter_mdc: bool = True
    initial_state_spread: list[float] | None = None

    def __post_init__(self) -> None:
        self.count = int(self.count)
        if self.count < 0:
            raise ValidationError("count must be non-negative")
        if self.noise_model is not None:
            self.noise_model = str(self.noise_model)
            NOISE_MODELS.get(self.noise_model)
        if self.initial_state_spread is not None:
            self.initial_state_spread = [
                float(v) for v in np.asarray(self.initial_state_spread, dtype=float).reshape(-1)
            ]

    # ------------------------------------------------------------------
    def build_evaluator(self, problem):
        """Construct the :class:`~repro.core.far.FalseAlarmEvaluator` for ``problem``."""
        from repro.core.far import FalseAlarmEvaluator

        noise = None
        if self.noise_model is not None:
            noise = NOISE_MODELS.create(self.noise_model, **self.noise_options)
        if noise is None and self.noise_scale != 1.0:
            noise = FalseAlarmEvaluator.default_noise_model(problem, scale=self.noise_scale)
        spread = None
        if self.initial_state_spread is not None:
            spread = np.asarray(self.initial_state_spread, dtype=float)
        return FalseAlarmEvaluator(
            problem,
            noise_model=noise,
            count=self.count,
            seed=self.seed,
            include_process_noise=self.include_process_noise,
            filter_pfc=self.filter_pfc,
            filter_mdc=self.filter_mdc,
            initial_state_spread=spread,
        )


_ATTACK_SCHEDULE_KEYS = {"template", "options", "instances", "fraction", "start", "label"}


def _normalize_detector_specs(detectors: dict) -> dict:
    """Validate ``label -> {"name", "options"}`` detector entries against the registry.

    Shared by :class:`RuntimeConfig` and :class:`ServiceConfig`.  A bare name
    string is accepted as shorthand for ``{"name": name}``; unknown entry
    keys and unregistered detector names are rejected.
    """
    normalized = {}
    for label, spec in detectors.items():
        if isinstance(spec, str):
            spec = {"name": spec}
        unknown = set(spec) - {"name", "options"}
        if unknown:
            raise ValidationError(
                f"unknown detector entry keys {sorted(unknown)} for {label!r}; "
                "expected 'name' and optional 'options'"
            )
        if "name" not in spec:
            raise ValidationError(
                f"detector entry {label!r} needs a 'name' (one of: "
                f"{', '.join(DETECTORS.available())})"
            )
        name = str(spec["name"])
        DETECTORS.get(name)
        normalized[str(label)] = {"name": name, "options": dict(spec.get("options", {}))}
    return normalized


def _check_engine(engine) -> str:
    """An unknown engine name fails at config time (:class:`RuntimeConfig`)."""
    engine = str(engine)
    ENGINES.get(engine)
    return engine


@dataclass
class RuntimeConfig(_PlainData):
    """Declarative description of one fleet-monitoring run (``run_fleet``).

    Parameters
    ----------
    n_instances:
        Fleet size ``N``.
    horizon:
        Sampling instances to step; ``None`` uses the problem's horizon.
    case_study / case_study_options:
        Registry name (and builder kwargs) of the problem to deploy on;
        optional when a problem is passed to ``run_fleet`` directly.
    synthesis:
        Optional :class:`SynthesisConfig`; each configured algorithm's
        synthesized threshold is deployed as an online residue detector
        labelled by the algorithm name.
    static_thresholds:
        Extra static residue detectors, ``label -> threshold value`` (in the
        problem's residue units).
    detectors:
        Extra registry-named detectors, ``label -> {"name": ..., "options":
        {...}}`` (a bare name string is also accepted).  Chi-square entries
        may omit ``innovation_cov`` (derived from the plant's Kalman design)
        and may give ``false_alarm_probability`` instead of a threshold.
    include_mdc:
        Deploy the plant's existing monitors (``mdc``) as an online monitor
        labelled ``"mdc"``.
    noise_model / noise_options / noise_scale:
        Benign measurement-noise envelope per instance; ``None`` uses the
        FAR study's default (bounded uniform at ``noise_scale`` sigma).
    include_process_noise:
        Draw per-instance process noise from the plant's ``Q_w``.
    initial_state_spread:
        Per-state half-widths of the initial-state box (as in
        :class:`FARConfig`).
    attacks:
        Attack schedule entries: ``{"template": name, "options": {...},
        "start": k, "instances": [...] | "fraction": f, "label": ...}``.
    seed:
        Seed of the per-instance noise streams and subset draws.
    events_path:
        When set, alarm events are appended to this JSONL file.
    record_traces:
        Keep the full fleet trajectories on the report metadata (memory
        scales with ``N * horizon``; off by default).
    engine:
        Registry name of the fleet execution engine: ``"fused"`` (the
        float64 block-GEMM kernel of :mod:`repro.runtime.kernel`).  An
        unknown name fails at construction, not inside ``run_fleet``.
    """

    n_instances: int = 100
    horizon: int | None = None
    case_study: str | None = None
    case_study_options: dict = field(default_factory=dict)
    synthesis: SynthesisConfig | None = None
    static_thresholds: dict = field(default_factory=dict)
    detectors: dict = field(default_factory=dict)
    include_mdc: bool = True
    noise_model: str | None = None
    noise_options: dict = field(default_factory=dict)
    noise_scale: float = 1.0
    include_process_noise: bool = False
    initial_state_spread: list[float] | None = None
    attacks: list = field(default_factory=list)
    seed: int | None = 0
    events_path: str | None = None
    record_traces: bool = False
    engine: str = "fused"

    def __post_init__(self) -> None:
        self.n_instances = int(self.n_instances)
        if self.n_instances <= 0:
            raise ValidationError("n_instances must be positive")
        if self.horizon is not None:
            self.horizon = int(self.horizon)
            if self.horizon <= 0:
                raise ValidationError("horizon must be positive")
        if self.case_study is not None:
            self.case_study = str(self.case_study)
            CASE_STUDIES.get(self.case_study)
        if isinstance(self.synthesis, dict):
            self.synthesis = SynthesisConfig.from_dict(self.synthesis)
        self.static_thresholds = {
            str(label): float(value) for label, value in self.static_thresholds.items()
        }
        self.detectors = _normalize_detector_specs(self.detectors)
        if self.noise_model is not None:
            self.noise_model = str(self.noise_model)
            NOISE_MODELS.get(self.noise_model)
        if self.initial_state_spread is not None:
            self.initial_state_spread = [
                float(v) for v in np.asarray(self.initial_state_spread, dtype=float).reshape(-1)
            ]
        attacks = []
        for entry in self.attacks:
            entry = dict(entry)
            unknown = set(entry) - _ATTACK_SCHEDULE_KEYS
            if unknown:
                raise ValidationError(
                    f"unknown attack schedule keys {sorted(unknown)}; "
                    f"allowed: {sorted(_ATTACK_SCHEDULE_KEYS)}"
                )
            template = str(entry.get("template", ""))
            ATTACK_TEMPLATES.get(template)
            entry["template"] = template
            if "instances" in entry and "fraction" in entry:
                raise ValidationError(
                    "an attack schedule entry takes either 'instances' or 'fraction', not both"
                )
            if "instances" in entry:
                entry["instances"] = [int(i) for i in entry["instances"]]
            attacks.append(entry)
        self.attacks = attacks
        self.noise_scale = float(self.noise_scale)
        self.engine = _check_engine(self.engine)


@dataclass
class ServiceConfig(_PlainData):
    """Declarative description of one always-on monitoring service (``run_service``).

    The bank-defining half (``case_study``, ``synthesis``,
    ``static_thresholds``, ``detectors``, ``include_mdc``) matches
    :class:`RuntimeConfig` field for field and flows through the shared
    :func:`~repro.runtime.engine.build_detector_bank`; the rest configures
    the serving machinery of :class:`~repro.serve.service.MonitorService`.

    Parameters
    ----------
    case_study / case_study_options:
        Registry name (and builder kwargs) of the problem to serve; optional
        when a problem is passed to ``run_service`` directly.
    synthesis:
        Optional :class:`SynthesisConfig`; each algorithm's synthesized
        threshold is deployed under the algorithm's name.
    static_thresholds:
        Extra static residue detectors, ``label -> threshold value``.
    detectors:
        Extra registry-named detectors, ``label -> {"name": ..., "options":
        {...}}`` (a bare name string is also accepted).
    include_mdc:
        Deploy the plant's existing monitors as ``"mdc"``.
    residue_source:
        ``"observer"`` (compute residues from ingested measurements) or
        ``"ingest"`` (producer supplies residues).
    ring_capacity:
        Pending samples each instance's ring buffer holds.
    overflow:
        Ring-buffer overflow policy: ``"drop-oldest"``, ``"drop-newest"`` or
        ``"error"``.
    auto_drain:
        Drain complete rounds from inside ``ingest`` (default True).
    log_path:
        When set, the replayable service event stream is appended to this
        JSONL file; ``None`` keeps it in memory only.
    flush_every:
        Log flush cadence in events (0 defers to close).
    sink_capacity:
        When set, every sink passed to ``run_service`` is wrapped in a
        :class:`~repro.serve.backpressure.BufferedSink` of this capacity.
    sink_policy:
        The wrapped sinks' overflow policy: ``"block"``, ``"drop-oldest"``
        or ``"drop-newest"``.
    """

    case_study: str | None = None
    case_study_options: dict = field(default_factory=dict)
    synthesis: SynthesisConfig | None = None
    static_thresholds: dict = field(default_factory=dict)
    detectors: dict = field(default_factory=dict)
    include_mdc: bool = True
    residue_source: str = "observer"
    ring_capacity: int = 64
    overflow: str = "drop-oldest"
    auto_drain: bool = True
    log_path: str | None = None
    flush_every: int = 1
    sink_capacity: int | None = None
    sink_policy: str = "block"

    def __post_init__(self) -> None:
        if self.case_study is not None:
            self.case_study = str(self.case_study)
            CASE_STUDIES.get(self.case_study)
        if isinstance(self.synthesis, dict):
            self.synthesis = SynthesisConfig.from_dict(self.synthesis)
        self.static_thresholds = {
            str(label): float(value) for label, value in self.static_thresholds.items()
        }
        self.detectors = _normalize_detector_specs(self.detectors)
        self.residue_source = str(self.residue_source)
        if self.residue_source not in RESIDUE_SOURCES:
            raise ValidationError(
                f"unknown residue_source {self.residue_source!r}; "
                f"expected one of {RESIDUE_SOURCES}"
            )
        self.ring_capacity = int(self.ring_capacity)
        if self.ring_capacity <= 0:
            raise ValidationError("ring_capacity must be positive")
        self.overflow = str(self.overflow)
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValidationError(
                f"unknown overflow policy {self.overflow!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        self.auto_drain = bool(self.auto_drain)
        self.flush_every = int(self.flush_every)
        if self.flush_every < 0:
            raise ValidationError("flush_every must be non-negative")
        if self.sink_capacity is not None:
            self.sink_capacity = int(self.sink_capacity)
            if self.sink_capacity <= 0:
                raise ValidationError("sink_capacity must be positive")
        self.sink_policy = str(self.sink_policy)
        if self.sink_policy not in SINK_POLICIES:
            raise ValidationError(
                f"unknown sink_policy {self.sink_policy!r}; "
                f"expected one of {SINK_POLICIES}"
            )


@dataclass
class ExperimentUnit(_PlainData):
    """One cell of an expanded :class:`ExperimentSpec` grid.

    ``probe`` is an optional online detection-latency probe description (set
    by :class:`repro.explore.space.SearchSpace`): after synthesis, each
    algorithm's threshold is deployed on a small attacked fleet and the
    resulting detection rate / latency land in the row's ``metrics``.  See
    :func:`repro.api.runner._run_probe` for the schema.

    ``to_dict()`` is the multiprocessing payload and also the unit's content
    address: its synthesis-half fields and evaluation-half fields are hashed
    separately by :func:`repro.explore.store.split_unit_keys`, so any new
    field must be classified there as changing the synthesis or only the
    evaluation.
    """

    case_study: str
    backend: str
    algorithm: str
    case_study_options: dict = field(default_factory=dict)
    max_rounds: int = 500
    min_threshold: float = 0.0
    relax: RelaxConfig | None = None
    far: FARConfig | None = None
    probe: dict | None = None

    def __post_init__(self) -> None:
        if isinstance(self.relax, dict):
            self.relax = RelaxConfig.from_dict(self.relax)
        if isinstance(self.far, dict):
            self.far = FARConfig.from_dict(self.far)

    @property
    def label(self) -> str:
        """Stable ``case/backend/algorithm`` identifier for logs and sorting."""
        return f"{self.case_study}/{self.backend}/{self.algorithm}"

    def synthesis_config(self) -> SynthesisConfig:
        """The single-algorithm :class:`SynthesisConfig` this unit executes."""
        return SynthesisConfig(
            algorithms=(self.algorithm,),
            backend=self.backend,
            max_rounds=self.max_rounds,
            min_threshold=self.min_threshold,
            relax=self.relax,
        )


@dataclass
class ExperimentSpec(_PlainData):
    """A declarative sweep over case studies × backends × algorithms.

    Parameters
    ----------
    name:
        Human-readable experiment name (carried into the result table).
    case_studies / backends / algorithms:
        The three grid axes, as registry names.
    case_study_options:
        Per-case-study builder kwargs, keyed by case-study name
        (e.g. ``{"dcmotor": {"horizon": 10}}``).
    max_rounds / min_threshold:
        Shared synthesis knobs applied to every grid cell.
    far:
        Optional :class:`FARConfig` evaluated per cell; ``None`` skips FAR.
    """

    name: str = "experiment"
    case_studies: tuple[str, ...] = ("dcmotor",)
    backends: tuple[str, ...] = ("lp",)
    algorithms: tuple[str, ...] = ("pivot", "stepwise", "static")
    case_study_options: dict = field(default_factory=dict)
    max_rounds: int = 500
    min_threshold: float = 0.0
    far: FARConfig | None = None

    def __post_init__(self) -> None:
        self.name = str(self.name)
        self.case_studies = _name_tuple("case_studies", self.case_studies)
        self.backends = _name_tuple("backends", self.backends)
        self.algorithms = _name_tuple("algorithms", self.algorithms)
        for label, names, registry in (
            ("case study", self.case_studies, CASE_STUDIES),
            ("backend", self.backends, BACKENDS),
            ("algorithm", self.algorithms, SYNTHESIZERS),
        ):
            unknown = set(names) - set(registry.available())
            if unknown:
                raise ValidationError(
                    f"unknown {label} names {sorted(unknown)}; "
                    f"available: {', '.join(registry.available())}"
                )
        unknown_options = set(self.case_study_options) - set(self.case_studies)
        if unknown_options:
            raise ValidationError(
                f"case_study_options given for case studies not in the sweep: "
                f"{sorted(unknown_options)}"
            )
        if isinstance(self.far, dict):
            self.far = FARConfig.from_dict(self.far)
        self.max_rounds = int(self.max_rounds)
        self.min_threshold = float(self.min_threshold)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of grid cells the spec expands to."""
        return len(self.case_studies) * len(self.backends) * len(self.algorithms)

    def expand(self) -> list[ExperimentUnit]:
        """The full grid as :class:`ExperimentUnit` cells, in axis order."""
        units = []
        for case in self.case_studies:
            options = dict(self.case_study_options.get(case, {}))
            for backend in self.backends:
                for algorithm in self.algorithms:
                    units.append(
                        ExperimentUnit(
                            case_study=case,
                            backend=backend,
                            algorithm=algorithm,
                            case_study_options=options,
                            max_rounds=self.max_rounds,
                            min_threshold=self.min_threshold,
                            far=self.far,
                        )
                    )
        return units
