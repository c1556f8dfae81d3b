"""Batch execution of :class:`~repro.api.config.ExperimentSpec` sweeps.

:class:`BatchRunner` expands a spec's case-study × backend × algorithm grid
into :class:`~repro.api.config.ExperimentUnit` cells, groups the cells that
share every setting but the algorithm into one
:func:`~repro.api.execute.run_pipeline` call — so the Algorithm 1
vulnerability check, the incremental
:class:`~repro.core.session.SynthesisSession` (one encoding + solver state
for every synthesis round of every algorithm in the group) and the
Monte-Carlo FAR population are all shared once per
group instead of once per algorithm — and executes the groups either serially
(with case studies built once per name) or fanned out over a
``multiprocessing`` pool.  Each cell yields one :class:`ExperimentRow`;
failures are captured per row instead of aborting the sweep.  Rows are
sorted by ``(case_study, backend, algorithm)`` so result tables and JSON
exports are reproducible run-to-run regardless of execution order.

Two extensions serve :mod:`repro.explore`:

* heterogeneous unit lists (cells differing in horizon, synthesis knobs,
  FAR settings, ...) execute through :meth:`BatchRunner.run_units`, which
  returns rows aligned with the input units;
* a ``store=`` kwarg (path or :class:`repro.explore.store.ResultStore`)
  content-addresses every unit by the *pair* of keys
  :func:`repro.explore.store.split_unit_keys` derives from its ``to_dict()``
  payload — a synthesis key (problem + synthesizer + backend + synthesis
  knobs + relax stage) and an evaluation key (FAR population + probe):
  already-stored units are served from disk without any solver work, and a
  unit whose synthesis half is stored (an already-synthesized point being
  re-evaluated under different noise/FAR/probe settings) re-runs **only**
  the evaluation half, with zero solver calls.  Fresh clean rows and
  synthesis records are appended the moment their group completes.
  Rows carrying any failure — a cell error or a best-effort probe error —
  are never persisted, so transient failures re-run on the next attempt.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from repro.api.config import ExperimentSpec, ExperimentUnit, FARConfig, SynthesisConfig, _PlainData
from repro.api.execute import run_pipeline, synthesis_record
from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry, get_registry, metrics_enabled, use_registry
from repro.registry import CASE_STUDIES
from repro.utils.cpus import default_workers
from repro.utils.validation import ValidationError


def _resolve_workers(workers) -> int:
    """Normalize the ``workers`` argument (``"auto"`` → CPU affinity count)."""
    if workers == "auto":
        return default_workers()
    return int(workers) if workers else 0


@dataclass
class ExperimentRow(_PlainData):
    """Outcome of one grid cell (all fields JSON-native).

    ``status`` is the final solver verdict (``"sat"``/``"unsat"``/
    ``"unknown"``) or ``"error"`` when the cell raised; in the latter case
    ``error`` holds the exception summary and the metric fields stay ``None``.
    ``metrics`` carries auxiliary JSON-native measurements: the synthesized
    detector's ``stealth_margin`` (mean finite threshold — the residue room
    a stealthy attacker retains) and, when the unit requested an online
    probe, ``detection_rate`` / ``mean_detection_latency`` from deploying
    the synthesized threshold on a small attacked fleet.
    """

    case_study: str
    backend: str
    algorithm: str
    status: str = "unknown"
    vulnerable: bool | None = None
    converged: bool | None = None
    rounds: int | None = None
    solver_time_s: float | None = None
    false_alarm_rate: float | None = None
    error: str | None = None
    metrics: dict = field(default_factory=dict)

    @property
    def sort_key(self) -> tuple[str, str, str]:
        """The stable ordering key of the result table."""
        return (self.case_study, self.backend, self.algorithm)


@dataclass
class ExperimentResult:
    """Structured result table of one :func:`run_experiments` call."""

    spec: ExperimentSpec
    rows: list[ExperimentRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # ------------------------------------------------------------------
    def select(self, **criteria) -> list[ExperimentRow]:
        """Rows whose fields equal every ``criteria`` entry
        (e.g. ``result.select(case_study="vsc", algorithm="pivot")``)."""
        return [
            row
            for row in self.rows
            if all(getattr(row, key) == value for key, value in criteria.items())
        ]

    def summary_rows(self) -> list[dict]:
        """One plain dict per row, in the stable sort order."""
        return [row.to_dict() for row in sorted(self.rows, key=lambda row: row.sort_key)]

    @property
    def errors(self) -> list[ExperimentRow]:
        """Rows that failed with an exception."""
        return [row for row in self.rows if row.error is not None]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        return {"spec": self.spec.to_dict(), "rows": self.summary_rows()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            rows=[ExperimentRow.from_dict(row) for row in data["rows"]],
        )

    def to_json(self, indent: int | None = 2) -> str:
        """JSON string form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Group execution (shared by the serial path and the worker processes).
# ----------------------------------------------------------------------
def _group_units(units: list[ExperimentUnit]) -> list[tuple[dict, list[int]]]:
    """Merge cells sharing everything but the algorithm into one payload.

    One pipeline run per group shares the vulnerability check, the
    incremental synthesis session and the FAR benign population across that
    group's algorithms.  Returns ``(payload, unit_indices)`` pairs; the
    payload's ``algorithms`` list and the index list are aligned, as are the
    row dicts :func:`_execute_group` returns.
    """
    groups: dict[str, tuple[dict, list[int]]] = {}
    for index, unit in enumerate(units):
        payload = unit.to_dict()
        algorithm = payload.pop("algorithm")
        key = json.dumps(payload, sort_keys=True)
        entry = groups.get(key)
        if entry is None:
            payload["algorithms"] = []
            entry = (payload, [])
            groups[key] = entry
        entry[0]["algorithms"].append(algorithm)
        entry[1].append(index)
    return list(groups.values())


def _stealth_margin(threshold) -> float | None:
    """Mean finite threshold value — the stealthy attacker's residue room.

    Lower thresholds leave less room below the detection boundary (tighter
    security) at the price of more benign alarms; ``None`` when no finite
    threshold was placed (nothing synthesized or plant not vulnerable).
    """
    if threshold is None:
        return None
    finite = threshold.values[np.isfinite(threshold.values)]
    if finite.size == 0:
        return None
    return float(np.mean(finite))


def _probe_fleet(problem, probe: dict, detector, attack_options: dict) -> tuple:
    """One probe fleet run: ``(detection_rate, mean_detection_latency)``."""
    from repro.registry import ATTACK_TEMPLATES
    from repro.runtime.engine import _default_noise_model
    from repro.runtime.fleet import FleetSimulator, ScheduledAttack

    attack_spec = dict(probe.get("attack") or {"template": "bias"})
    template = ATTACK_TEMPLATES.create(
        attack_spec.get("template", "bias"), **attack_options
    )
    attack = ScheduledAttack(template=template, start=int(attack_spec.get("start", 0)))
    noise_model = _default_noise_model(problem, float(probe.get("noise_scale", 1.0)))
    simulator = FleetSimulator(
        problem.system,
        int(probe.get("n_instances", 24)),
        int(probe.get("horizon") or problem.horizon),
        detectors={"probe": detector},
        noise_model=noise_model,
        attacks=[attack],
        seed=probe.get("seed", 0),
    )
    stats = simulator.run().detectors["probe"]
    latency = stats.mean_detection_latency
    return stats.detection_rate, None if latency is None else float(latency)


def rung_metric(name: str, multiplier: float) -> str:
    """Metric key of one attack-ladder rung (``"<name>_x<multiplier>"``)."""
    return f"{name}_x{multiplier:g}"


def _ladder_aggregate(rungs: list[tuple[float, float | None, float | None]], horizon: int) -> dict:
    """Fold per-rung ``(multiplier, rate, latency)`` probes into metrics.

    A rung that attacked but detected nothing (``rate`` measured, ``latency``
    ``None``) is *censored at the probe horizon* in the latency aggregate:
    never detecting a weak attack must score worse than detecting it slowly,
    otherwise the minimized latency objective would reward missing the
    near-threshold rungs the ladder exists to resolve.  Rungs that attacked
    nothing at all (``rate is None`` — a zero-magnitude bias from an all-zero
    candidate) contribute to neither aggregate.
    """
    rates, latencies, metrics = [], [], {}
    for multiplier, rate, latency in rungs:
        if rate is not None:
            rates.append(rate)
            latencies.append(float(horizon) if latency is None else latency)
        metrics[rung_metric("detection_rate", multiplier)] = rate
        metrics[rung_metric("mean_detection_latency", multiplier)] = (
            None if latency is None else round(latency, 4)
        )
    metrics["detection_rate"] = sum(rates) / len(rates) if rates else None
    metrics["mean_detection_latency"] = (
        round(sum(latencies) / len(latencies), 4) if latencies else None
    )
    return metrics


def _run_probe(problem, probe: dict, threshold, scalar: float) -> dict:
    """Deploy one synthesized threshold online and measure detection latency.

    ``probe`` schema (all JSON-native, part of the unit's content address)::

        {"detector": "online-residue" | "online-cusum",
         "n_instances": int, "horizon": int | None, "noise_scale": float,
         "attack": {"template": name, "options": {...}, "start": int},
         "biases": [float, ...] | absent,
         "seed": int}

    The synthesized threshold is deployed in the named online form and
    streamed on a fleet of ``n_instances`` attacked plant instances under
    the FAR study's benign noise envelope at ``noise_scale`` sigma:
    ``online-residue`` deploys the per-step threshold vector as-is, while
    ``online-cusum`` is a *derived* heuristic — it accumulates residue
    excess over the candidate's mean finite threshold (``bias``) and alarms
    after one threshold-unit of cumulative excess, so candidates with very
    different per-step profiles but equal means probe identically.

    **Attack ladder.**  When ``biases`` is present (a ``bias``-template
    probe with no explicit magnitude), the fleet is run once per rung with
    the attack magnitude set to ``multiplier x`` the detector's own mean
    threshold, and the metrics carry one ``detection_rate_x<m>`` /
    ``mean_detection_latency_x<m>`` column per rung next to the aggregates
    (rate = mean over rungs; latency = mean over rungs with a missed rung
    censored at the probe horizon, so never detecting a weak attack scores
    worse than detecting it slowly).  A near-threshold rung (1.1x) takes
    many steps to detect where a blatant rung (3x) alarms almost
    immediately, so the aggregate latency actually differentiates
    candidates instead of collapsing to 0–1 steps everywhere.  Without
    ``biases``, a single run is made; a ``bias`` attack with no explicit
    magnitude then defaults to ``3 x`` the mean threshold, the historical
    behaviour.
    """
    attack_spec = dict(probe.get("attack") or {"template": "bias"})
    options = dict(attack_spec.get("options") or {})
    template_name = attack_spec.get("template", "bias")

    detector_name = probe.get("detector", "online-residue")
    if detector_name in ("online-residue", "residue"):
        detector = threshold
    elif detector_name in ("online-cusum", "cusum"):
        from repro.detectors.cusum import CusumDetector
        from repro.runtime.online import OnlineDetector

        detector = OnlineDetector(CusumDetector(bias=scalar, threshold=scalar, norm=threshold.norm))
    else:
        raise ValidationError(
            f"probe detector {detector_name!r} cannot be deployed from a "
            "synthesized threshold; supported: online-residue, online-cusum"
        )

    biases = probe.get("biases")
    if biases and template_name == "bias" and "bias" not in options:
        rungs = []
        for multiplier in biases:
            multiplier = float(multiplier)
            rung_options = dict(options, bias=multiplier * scalar)
            rate, latency = _probe_fleet(problem, probe, detector, rung_options)
            rungs.append((multiplier, rate, latency))
        return _ladder_aggregate(rungs, int(probe.get("horizon") or problem.horizon))

    if template_name == "bias" and "bias" not in options:
        options["bias"] = 3.0 * scalar
    rate, latency = _probe_fleet(problem, probe, detector, options)
    return {
        "detection_rate": rate,
        "mean_detection_latency": None if latency is None else round(latency, 4),
    }


def _execute_group(group: dict, case=None) -> dict:
    """Run one unit group; rows and synthesis records aligned per algorithm.

    Returns ``{"rows": [row dict per algorithm], "synthesis_records":
    {algorithm: record}}`` — the records are the reusable synthesis-half
    payloads (:func:`repro.api.execute.synthesis_record`) the store files
    under synthesis keys.  ``group["presynthesized"]`` may carry such
    records for a subset of the algorithms; those skip all solver work and
    re-run only the FAR/probe evaluation half.

    Any failure — case-study build, synthesis, FAR — is recorded on every
    row of the group instead of aborting the sweep.  ``case`` may be a
    pre-built case study, a cached build exception to re-raise, or ``None``
    to build from the group's options.  Probe failures only void the probe
    metrics of the affected row (``metrics["probe_error"]``), never the
    synthesis outcome.

    When metrics are enabled (pool workers inherit the enabled flag at
    fork), the group runs inside a *fresh scoped registry* whose snapshot
    ships back on ``result["metrics"]`` — one registry per group, so a
    long-lived worker never double-counts across groups and the parent can
    :meth:`~repro.obs.metrics.MetricsRegistry.merge` every group exactly
    once.  ``result["elapsed_s"]`` carries the group's wall time for the
    parent's utilization accounting either way.
    """
    started = Stopwatch()
    if metrics_enabled():
        with use_registry(MetricsRegistry(enabled=True)) as scoped:
            result = _execute_group_body(group, case)
            result["metrics"] = scoped.snapshot()
    else:
        result = _execute_group_body(group, case)
    result["elapsed_s"] = started.elapsed()
    return result


def _execute_group_body(group: dict, case=None) -> dict:
    """The uninstrumented group execution behind :func:`_execute_group`."""
    algorithms = list(group["algorithms"])
    far = group.get("far")
    probe = group.get("probe")
    try:
        if isinstance(case, Exception):
            raise case
        if case is None:
            case = CASE_STUDIES.create(group["case_study"], **group["case_study_options"])
        report = run_pipeline(
            case.problem,
            synthesis=SynthesisConfig(
                algorithms=tuple(algorithms),
                backend=group["backend"],
                max_rounds=group["max_rounds"],
                min_threshold=group["min_threshold"],
                relax=group.get("relax"),
            ),
            far=FARConfig.from_dict(far) if isinstance(far, dict) else far,
            presynthesized=group.get("presynthesized"),
        )
    except Exception as exc:  # repro: noqa REP003 — one bad group must not kill the sweep
        error = f"{type(exc).__name__}: {exc}"
        return {
            "rows": [
                ExperimentRow(
                    case_study=group["case_study"],
                    backend=group["backend"],
                    algorithm=algorithm,
                    status="error",
                    error=error,
                ).to_dict()
                for algorithm in algorithms
            ],
            "synthesis_records": {},
        }

    rows = []
    for algorithm in algorithms:
        result = report.synthesis[algorithm]
        row = ExperimentRow(
            case_study=group["case_study"],
            backend=group["backend"],
            algorithm=algorithm,
            status=result.status.value,
            vulnerable=report.is_vulnerable,
            converged=result.converged,
            rounds=result.rounds,
            solver_time_s=round(result.total_solver_time, 3),
        )
        if report.far_study is not None:
            row.false_alarm_rate = report.far_study.rates.get(algorithm)
        deployed = report.deployed_threshold(algorithm)
        relaxed = report.relaxation.get(algorithm)
        if relaxed is not None:
            # Both vectors ride on the row: the deployed (relaxed) margin
            # under the historical key, the raw one alongside.
            raw_margin = _stealth_margin(result.threshold)
            if raw_margin is not None:
                row.metrics["stealth_margin_raw"] = raw_margin
            row.metrics["relax_certified"] = relaxed.certified
            if report.far_study is not None:
                from repro.api.execute import RAW_FAR_SUFFIX

                raw_rate = report.far_study.rates.get(algorithm + RAW_FAR_SUFFIX)
                if raw_rate is not None:
                    row.metrics["false_alarm_rate_raw"] = raw_rate
        margin = _stealth_margin(deployed)
        if margin is not None:
            row.metrics["stealth_margin"] = margin
            if probe is not None:
                try:
                    row.metrics.update(
                        _run_probe(case.problem, probe, deployed, margin)
                    )
                except Exception as exc:  # repro: noqa REP003 — probe is best-effort, errors ride on the row
                    row.metrics["probe_error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row.to_dict())
    return {
        "rows": rows,
        "synthesis_records": {
            algorithm: synthesis_record(report, algorithm) for algorithm in algorithms
        },
    }


class BatchRunner:
    """Expand and execute an :class:`~repro.api.config.ExperimentSpec`.

    Parameters
    ----------
    spec:
        The sweep description (an :class:`ExperimentSpec` or its ``to_dict``
        form); may be ``None`` when only :meth:`run_units` is used.
    workers:
        ``None``/``0``/``1`` runs serially in-process (case studies are then
        built once per options payload and shared across cells); ``>= 2``
        fans the grid out over a ``multiprocessing`` pool of that many
        workers; ``"auto"`` sizes the pool from the process's CPU affinity
        (container-safe, see :func:`default_workers`).
    store:
        Optional content-addressed result store (a path or a
        :class:`repro.explore.store.ResultStore`): units whose canonical
        config hash is already stored are served from disk; fresh non-error
        rows are appended after execution.
    """

    def __init__(
        self,
        spec: ExperimentSpec | dict | None = None,
        workers: int | str | None = None,
        store=None,
    ):
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        self.spec = spec
        self.workers = _resolve_workers(workers)
        # Imported lazily: repro.explore builds on this module.
        from repro.explore.store import as_store

        self.store = as_store(store)
        #: Units whose synthesis half was served from the store (cumulative).
        self.synthesis_reused = 0

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute every grid cell and return the sorted result table."""
        if self.spec is None:
            raise ValidationError("BatchRunner.run() needs a spec; use run_units() otherwise")
        rows = [row for _, row in self.run_units(self.spec.expand())]
        rows.sort(key=lambda row: row.sort_key)
        return ExperimentResult(spec=self.spec, rows=rows)

    # ------------------------------------------------------------------
    def run_units(
        self, units: list[ExperimentUnit]
    ) -> list[tuple[str | None, ExperimentRow]]:
        """Execute a heterogeneous unit list; rows aligned with the input.

        Returns ``(key, row)`` pairs where ``key`` is the unit's content
        address (``None`` when no store is configured).  Stored units are
        served without executing; units whose *synthesis half* is stored
        re-run only the FAR/probe evaluation (zero solver calls, counted in
        :attr:`synthesis_reused`); fresh non-error rows and their synthesis
        records are persisted.
        """
        from repro.explore.store import synthesis_store_key, unit_store_key

        registry = get_registry()
        registry.counter(
            "batch_units_total", help="Experiment units submitted to run_units."
        ).inc(len(units))
        store_hits = registry.counter(
            "batch_store_hits_total", help="Units served whole from the result store."
        )
        store_misses = registry.counter(
            "batch_store_misses_total", help="Units that had to execute (store miss)."
        )
        synthesis_reuse = registry.counter(
            "batch_synthesis_reuse_total",
            help="Units whose synthesis half was reused from the store.",
        )

        keys: list[str | None] = []
        rows: dict[int, ExperimentRow] = {}
        pending: list[tuple[int, ExperimentUnit]] = []
        presynthesized: list[dict | None] = []
        for index, unit in enumerate(units):
            key = unit_store_key(unit.to_dict()) if self.store is not None else None
            keys.append(key)
            cached = self.store.get(key) if self.store is not None else None
            if cached is not None:
                rows[index] = ExperimentRow.from_dict(cached)
                store_hits.inc()
                continue
            if self.store is not None:
                store_misses.inc()
            record = None
            if self.store is not None:
                # ``peek``: a synthesis-half reuse is not a row hit, so it
                # must not disturb the hit/miss counters callers report.
                record = self.store.peek(synthesis_store_key(unit.to_dict()))
                if record is not None:
                    self.synthesis_reused += 1
                    synthesis_reuse.inc()
            pending.append((index, unit))
            presynthesized.append(record)

        def persist(local_index: int, row: ExperimentRow, record: dict | None) -> None:
            # Called the moment a group finishes, so an interrupted batch
            # keeps every completed row — that is the store's resume story.
            # Rows with any failure (cell error or best-effort probe error)
            # are never persisted: the store is first-write-wins, so caching
            # them would pin a transient failure forever.  Synthesis records
            # only require the solver half to have succeeded, so they are
            # persisted even when a best-effort probe failed.
            index, unit = pending[local_index]
            rows[index] = row
            if self.store is None:
                return
            if record is not None and row.error is None:
                config = unit.to_dict()
                self.store.put(synthesis_store_key(config), config, record)
            clean = row.error is None and "probe_error" not in row.metrics
            if clean:
                self.store.put(keys[index], unit.to_dict(), row.to_dict())

        self._execute_units(
            [unit for _, unit in pending],
            presynthesized=presynthesized,
            on_result=persist,
        )
        if self.store is not None:
            self.store.flush()
        return [(keys[index], rows[index]) for index in range(len(units))]

    # ------------------------------------------------------------------
    def _execute_units(
        self,
        units: list[ExperimentUnit],
        presynthesized: list[dict | None] | None = None,
        on_result=None,
    ) -> list[ExperimentRow]:
        """Execute heterogeneous units; ``on_result(i, row, record)`` streams.

        ``presynthesized`` (aligned with ``units``) carries stored
        synthesis-half records; covered units skip all solver work.  The
        callback fires as soon as a unit's group completes (serial: per
        group; pool: as ``imap`` results arrive in order), not at batch end,
        with the unit's fresh-or-reused synthesis record as third argument.
        """
        rows: list[ExperimentRow | None] = [None] * len(units)
        if not units:
            return rows
        registry = get_registry()
        group_seconds = registry.histogram(
            "batch_group_seconds", help="Wall time per executed unit group."
        )
        busy_seconds = 0.0
        started = Stopwatch()
        grouped = _group_units(units)
        if presynthesized is not None and any(presynthesized):
            for payload, indices in grouped:
                records = {
                    units[index].algorithm: presynthesized[index]
                    for index in indices
                    if presynthesized[index] is not None
                }
                if records:
                    payload["presynthesized"] = records
        payloads = [payload for payload, _ in grouped]

        def deliver(indices: list[int], result: dict) -> None:
            nonlocal busy_seconds
            elapsed = result.get("elapsed_s")
            if elapsed is not None:
                busy_seconds += elapsed
                group_seconds.observe(elapsed)
            # Each group ran inside its own scoped registry (fresh per group,
            # whether in-process or in a pool worker); merging its snapshot
            # here folds worker telemetry into the parent exactly once.
            shipped = result.get("metrics")
            if shipped is not None:
                registry.merge(shipped)
            records = result.get("synthesis_records", {})
            for index, row_dict in zip(indices, result["rows"]):
                row = ExperimentRow.from_dict(row_dict)
                rows[index] = row
                if on_result is not None:
                    on_result(index, row, records.get(row.algorithm))

        pool_size = 1
        if self.workers >= 2 and len(payloads) > 1:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
            pool_size = min(self.workers, len(payloads))
            with context.Pool(processes=pool_size) as pool:
                for (_, indices), result in zip(
                    grouped, pool.imap(_execute_group, payloads)
                ):
                    deliver(indices, result)
        else:
            # Case studies are built once per (name, options) payload; a
            # failing builder is cached as its exception so it is reported
            # (not retried) for every group.
            cases: dict[str, object] = {}
            for payload, indices in grouped:
                cache_key = json.dumps(
                    {"name": payload["case_study"], "options": payload["case_study_options"]},
                    sort_keys=True,
                )
                if cache_key not in cases:
                    try:
                        cases[cache_key] = CASE_STUDIES.create(
                            payload["case_study"], **payload["case_study_options"]
                        )
                    except Exception as exc:  # repro: noqa REP003 — builder errors are recorded per-row
                        cases[cache_key] = exc
                deliver(indices, _execute_group(payload, case=cases[cache_key]))
        wall = started.elapsed()
        registry.gauge(
            "batch_workers", help="Pool size of the last _execute_units call."
        ).set(pool_size)
        if wall > 0:
            # Fraction of the pool's capacity spent inside groups: summed
            # per-group wall time over (batch wall x pool size).
            registry.gauge(
                "batch_worker_utilization",
                help="Busy fraction of the worker pool over the last batch.",
            ).set(busy_seconds / (wall * pool_size))
        return rows


def run_experiments(
    spec: ExperimentSpec | dict, workers: int | str | None = None, store=None
) -> ExperimentResult:
    """One-call batch entry point: expand ``spec``, execute it, return the table.

    Parameters
    ----------
    spec:
        An :class:`~repro.api.config.ExperimentSpec` (or its ``to_dict``
        form) describing the case-study × backend × algorithm grid.
    workers:
        Optional ``multiprocessing`` fan-out (see :class:`BatchRunner`);
        ``"auto"`` sizes the pool from the CPU affinity.
    store:
        Optional content-addressed result store (see :class:`BatchRunner`).
    """
    return BatchRunner(spec, workers=workers, store=store).run()
