"""Config-driven execution of the paper's end-to-end workflow.

:func:`run_pipeline` is the canonical implementation of the workflow the
paper evaluates — vulnerability check (Algorithm 1 with no residue
detector), threshold synthesis per algorithm, optional threshold relaxation,
FAR study — driven by the declarative configs in :mod:`repro.api.config`.

One :class:`~repro.core.session.SynthesisSession` is opened per call, so
the horizon unrolling and the static constraint blocks are built once per
``(problem, backend)`` pair — the batch runner inherits this per-group
sharing because each of its ``(case_study, backend)`` groups is exactly one
``run_pipeline`` call.  The session answers the vulnerability check; each
algorithm then runs its loop and its relaxation pass on its own
:meth:`~repro.core.session.SynthesisSession.fork` on a worker thread, one
thread per usable CPU at most.  HiGHS releases the GIL while it solves, so
the loops' LPs run side by side.  A fork's answers depend only on its own
queries, so the results do not depend on scheduling.  Where side-by-side
loops cannot gain (see :func:`_synthesis_workers`) the algorithms run one
after another on the calling thread's session, as one shared session.

The expensive half of a pipeline run (synthesis + relaxation) and the cheap
half (FAR study, probes) are separable: callers can pass ``presynthesized``
records — previously stored synthesis outcomes — and the call then issues
**zero** solver work, re-running only the evaluation half.  ``run_pipeline``
keeps no cache of its own: ``BatchRunner``'s content-addressed store feeds
it these records, reusing one synthesis across every FAR/noise/probe
variation (see :func:`repro.explore.store.split_unit_keys`).
"""

from __future__ import annotations

import inspect
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api.config import FARConfig, SynthesisConfig
from repro.core.attack_synthesis import AttackSynthesisResult
from repro.core.far import FalseAlarmStudy
from repro.core.relaxation import RelaxationResult
from repro.core.session import SynthesisSession
from repro.core.synthesis_result import ThresholdSynthesisResult
from repro.obs.metrics import MetricsRegistry, get_registry, timed, use_thread_registry
from repro.obs.trace import get_tracer, span
from repro.utils.cpus import default_workers

#: FAR-study label suffix under which the pre-relaxation vector is evaluated
#: when a ``relax`` stage is configured (``"<algorithm>:raw"``).
RAW_FAR_SUFFIX = ":raw"


@dataclass
class PipelineReport:
    """Aggregated output of one end-to-end pipeline run.

    Attributes
    ----------
    vulnerability:
        Algorithm 1 result with no residue detector: does an attack bypass
        the existing monitors at all?
    synthesis:
        Per-algorithm :class:`~repro.core.synthesis_result.ThresholdSynthesisResult`
        (always the **raw** synthesis outcome, relaxed or not).
    relaxation:
        Per-algorithm :class:`~repro.core.relaxation.RelaxationResult` when a
        ``relax`` stage was configured (empty dict otherwise), carrying the
        relaxed vector alongside the raw one in ``synthesis``.
    far_study:
        FAR comparison over the shared benign population (``None`` when FAR
        evaluation was skipped).  With a ``relax`` stage, each algorithm is
        evaluated twice: the deployed (relaxed) vector under its own name
        and the raw vector under ``"<algorithm>:raw"``.
    """

    vulnerability: AttackSynthesisResult
    synthesis: dict[str, ThresholdSynthesisResult] = field(default_factory=dict)
    relaxation: dict[str, RelaxationResult] = field(default_factory=dict)
    far_study: FalseAlarmStudy | None = None

    @property
    def is_vulnerable(self) -> bool:
        """True when the plant's own monitors can be bypassed."""
        return self.vulnerability.found

    def deployed_threshold(self, name: str):
        """The vector actually deployed for ``name``: relaxed when available.

        Falls back to the raw synthesized vector when no relaxation ran for
        the algorithm; ``None`` when nothing was synthesized at all.
        """
        relaxed = self.relaxation.get(name)
        if relaxed is not None:
            return relaxed.threshold
        result = self.synthesis.get(name)
        return None if result is None else result.threshold

    def summary_rows(self) -> list[dict]:
        """Tabular summary, one row per algorithm, sorted by algorithm name.

        The sort makes JSON exports and printed tables reproducible
        run-to-run regardless of synthesis execution order.  Rows grow
        ``relax_rounds`` / ``relax_certified`` / ``false_alarm_rate_raw``
        columns only when a ``relax`` stage ran, so consumers of un-relaxed
        pipelines see the historical schema unchanged.
        """
        rows = []
        for name in sorted(self.synthesis):
            result = self.synthesis[name]
            row = {
                "algorithm": name,
                "rounds": result.rounds,
                "converged": result.converged,
                "solver_time_s": round(result.total_solver_time, 3),
            }
            if self.far_study is not None and name in self.far_study.rates:
                row["false_alarm_rate"] = self.far_study.rates[name]
            relaxed = self.relaxation.get(name)
            if relaxed is not None:
                row["relax_rounds"] = relaxed.rounds
                row["relax_certified"] = relaxed.certified
                if self.far_study is not None:
                    raw_rate = self.far_study.rates.get(name + RAW_FAR_SUFFIX)
                    if raw_rate is not None:
                        row["false_alarm_rate_raw"] = raw_rate
            rows.append(row)
        return rows


# ----------------------------------------------------------------------
# Lossy JSON payloads for the content-addressed store.
# ----------------------------------------------------------------------
def _threshold_from_payload(stored: dict | None):
    from repro.detectors.threshold import ThresholdVector

    if stored is None:
        return None
    threshold = ThresholdVector.from_dict(stored)
    threshold.metadata["from_store"] = True
    return threshold


def _vulnerability_payload(vulnerability: AttackSynthesisResult) -> dict:
    return {
        "status": vulnerability.status.value,
        "verified": vulnerability.verified,
        "elapsed": vulnerability.elapsed,
    }


def _vulnerability_from_payload(payload: dict) -> AttackSynthesisResult:
    from repro.utils.results import SolveStatus

    return AttackSynthesisResult(
        status=SolveStatus(payload["status"]),
        verified=payload["verified"],
        elapsed=payload["elapsed"],
        diagnostics={"from_store": True},
    )


def _synthesis_payload(result: ThresholdSynthesisResult) -> dict:
    return {
        "threshold": None if result.threshold is None else result.threshold.to_dict(),
        "rounds": result.rounds,
        "converged": result.converged,
        "status": result.status.value,
        "vulnerable_without_detector": result.vulnerable_without_detector,
        "total_solver_time": result.total_solver_time,
        "algorithm": result.algorithm,
    }


def _synthesis_from_payload(entry: dict) -> ThresholdSynthesisResult:
    from repro.utils.results import SolveStatus

    return ThresholdSynthesisResult(
        threshold=_threshold_from_payload(entry["threshold"]),
        rounds=entry["rounds"],
        converged=entry["converged"],
        status=SolveStatus(entry["status"]),
        vulnerable_without_detector=entry["vulnerable_without_detector"],
        total_solver_time=entry["total_solver_time"],
        algorithm=entry["algorithm"],
    )


def _relaxation_payload(result: RelaxationResult | None) -> dict | None:
    if result is None:
        return None
    return {
        "threshold": None if result.threshold is None else result.threshold.to_dict(),
        "raised_instants": list(result.raised_instants),
        "floored_instants": list(result.floored_instants),
        "rounds": result.rounds,
        "certified": result.certified,
        "total_solver_time": result.total_solver_time,
    }


def _relaxation_from_payload(entry: dict | None) -> RelaxationResult | None:
    if entry is None:
        return None
    return RelaxationResult(
        threshold=_threshold_from_payload(entry["threshold"]),
        raised_instants=list(entry["raised_instants"]),
        floored_instants=list(entry.get("floored_instants", [])),
        rounds=entry["rounds"],
        certified=entry["certified"],
        total_solver_time=entry["total_solver_time"],
    )


def synthesis_record(report: PipelineReport, algorithm: str) -> dict:
    """The reusable synthesis-half outcome of one algorithm, as plain JSON.

    This is what the content-addressed store files under a *synthesis key*
    (:func:`repro.explore.store.synthesis_store_key`): the vulnerability
    verdict, the raw synthesis outcome and the relaxation outcome — exactly
    the solver-dependent half of a pipeline run.  Feed it back through
    ``run_pipeline(..., presynthesized={algorithm: record})`` to re-evaluate
    FAR/probe variations with zero solver calls.
    """
    return {
        "vulnerability": _vulnerability_payload(report.vulnerability),
        "synthesis": _synthesis_payload(report.synthesis[algorithm]),
        "relaxation": _relaxation_payload(report.relaxation.get(algorithm)),
    }


def _synthesis_workers(synthesis: SynthesisConfig, solver, fresh: list[str]) -> int:
    """Threads for the ``fresh`` algorithms: one each, capped by the usable CPUs.

    One — the calling thread, on one shared session — wherever loops side by
    side cannot gain: a backend whose solves hold the GIL, a process that is
    itself a pool worker (the pool already runs one process per CPU), or a
    wall-clock ``time_budget_per_call``, which loops sharing the CPUs would
    spend on each other's solves and so turn a verdict into ``unknown``.
    """
    if (
        synthesis.time_budget_per_call is not None
        or not getattr(solver, "concurrent_solves", True)
        or multiprocessing.parent_process() is not None
    ):
        return 1
    return min(len(fresh), default_workers())


def _synthesize(problem, synthesis: SynthesisConfig, name: str, session, relaxer, fork=False):
    """Synthesize (and relax) one algorithm's vector on ``session`` (or a fork of it)."""
    stage_seconds = get_registry().histogram("pipeline_stage_seconds")
    with span("pipeline.synthesis", problem=problem.name, algorithm=name):
        with timed(stage_seconds, stage="synthesis"):
            if fork:
                session = session.fork()
            synthesizer = synthesis.build_synthesizer(name, backend=session.solver)
            # Third-party synthesizers registered into SYNTHESIZERS may
            # predate the session protocol; only pass the session when
            # accepted.
            if "session" in inspect.signature(synthesizer.synthesize).parameters:
                result = synthesizer.synthesize(problem, session=session)
            else:
                result = synthesizer.synthesize(problem)
            relaxed = None
            if relaxer is not None and result.threshold is not None:
                relaxed = relaxer.relax(
                    problem,
                    result.threshold,
                    verify_input=synthesis.relax.verify_input,
                    session=session,
                )
    return result, relaxed


def _in_worker(registry: MetricsRegistry, parent_span, task, *args):
    """Run ``task(*args)`` on a worker thread; returns ``(outcome, metrics snapshot)``.

    The worker records into a private registry (``None`` snapshot when the
    caller's ``registry`` is disabled) and opens its spans under the
    caller's ``parent_span``.
    """
    private = MetricsRegistry(enabled=True) if registry.enabled else registry
    with get_tracer().adopt(parent_span), use_thread_registry(private):
        outcome = task(*args)
    return outcome, None if private is registry else private.snapshot()


def run_pipeline(
    problem,
    synthesis: SynthesisConfig | None = None,
    far: FARConfig | None = None,
    *,
    backend=None,
    presynthesized: dict | None = None,
) -> PipelineReport:
    """Run vulnerability check, synthesis, relaxation and FAR study on ``problem``.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.SynthesisProblem` instance.
    synthesis:
        Declarative synthesis settings (defaults to all three algorithms on
        the LP backend).  When ``synthesis.relax`` is set, each synthesized
        vector is relaxed on its algorithm's session before FAR evaluation;
        the report then carries both the raw and the relaxed thresholds.
        A ``time_budget_per_call`` is a wall-clock budget per solve, so a
        budgeted call runs its algorithms one after another.
    far:
        Declarative FAR settings; ``None`` (or ``count=0``) skips the study.
        The study evaluates the *deployed* (relaxed when configured) vectors
        under the algorithm names, plus the raw vectors under
        ``"<algorithm>:raw"`` labels when a relax stage ran.
    backend:
        Optional backend *instance* overriding ``synthesis.backend`` — the
        programmatic escape hatch for pre-configured or caller-supplied
        solvers.
    presynthesized:
        Optional per-algorithm :func:`synthesis_record` payloads.  Covered
        algorithms skip synthesis and relaxation entirely (their outcome is
        rebuilt from the record); when every algorithm is covered no solver
        session is opened at all and only the FAR study / probe half runs.
    """
    if synthesis is None:
        synthesis = SynthesisConfig()
    presynthesized = presynthesized or {}

    fresh = [name for name in synthesis.algorithms if name not in presynthesized]

    registry = get_registry()
    stage_seconds = registry.histogram(
        "pipeline_stage_seconds",
        help="Wall time per run_pipeline stage (vulnerability, synthesis, far).",
    )

    solver = None
    session = None
    if fresh or backend is not None:
        solver = backend if backend is not None else synthesis.build_backend()
        # One encoding per call: the vulnerability check runs on this
        # session, every algorithm on a fork of it.
        session = SynthesisSession(problem, backend=solver)

    with span("pipeline.vulnerability", problem=problem.name):
        with timed(stage_seconds, stage="vulnerability"):
            if session is not None:
                vulnerability = session.solve(None)
            else:
                # Every algorithm is presynthesized: the stored vulnerability
                # verdict rides along with each record (same problem, same
                # backend).
                first = presynthesized[synthesis.algorithms[0]]
                vulnerability = _vulnerability_from_payload(first["vulnerability"])
    report = PipelineReport(vulnerability=vulnerability)

    outcomes = {}
    if fresh:
        relaxer = synthesis.build_relaxer(backend=solver)
        workers = _synthesis_workers(synthesis, solver, fresh)
        if workers == 1:
            for name in fresh:
                outcomes[name] = _synthesize(problem, synthesis, name, session, relaxer)
        else:
            parent_span = get_tracer().current()
            with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="synthesis") as pool:
                futures = [
                    pool.submit(
                        _in_worker,
                        registry,
                        parent_span,
                        _synthesize,
                        problem,
                        synthesis,
                        name,
                        session,
                        relaxer,
                        True,
                    )
                    for name in fresh
                ]
            # Leaving the pool joined every worker.  Every finished worker's
            # metrics are merged, then the first failure in algorithm order
            # is raised.
            errors = [future.exception() for future in futures]
            for name, future, error in zip(fresh, futures, errors):
                if error is None:
                    outcomes[name], snapshot = future.result()
                    if snapshot is not None:
                        registry.merge(snapshot)
            failure = next((error for error in errors if error is not None), None)
            if failure is not None:
                raise failure

    for name in synthesis.algorithms:
        record = presynthesized.get(name)
        if record is None:
            report.synthesis[name], relaxed = outcomes[name]
        else:
            report.synthesis[name] = _synthesis_from_payload(record["synthesis"])
            relaxed = _relaxation_from_payload(record.get("relaxation"))
        if relaxed is not None:
            report.relaxation[name] = relaxed

    if far is not None and far.count > 0 and report.synthesis:
        detectors = {}
        for name in report.synthesis:
            deployed = report.deployed_threshold(name)
            if deployed is None:
                continue
            detectors[name] = deployed
            raw = report.synthesis[name].threshold
            if name in report.relaxation and raw is not None:
                detectors[name + RAW_FAR_SUFFIX] = raw
        if detectors:
            with span("pipeline.far", problem=problem.name):
                with timed(stage_seconds, stage="far"):
                    evaluator = far.build_evaluator(problem)
                    report.far_study = evaluator.evaluate(detectors)

    return report


__all__ = ["PipelineReport", "run_pipeline", "synthesis_record", "RAW_FAR_SUFFIX"]
