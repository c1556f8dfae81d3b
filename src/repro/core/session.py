"""Incremental synthesis sessions — the per-problem Algorithm 1 engine.

The threshold-synthesis loops (pivot, stepwise, static bisection, the
relaxation post-pass) call Algorithm 1 up to hundreds of times per problem,
changing nothing between rounds except the candidate threshold vector.  A
:class:`SynthesisSession` exploits that: it constructs the closed-loop
horizon unrolling and every static constraint block (dynamics, attacker
model, monitor ``mdc`` rows, variable bounds, pfc violation branches)
**exactly once** per problem and opens an incremental
:class:`~repro.falsification.base.BackendSession` over them; each
:meth:`solve` call then only re-emits the threshold-dependent stealth
constraints — the LP backend appends the per-round stealth right-hand side
to its cached matrices.

A :meth:`~SynthesisSession.solve` answer depends only on the threshold
handed to that call, so one session can serve several synthesis algorithms
over the same ``(problem, backend)`` pair.  :meth:`~SynthesisSession.fork`
opens a second backend session over the same encoding, which is how
:func:`repro.api.execute.run_pipeline` runs its algorithms on separate
threads with one encoding per call.  The one-shot
:func:`~repro.core.attack_synthesis.synthesize_attack` is a session of
length one, and both paths produce bit-identical results.

Verdict-only queries (static bisection probes, relaxation checks) go
through :meth:`~SynthesisSession.decide`.  The session remembers the latest
SAT witness whose replay it verified; when it is still stealthy under the
new threshold — by the LP's own row condition with a safety slack, and
by a replay check of the detector — it already proves SAT, and ``decide``
returns it without a solve.  ``decide`` never answers UNSAT or UNKNOWN on
its own: those verdicts come only from the backend.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.attacks.fdi import FDIAttack
from repro.core.encoding import AttackEncoding
from repro.core.problem import SynthesisProblem
from repro.detectors.threshold import ThresholdVector
from repro.falsification.registry import get_backend
from repro.lti.simulate import SimulationTrace
from repro.obs.clock import Stopwatch
from repro.obs.metrics import get_registry, timed
from repro.obs.trace import span
from repro.utils.results import SolveStatus

#: Least slack (in threshold units) every stealth row must keep at the
#: stored witness before :meth:`SynthesisSession.decide` reuses it: two
#: orders of magnitude above HiGHS' 1e-7 primal feasibility tolerance, so the
#: LP the reuse stands in for is feasible by a clear margin, not within
#: tolerance.
WITNESS_SLACK = 1e-5


@dataclass
class AttackSynthesisResult:
    """Outcome of one ``ATTVECSYN`` call.

    Attributes
    ----------
    status:
        ``SAT`` — stealthy successful attack found; ``UNSAT`` — provably none
        exists (under the backend's encoding); ``UNKNOWN`` — undecided.
    attack:
        The synthesized attack vector (``None`` unless ``SAT``).
    trace:
        Deterministic (noiseless) closed-loop trace under the attack.
    residue_norms:
        Per-sample residue norms of that trace (the quantities the
        threshold-synthesis algorithms pivot on).
    initial_state:
        The initial plant state chosen by the solver (equals the problem's
        ``x0`` unless an initial box was given).
    verified:
        True when re-simulating the attack confirmed stealth and pfc
        violation (a consistency check between encoder and simulator).
    diagnostics:
        Backend statistics.
    """

    status: SolveStatus
    attack: FDIAttack | None = None
    trace: SimulationTrace | None = None
    residue_norms: np.ndarray | None = None
    initial_state: np.ndarray | None = None
    verified: bool = False
    elapsed: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        """Truthiness mirrors the paper's ``if ATTVECSYN(...)`` usage."""
        return self.status is SolveStatus.SAT

    @property
    def found(self) -> bool:
        """True when an attack vector was synthesized."""
        return self.status is SolveStatus.SAT


class SynthesisSession:
    """Incremental Algorithm 1 engine for one ``(problem, backend)`` pair.

    Parameters
    ----------
    problem:
        The synthesis problem instance ``<S, C, pfc>`` plus attacker model.
    backend:
        ``"lp"`` (default), ``"optimizer"`` or a backend instance.
    verify:
        Default for re-simulating synthesized attacks and checking stealth /
        pfc violation on the concrete trace (overridable per call).
    backend_kwargs:
        Constructor arguments forwarded when ``backend`` is a name.

    Attributes
    ----------
    encoding:
        The shared :class:`~repro.core.encoding.AttackEncoding` (static
        blocks built once at session open).
    solves:
        Number of :meth:`solve` calls served so far.
    """

    def __init__(
        self,
        problem: SynthesisProblem,
        backend: str | object = "lp",
        verify: bool = True,
        **backend_kwargs,
    ):
        self.problem = problem
        self.solver = get_backend(backend, **backend_kwargs)
        self.verify = bool(verify)
        registry = get_registry()
        backend_name = getattr(self.solver, "name", str(backend))
        build_seconds = registry.histogram(
            "synthesis_encoding_build_seconds",
            help="Wall time to build the static encoding and open a backend session.",
        )
        with span("synthesis.encode", problem=problem.name, backend=backend_name):
            with timed(build_seconds, backend=backend_name):
                self.encoding = AttackEncoding(problem=problem, threshold=None)
                self._backend_session = self.solver.open_session(self.encoding)
        registry.counter(
            "synthesis_sessions_total",
            help="Synthesis sessions opened (one static encoding built each).",
        ).inc(backend=backend_name)
        self.solves = 0
        # The detector-free query (threshold None) is issued by the pipeline's
        # vulnerability check *and* as round one of every synthesis loop; the
        # solver is deterministic, so the session memoises it per verify flag.
        self._none_cache: dict[bool, AttackSynthesisResult] = {}
        # The latest SAT answer whose replay verified, for decide(): (least
        # threshold per instant under which its witness keeps WITNESS_SLACK
        # on every stealth row, result).  Older witnesses answered no more
        # verdicts on the six case studies' pipelines, so only one is kept.
        self._witness: tuple[np.ndarray, AttackSynthesisResult] | None = None

    def fork(self) -> "SynthesisSession":
        """A session over the same encoding with its own backend session.

        The fork opens a fresh backend session (its own LP matrix cache) and
        starts with copies of this session's detector-free memo and verified
        witness, so it can serve one synthesis loop on another thread while
        this session serves a different one.  No encoding is built.
        """
        clone = copy.copy(self)
        clone._backend_session = self.solver.open_session(self.encoding)
        clone.solves = 0
        clone._none_cache = dict(self._none_cache)
        return clone

    # ------------------------------------------------------------------
    def solve(
        self,
        threshold: ThresholdVector | None = None,
        time_budget: float | None = None,
        verify: bool | None = None,
    ) -> AttackSynthesisResult:
        """Run one Algorithm 1 round with the candidate ``threshold``.

        Parameters
        ----------
        threshold:
            Candidate residue thresholds; ``None`` (or an all-unset vector)
            models the system without a residue detector.
        time_budget:
            Optional wall-clock budget in seconds for the backend (the paper
            used a 12-hour Z3 timeout; our instances need seconds).  The LP
            backend hands what is left to each LP as the HiGHS time limit
            and answers UNKNOWN when it runs out.
        verify:
            Per-call override of the session's ``verify`` default.
        """
        start = Stopwatch()
        verify = self.verify if verify is None else verify
        registry = get_registry()
        backend_name = getattr(self.solver, "name", "?")
        if threshold is None:
            cached = self._none_cache.get(verify)
            if cached is not None:
                self.solves += 1
                registry.counter(
                    "synthesis_memo_hits_total",
                    help="Detector-free solves served from the session memo.",
                ).inc(backend=backend_name)
                # Fresh shell per hit: callers own their result's ``elapsed``
                # (charging the original solve time again would double-count
                # wall clock in per-algorithm totals) and may overwrite it.
                return replace(cached, elapsed=start.elapsed())
        with span("synthesis.solve", problem=self.problem.name, backend=backend_name):
            answer = self._backend_session.solve(threshold, time_budget=time_budget)
        self.solves += 1
        elapsed = start.elapsed()
        registry.histogram(
            "synthesis_solve_seconds",
            help="Backend solve time per Algorithm 1 round.",
        ).observe(elapsed, backend=backend_name, problem=self.problem.name)
        registry.counter(
            "synthesis_solves_total",
            help="Algorithm 1 rounds solved, by backend and outcome.",
        ).inc(backend=backend_name, status=answer.status.name)

        if not answer.found_attack:
            result = AttackSynthesisResult(
                status=answer.status,
                elapsed=elapsed,
                diagnostics=answer.diagnostics,
            )
            if threshold is None and answer.status is not SolveStatus.UNKNOWN:
                self._none_cache[verify] = result
            return result

        attack = self.encoding.unrolling.attack_from_theta(answer.theta)
        initial_state = self.encoding.unrolling.initial_state_from_theta(answer.theta)
        trace = self.problem.simulate(attack=attack, with_noise=False, x0=initial_state)
        residue_norms = self.problem.residue_norms(trace.residues)

        verified = True
        if verify:
            pfc_ok = self.problem.pfc_satisfied(trace)
            mdc_alarm = self.problem.mdc_alarm(trace)
            detector_alarm = (
                self.problem.detector_alarm(trace, threshold) if threshold is not None else False
            )
            verified = (not pfc_ok) and (not mdc_alarm) and (not detector_alarm)

        result = AttackSynthesisResult(
            status=SolveStatus.SAT,
            attack=attack,
            trace=trace,
            residue_norms=residue_norms,
            initial_state=initial_state,
            verified=verified,
            elapsed=elapsed,
            diagnostics=answer.diagnostics,
        )
        if threshold is None:
            self._none_cache[verify] = result
        if verify and verified:
            self._witness = (self._stealth_need(answer.theta), result)
        return result

    def _stealth_need(self, theta: np.ndarray) -> np.ndarray:
        """Least threshold per instant under which ``theta`` keeps the witness slack.

        Stealth row ``r`` at instant ``k`` reads ``row_r·theta + c_r - Th[k] +
        strictness <= 0`` in the LP; it holds with slack ``WITNESS_SLACK``
        iff ``Th[k] >= row_r·theta + c_r + strictness + WITNESS_SLACK``.
        """
        template = self.encoding.stealth_template
        values = template.rows @ theta + template.constants
        need = np.full(self.problem.horizon, -np.inf)
        np.maximum.at(need, template.sample_index, values)
        return need + float(self.problem.strictness) + WITNESS_SLACK

    def decide(
        self,
        threshold: ThresholdVector | None = None,
        time_budget: float | None = None,
    ) -> AttackSynthesisResult:
        """Does a stealthy successful attack exist under ``threshold``?

        The latest verified witness answers SAT without a solve when every
        stealth row at ``threshold`` keeps :data:`WITNESS_SLACK` at it and
        the detector stays quiet on its replayed trace (pfc violation and a
        quiet ``mdc`` do not depend on the threshold and were checked when
        it was found).  Otherwise this is :meth:`solve`.  The returned
        attack is *a* witness, not the max-margin one of this threshold, so
        loops that refine on the witness (pivot, stepwise) use :meth:`solve`.
        """
        start = Stopwatch()
        if threshold is not None and self._witness is not None:
            need, stored = self._witness
            if np.all(
                need <= threshold.effective(self.problem.horizon)
            ) and not self.problem.detector_alarm(stored.trace, threshold):
                get_registry().counter(
                    "synthesis_witness_hits_total",
                    help="Verdict queries answered SAT by a stored verified witness.",
                ).inc(backend=getattr(self.solver, "name", "?"))
                return replace(
                    stored,
                    elapsed=start.elapsed(),
                    diagnostics={**stored.diagnostics, "reused_witness": True},
                )
        return self.solve(threshold, time_budget=time_budget)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SynthesisSession(problem={self.problem.name!r}, "
            f"backend={getattr(self.solver, 'name', self.solver)!r}, solves={self.solves})"
        )
