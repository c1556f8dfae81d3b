"""Provably safe static-threshold baseline.

The paper compares its variable thresholds against "a provably safe static
threshold based detector": a single constant ``Th`` applied at every sampling
instance such that no stealthy successful attack exists.  Because enlarging a
static threshold only gives the attacker more room, the set of safe constants
is a down-closed interval ``[0, c*]``; the most permissive (lowest-FAR) safe
choice is its upper end ``c*``, which this module finds by bisection over
Algorithm 1 calls.

Each probe needs only a verdict, so it goes through
:meth:`~repro.core.session.SynthesisSession.decide`: a probe below an
unsafe value is often already shown unsafe by an attack found earlier in
the session, and then costs no solve.  Safe verdicts always come from the
backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.attack_synthesis import synthesize_attack
from repro.core.problem import SynthesisProblem
from repro.core.session import SynthesisSession
from repro.core.synthesis_result import ThresholdSynthesisResult
from repro.detectors.threshold import ThresholdVector
from repro.registry import SYNTHESIZERS
from repro.utils.results import SolveStatus, SynthesisRecord
from repro.utils.validation import ValidationError, check_positive


@SYNTHESIZERS.register("static")
@dataclass
class StaticThresholdSynthesizer:
    """Bisection search for the largest safe static threshold.

    Parameters
    ----------
    backend:
        Attack-synthesis backend name or instance.
    tolerance:
        Absolute bisection tolerance on the threshold value.
    max_rounds:
        Safety cap on the number of Algorithm 1 calls.
    initial_upper:
        Optional starting upper bound for the search; when omitted it is
        taken from the maximal residue of the unconstrained attack (times a
        safety factor), which is always an unsafe value if any attack exists.
    """

    backend: str | object = "lp"
    tolerance: float = 1e-3
    max_rounds: int = 60
    initial_upper: float | None = None
    time_budget_per_call: float | None = None

    def __post_init__(self) -> None:
        self.tolerance = check_positive("tolerance", self.tolerance)

    # ------------------------------------------------------------------
    def _is_safe(
        self,
        problem: SynthesisProblem,
        value: float,
        session: SynthesisSession,
    ) -> tuple[bool, SolveStatus, float]:
        threshold = problem.static_threshold(value)
        result = session.decide(threshold, time_budget=self.time_budget_per_call)
        return (not result.found), result.status, result.elapsed

    # ------------------------------------------------------------------
    def synthesize(
        self, problem: SynthesisProblem, session: SynthesisSession | None = None
    ) -> ThresholdSynthesisResult:
        """Find the largest safe static threshold by bisection.

        ``session`` lets a caller (the pipeline, the batch runner) share one
        incremental session across several algorithms; when omitted the
        bisection opens its own.
        """
        if session is None:
            session = SynthesisSession(problem, backend=self.backend)
        history: list[SynthesisRecord] = []
        total_time = 0.0

        unconstrained = session.solve(None, time_budget=self.time_budget_per_call)
        total_time += unconstrained.elapsed
        rounds = 1
        if not unconstrained.found:
            # Existing monitors already block every attack; any threshold is safe.
            threshold = problem.static_threshold(np.inf)
            return ThresholdSynthesisResult(
                threshold=threshold,
                rounds=rounds,
                converged=unconstrained.status is SolveStatus.UNSAT,
                status=unconstrained.status,
                vulnerable_without_detector=False,
                history=history,
                total_solver_time=total_time,
                algorithm="static",
            )

        max_residue = float(np.max(unconstrained.residue_norms))
        upper = self.initial_upper if self.initial_upper is not None else max(2.0 * max_residue, 1e-6)
        lower = 0.0

        # Ensure the upper end really is unsafe; if it is safe we are done early.
        safe_upper, status_upper, elapsed = self._is_safe(problem, upper, session)
        total_time += elapsed
        rounds += 1
        history.append(
            SynthesisRecord(
                round_index=rounds,
                action=f"probe upper={upper:.6g} safe={safe_upper}",
                threshold=upper,
                solver_time=elapsed,
            )
        )
        if safe_upper:
            threshold = problem.static_threshold(upper)
            return ThresholdSynthesisResult(
                threshold=threshold,
                rounds=rounds,
                converged=status_upper is SolveStatus.UNSAT,
                status=status_upper,
                vulnerable_without_detector=True,
                history=history,
                total_solver_time=total_time,
                algorithm="static",
            )

        best_safe = None
        final_status = SolveStatus.UNKNOWN
        while upper - lower > self.tolerance and rounds < self.max_rounds:
            middle = 0.5 * (lower + upper)
            safe, status, elapsed = self._is_safe(problem, middle, session)
            total_time += elapsed
            rounds += 1
            history.append(
                SynthesisRecord(
                    round_index=rounds,
                    action=f"probe {middle:.6g} safe={safe}",
                    threshold=middle,
                    solver_time=elapsed,
                )
            )
            if safe:
                best_safe = middle
                final_status = status
                lower = middle
            else:
                upper = middle

        if best_safe is None:
            # Even tiny thresholds admit attacks within tolerance; fall back to
            # the lower end of the bracket (threshold 0 alarms on everything
            # and is therefore trivially safe).
            best_safe = lower
            final_status = SolveStatus.UNSAT if lower == 0.0 else final_status

        threshold = problem.static_threshold(best_safe)
        converged = final_status is SolveStatus.UNSAT
        return ThresholdSynthesisResult(
            threshold=threshold,
            rounds=rounds,
            converged=converged,
            status=final_status,
            vulnerable_without_detector=True,
            history=history,
            total_solver_time=total_time,
            algorithm="static",
        )


def verify_no_attack(
    problem: SynthesisProblem,
    threshold: ThresholdVector,
    backend: str | object = "lp",
    time_budget: float | None = None,
) -> bool:
    """Convenience check: does ``threshold`` provably block every stealthy attack?"""
    result = synthesize_attack(problem, threshold=threshold, backend=backend, time_budget=time_budget)
    if result.found:
        return False
    if result.status is not SolveStatus.UNSAT:
        raise ValidationError("verification inconclusive (solver returned UNKNOWN)")
    return True
