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

from repro.core.problem import SynthesisProblem
from repro.core.session import SynthesisSession
from repro.core.synthesis_result import SynthesisRun, ThresholdSynthesisResult
from repro.registry import SYNTHESIZERS
from repro.utils.validation import check_positive


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
    def _probe(
        self, run: SynthesisRun, problem: SynthesisProblem, value: float, label: str = ""
    ) -> bool:
        """Is the static threshold ``value`` safe?  A safe probe sets the run's status."""
        answer = run.decide(problem.static_threshold(value))
        safe = not answer.found
        run.record(f"probe {label}{value:.6g} safe={safe}", value)
        if safe:
            run.status = answer.status
        return safe

    # ------------------------------------------------------------------
    def synthesize(
        self, problem: SynthesisProblem, session: SynthesisSession | None = None
    ) -> ThresholdSynthesisResult:
        """Find the largest safe static threshold by bisection (on ``session`` when given)."""
        run = SynthesisRun(
            problem, "static", self.backend, session, self.time_budget_per_call, self.max_rounds
        )
        unconstrained = run.open()
        if unconstrained is None:
            # Existing monitors already block every attack; any threshold is safe.
            return run.result(problem.static_threshold(np.inf))

        max_residue = float(np.max(unconstrained.residue_norms))
        upper = self.initial_upper if self.initial_upper is not None else max(2.0 * max_residue, 1e-6)
        lower = 0.0

        # Ensure the upper end really is unsafe; if it is safe we are done early.
        if run.rounds_left and self._probe(run, problem, upper, label="upper="):
            return run.result(problem.static_threshold(upper))

        while upper - lower > self.tolerance and run.rounds_left:
            middle = 0.5 * (lower + upper)
            if self._probe(run, problem, middle):
                lower = middle
            else:
                upper = middle

        if lower == 0.0 and run.rounds_left:
            # No probe was safe: threshold 0's verdict is one more round's
            # answer.  With no round left the status stays UNKNOWN.
            answer = run.decide(problem.static_threshold(0.0))
            run.record(f"probe 0 safe={not answer.found}", 0.0)
            run.status = answer.status
        return run.result(problem.static_threshold(lower))

