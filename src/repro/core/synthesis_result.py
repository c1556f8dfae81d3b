"""The Algorithm 1 round ledger and result container shared by the synthesis loops.

Pivot (Algorithm 2), step-wise (Algorithm 3), the static baseline and the
relaxation pass are all Algorithm 1 in a loop: ask for a stealthy successful
attack under a candidate threshold, change the threshold by a rule, ask
again.  :class:`SynthesisRun` is the bookkeeping they share; each loop keeps
only its rule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.problem import SynthesisProblem
from repro.core.session import AttackSynthesisResult, SynthesisSession
from repro.detectors.threshold import ThresholdVector
from repro.utils.results import SolveStatus, SynthesisRecord

logger = logging.getLogger(__name__)


@dataclass
class ThresholdSynthesisResult:
    """Outcome of a threshold-synthesis run (Algorithms 2, 3 or the static baseline).

    Attributes
    ----------
    threshold:
        The synthesized threshold vector.
    rounds:
        Number of attack-synthesis (Algorithm 1) calls made — the paper's
        "round" counter.
    converged:
        True when the final Algorithm 1 call proved that no stealthy
        successful attack remains (``UNSAT``).
    status:
        The verdict on ``threshold``: ``UNSAT`` when an Algorithm 1 call
        proved it safe, ``SAT`` when one found an attack against it, and
        ``UNKNOWN`` when no call settled it (a round cap, a blocked rule
        or a time budget stopped the run).
    vulnerable_without_detector:
        Whether an attack existed before any threshold was introduced (if
        False the existing monitors already suffice and ``threshold`` is
        all-unset).
    history:
        One :class:`~repro.utils.results.SynthesisRecord` per refinement
        round, for plots and debugging.
    total_solver_time:
        Accumulated wall-clock seconds spent inside Algorithm 1 calls.
    """

    threshold: ThresholdVector
    rounds: int
    converged: bool
    status: SolveStatus
    vulnerable_without_detector: bool
    history: list[SynthesisRecord] = field(default_factory=list)
    total_solver_time: float = 0.0
    algorithm: str = ""


class SynthesisRun:
    """One synthesis loop's Algorithm 1 rounds: session, counters, history, result.

    The run opens a :class:`~repro.core.session.SynthesisSession` on
    ``backend`` unless ``session`` (or any object with its ``solve`` and
    ``decide``) is given, and hands every query ``time_budget``.  It counts
    ``rounds`` (Algorithm 1 calls) and ``solver_time``, keeps ``history``
    (one :class:`~repro.utils.results.SynthesisRecord` per :meth:`record`,
    logged at DEBUG), and carries ``status`` (``UNKNOWN`` until a rule or
    :meth:`refine` settles it) and ``vulnerable`` (False once :meth:`open`
    found no attack without a detector).  :attr:`rounds_left` checks
    ``max_rounds`` (``None``: no cap).
    """

    def __init__(
        self,
        problem: SynthesisProblem,
        algorithm: str,
        backend: str | object = "lp",
        session: SynthesisSession | None = None,
        time_budget: float | None = None,
        max_rounds: int | None = None,
    ):
        self.session = SynthesisSession(problem, backend=backend) if session is None else session
        self.algorithm = algorithm
        self.time_budget = time_budget
        self.max_rounds = max_rounds
        self.rounds = 0
        self.solver_time = 0.0
        self.status = SolveStatus.UNKNOWN
        self.vulnerable = True
        self.history: list[SynthesisRecord] = []
        self._last: AttackSynthesisResult | None = None

    @property
    def rounds_left(self) -> bool:
        """True while another round fits under ``max_rounds``."""
        return self.max_rounds is None or self.rounds < self.max_rounds

    def _count(self, answer: AttackSynthesisResult) -> AttackSynthesisResult:
        self.rounds += 1
        self.solver_time += answer.elapsed
        self._last = answer
        return answer

    def solve(self, threshold: ThresholdVector | None) -> AttackSynthesisResult:
        """One round whose witness a rule refines on (the max-margin attack)."""
        return self._count(self.session.solve(threshold, time_budget=self.time_budget))

    def decide(self, threshold: ThresholdVector) -> AttackSynthesisResult:
        """One verdict-only round (a stored witness may answer SAT without a solve)."""
        return self._count(self.session.decide(threshold, time_budget=self.time_budget))

    def open(self) -> AttackSynthesisResult | None:
        """Round one, the detector-free query: its attack, or ``None`` (and its status)."""
        first = self.solve(None)
        if first.found:
            return first
        self.status = first.status
        self.vulnerable = False
        return None

    def record(self, action: str, threshold: Any, attack: Any = None) -> None:
        """Record the latest round's ``action`` and the threshold it left."""
        logger.debug("%s round %d: %s", self.algorithm, self.rounds, action)
        self.history.append(
            SynthesisRecord(
                round_index=self.rounds,
                action=action,
                threshold=threshold,
                attack=attack,
                solver_time=self._last.elapsed,
            )
        )

    def refine(
        self,
        threshold: ThresholdVector,
        rule: Callable[[np.ndarray], str],
        more: Callable[[], bool] = lambda: True,
    ) -> None:
        """Counterexample-guided rounds on ``threshold``.

        While the run is not ``UNSAT``, rounds are left and ``more()``
        holds: solve under ``threshold``, stop on no attack, else let
        ``rule(residue_norms)`` change ``threshold`` in place and record the
        action it returns.  A rule that changes nothing is blocked
        (typically by a ``min_threshold`` floor): the run stops ``UNKNOWN``.
        So does a run stopped by the cap or by ``more()`` after a
        counterexample: no round has judged the refined ``threshold``.
        """
        while self.status is not SolveStatus.UNSAT and self.rounds_left and more():
            answer = self.solve(threshold)
            self.status = answer.status
            if not answer.found:
                return
            before = threshold.values.copy()
            self.record(rule(answer.residue_norms), threshold.copy(), answer.attack)
            if np.array_equal(before, threshold.values):
                break
        if self.status is not SolveStatus.UNSAT:
            self.status = SolveStatus.UNKNOWN

    def result(self, threshold: ThresholdVector) -> ThresholdSynthesisResult:
        """The run's outcome with ``threshold`` as its vector."""
        return ThresholdSynthesisResult(
            threshold=threshold,
            rounds=self.rounds,
            converged=self.status is SolveStatus.UNSAT,
            status=self.status,
            vulnerable_without_detector=self.vulnerable,
            history=self.history,
            total_solver_time=self.solver_time,
            algorithm=self.algorithm,
        )
