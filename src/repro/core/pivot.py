"""Algorithm 2 — pivot-based variable-threshold synthesis.

Counterexample-guided loop: synthesize an attack, place (or tighten) a
threshold at a pivot instant chosen from the attack's residues, repeat until
no stealthy successful attack remains.  The refinement follows the paper's
three cases:

* **Case 1a** — the current attack produced, before some already-thresholded
  instant ``p``, a residue at least as large as ``Th[p]``: threshold the
  largest such residue (monotonicity is preserved automatically).
* **Case 1b** — otherwise, threshold the largest residue occurring after some
  thresholded instant, provided doing so keeps the vector monotonically
  decreasing.
* **Case 1c** — otherwise reduce an existing threshold: pick the one whose
  gap to the attack's residue is smallest, set it to that residue and clamp
  all later thresholds to keep the vector monotone.

Termination is guaranteed for a positive strictness margin: cases 1a/1b add
at most ``T`` new thresholds and every case 1c step lowers a threshold by at
least the margin.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.problem import SynthesisProblem
from repro.core.session import SynthesisSession
from repro.core.synthesis_result import ThresholdSynthesisResult
from repro.detectors.threshold import ThresholdVector
from repro.registry import SYNTHESIZERS
from repro.utils.results import SolveStatus, SynthesisRecord
from repro.utils.validation import ValidationError

logger = logging.getLogger(__name__)


@SYNTHESIZERS.register("pivot")
@dataclass
class PivotThresholdSynthesizer:
    """Pivot-based synthesis of a monotonically decreasing threshold vector.

    Parameters
    ----------
    backend:
        Attack-synthesis backend name or instance (``"lp"``, ``"optimizer"``, ...).
    max_rounds:
        Safety cap on the number of Algorithm 1 calls.
    time_budget_per_call:
        Optional per-call wall-clock budget (the paper's 12-hour analogue).
    pivot_rule:
        ``"max-residue"`` (paper) or ``"first-violation"`` (ablation): which
        instant of the first counterexample receives the first threshold.
    min_threshold:
        Floor below which thresholds are never placed (guards against
        degenerate zero thresholds when an attack produces a zero residue at
        the pivot instant).
    """

    backend: str | object = "lp"
    max_rounds: int = 500
    time_budget_per_call: float | None = None
    pivot_rule: str = "max-residue"
    min_threshold: float = 0.0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.pivot_rule not in {"max-residue", "first-violation"}:
            raise ValidationError("pivot_rule must be 'max-residue' or 'first-violation'")

    # ------------------------------------------------------------------
    def _initial_pivot(self, norms: np.ndarray) -> int:
        if self.pivot_rule == "max-residue":
            return int(np.argmax(norms))
        nonzero = np.flatnonzero(norms > self.min_threshold)
        return int(nonzero[0]) if nonzero.size else int(np.argmax(norms))

    # ------------------------------------------------------------------
    def synthesize(
        self, problem: SynthesisProblem, session: SynthesisSession | None = None
    ) -> ThresholdSynthesisResult:
        """Run the full synthesis loop on ``problem``.

        ``session`` lets a caller (the pipeline, the batch runner) share one
        incremental session across several algorithms; when omitted the loop
        opens its own.
        """
        if session is None:
            session = SynthesisSession(problem, backend=self.backend)
        threshold = problem.fresh_threshold()
        history: list[SynthesisRecord] = []
        total_time = 0.0

        first = session.solve(None, time_budget=self.time_budget_per_call)
        total_time += first.elapsed
        rounds = 1
        if not first.found:
            return ThresholdSynthesisResult(
                threshold=threshold,
                rounds=rounds,
                converged=first.status is SolveStatus.UNSAT,
                status=first.status,
                vulnerable_without_detector=False,
                history=history,
                total_solver_time=total_time,
                algorithm="pivot",
            )

        norms = first.residue_norms
        pivot = self._initial_pivot(norms)
        threshold.set_value(pivot, max(norms[pivot], self.min_threshold))
        history.append(
            SynthesisRecord(
                round_index=rounds,
                action=f"initial pivot at k={pivot}",
                threshold=threshold.copy(),
                attack=first.attack,
                solver_time=first.elapsed,
            )
        )

        final_status = SolveStatus.UNKNOWN
        while rounds < self.max_rounds:
            result = session.solve(threshold, time_budget=self.time_budget_per_call)
            total_time += result.elapsed
            rounds += 1
            final_status = result.status
            if not result.found:
                break
            norms = result.residue_norms
            before = threshold.values.copy()
            action = self._refine(threshold, norms)
            if self.verbose:  # pragma: no cover - logging only
                logger.info("round %d: %s", rounds, action)
            history.append(
                SynthesisRecord(
                    round_index=rounds,
                    action=action,
                    threshold=threshold.copy(),
                    attack=result.attack,
                    solver_time=result.elapsed,
                )
            )
            if np.array_equal(before, threshold.values):
                # The refinement is blocked (typically by the min_threshold
                # floor): no further progress is possible.
                final_status = SolveStatus.UNKNOWN
                break

        converged = final_status is SolveStatus.UNSAT
        return ThresholdSynthesisResult(
            threshold=threshold,
            rounds=rounds,
            converged=converged,
            status=final_status,
            vulnerable_without_detector=True,
            history=history,
            total_solver_time=total_time,
            algorithm="pivot",
        )

    # ------------------------------------------------------------------
    def _refine(self, threshold: ThresholdVector, norms: np.ndarray) -> str:
        """Apply one refinement (cases 1a / 1b / 1c) in place; returns a description."""
        horizon = len(norms)
        set_indices = [int(i) for i in threshold.set_indices()]

        # ----- Case 1a --------------------------------------------------
        for p in set_indices:
            earlier = [k for k in range(p) if norms[k] >= threshold[p] and not threshold.is_set(k)]
            if not earlier:
                continue
            i = max(earlier, key=lambda k: norms[k])
            value = threshold.monotone_cap(i, float(norms[i]))
            value = max(value, self.min_threshold)
            threshold.set_value(i, value)
            threshold.clamp_successors(i)
            return f"case-1a new threshold Th[{i}]={value:.6g} (before p={p})"

        # ----- Case 1b --------------------------------------------------
        for p in set_indices:
            later = [k for k in range(p + 1, horizon) if not threshold.is_set(k)]
            if not later:
                continue
            i = max(later, key=lambda k: norms[k])
            if norms[i] <= self.min_threshold:
                continue
            later_thresholds = [threshold[k] for k in set_indices if k > i]
            if any(norms[i] < value for value in later_thresholds):
                continue
            value = threshold.monotone_cap(i, float(norms[i]))
            value = max(value, self.min_threshold)
            threshold.set_value(i, value)
            threshold.clamp_successors(i)
            return f"case-1b new threshold Th[{i}]={value:.6g} (after p={p})"

        # ----- Case 1c --------------------------------------------------
        reducible = [
            k for k in set_indices if max(float(norms[k]), self.min_threshold) < threshold[k]
        ]
        if not reducible:
            return "case-1c blocked by min_threshold floor (no progress possible)"
        i = min(reducible, key=lambda k: threshold[k] - norms[k])
        value = max(float(norms[i]), self.min_threshold)
        threshold.set_value(i, value)
        threshold.clamp_successors(i)
        return f"case-1c reduced Th[{i}] to {value:.6g}"
