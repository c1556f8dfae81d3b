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

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SynthesisProblem
from repro.core.session import SynthesisSession
from repro.core.synthesis_result import SynthesisRun, ThresholdSynthesisResult
from repro.detectors.threshold import ThresholdVector
from repro.registry import SYNTHESIZERS
from repro.utils.validation import ValidationError


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
        """Run the full synthesis loop on ``problem`` (on ``session`` when given)."""
        run = SynthesisRun(
            problem, "pivot", self.backend, session, self.time_budget_per_call, self.max_rounds
        )
        threshold = problem.fresh_threshold()
        first = run.open()
        if first is not None:
            norms = first.residue_norms
            pivot = self._initial_pivot(norms)
            threshold.set_value(pivot, max(norms[pivot], self.min_threshold))
            run.record(f"initial pivot at k={pivot}", threshold.copy(), first.attack)
            run.refine(threshold, lambda norms: self._refine(threshold, norms))
        return run.result(threshold)

    # ------------------------------------------------------------------
    def _refine(self, threshold: ThresholdVector, norms: np.ndarray) -> str:
        """Apply one refinement (cases 1a / 1b / 1c) in place; returns a description."""
        horizon = len(norms)
        set_indices = [int(i) for i in threshold.set_indices()]

        def place(i: int, value: float) -> float:
            value = max(value, self.min_threshold)
            threshold.set_value(i, value)
            threshold.clamp_successors(i)
            return value

        # ----- Case 1a --------------------------------------------------
        for p in set_indices:
            earlier = [k for k in range(p) if norms[k] >= threshold[p] and not threshold.is_set(k)]
            if not earlier:
                continue
            i = max(earlier, key=lambda k: norms[k])
            value = place(i, threshold.monotone_cap(i, float(norms[i])))
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
            value = place(i, threshold.monotone_cap(i, float(norms[i])))
            return f"case-1b new threshold Th[{i}]={value:.6g} (after p={p})"

        # ----- Case 1c --------------------------------------------------
        reducible = [
            k for k in set_indices if max(float(norms[k]), self.min_threshold) < threshold[k]
        ]
        if not reducible:
            return "case-1c blocked by min_threshold floor (no progress possible)"
        i = min(reducible, key=lambda k: threshold[k] - norms[k])
        value = place(i, float(norms[i]))
        return f"case-1c reduced Th[{i}] to {value:.6g}"
