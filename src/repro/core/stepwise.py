"""Algorithm 3 — step-wise (staircase) variable-threshold synthesis.

The threshold vector is maintained as a monotonically decreasing staircase.
Synthesis proceeds in two phases:

* **Phase 1 — initial step formation.**  Starting from the attack found with
  no detector, the first step covers samples ``0..i`` at the height of the
  maximal residue.  Each subsequent counterexample extends the staircase to
  the right with a new, lower step whose height is the largest residue the
  new attack produces beyond the current staircase (capped by the previous
  step to preserve monotonicity).
* **Phase 2 — step reduction.**  While attacks still exist, the
  :func:`min_area_rectangle` rule picks the sampling instance at which
  forcing detection is cheapest — i.e. lowering the staircase from that
  instant onward to the attack's residue level removes the least area from
  under the threshold curve — and applies that cut.

Every phase-2 cut removes at least ``strictness`` of threshold height at the
chosen instant, so the loop terminates; it typically needs markedly fewer
rounds than Algorithm 2 because a single cut re-shapes a whole tail segment
instead of one sample.

The paper's pseudo-code for phase 2 is under-specified (it manipulates a
separate ``Steps`` array whose invariants are not stated); this
implementation keeps the documented intent — staircase structure, monotone
decrease, minimum-area greedy choice — as set out under "Design choices" in
``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import SynthesisProblem
from repro.core.session import SynthesisSession
from repro.core.synthesis_result import SynthesisRun, ThresholdSynthesisResult
from repro.detectors.threshold import ThresholdVector
from repro.registry import SYNTHESIZERS


def min_area_rectangle(
    norms: np.ndarray, threshold: ThresholdVector, floor: float = 0.0
) -> int | None:
    """Pick the instant where forcing detection removes the least threshold area.

    For each candidate instant ``i`` (with a finite threshold and a residue
    strictly below it), the cost is the area that would be removed from under
    the threshold curve by lowering every threshold from ``i`` onward down to
    ``max(norms[i], floor)``:

    ``area_i = sum_{j >= i} max(0, Th[j] - max(norms[i], floor))``.

    Returns the index with the smallest positive area, or ``None`` when no
    candidate exists (e.g. the attack already touches every threshold, or the
    floor prevents any cut).
    """
    norms = np.asarray(norms, dtype=float).reshape(-1)
    values = threshold.effective(norms.shape[0])
    best_index = None
    best_area = np.inf
    for i in range(norms.shape[0]):
        if not np.isfinite(values[i]):
            continue
        level = max(float(norms[i]), float(floor))
        if level >= values[i]:
            continue
        tail = values[i:]
        finite_tail = np.where(np.isfinite(tail), tail, level)
        area = float(np.sum(np.maximum(0.0, finite_tail - level)))
        if 0.0 < area < best_area:
            best_area = area
            best_index = i
    return best_index


@SYNTHESIZERS.register("stepwise")
@dataclass
class StepwiseThresholdSynthesizer:
    """Step-wise synthesis of a monotonically decreasing staircase threshold.

    Parameters
    ----------
    backend:
        Attack-synthesis backend name or instance.
    max_rounds:
        Safety cap on the number of Algorithm 1 calls.
    time_budget_per_call:
        Optional per-call wall-clock budget.
    min_threshold:
        Floor below which steps are never placed.
    step_rule:
        ``"min-area"`` (paper-style greedy) or ``"fixed-width"`` (ablation:
        cut at the earliest undetected instant instead of the cheapest one).
    """

    backend: str | object = "lp"
    max_rounds: int = 500
    time_budget_per_call: float | None = None
    min_threshold: float = 0.0
    step_rule: str = "min-area"

    # ------------------------------------------------------------------
    def synthesize(
        self, problem: SynthesisProblem, session: SynthesisSession | None = None
    ) -> ThresholdSynthesisResult:
        """Run the two-phase synthesis loop on ``problem`` (on ``session`` when given)."""
        run = SynthesisRun(
            problem, "stepwise", self.backend, session, self.time_budget_per_call, self.max_rounds
        )
        horizon = problem.horizon
        threshold = problem.fresh_threshold()
        first = run.open()
        if first is None:
            return run.result(threshold)

        norms = first.residue_norms
        pivot = int(np.argmax(norms))
        height = max(float(norms[pivot]), self.min_threshold)
        threshold.fill_step(0, pivot, height)
        last_filled = pivot
        run.record(f"initial step [0..{pivot}] at {height:.6g}", threshold.copy(), first.attack)

        # ----- Phase 1: extend the staircase to cover the whole horizon -----
        def extend(norms: np.ndarray) -> str:
            nonlocal last_filled
            start = last_filled + 1
            candidates = np.arange(start, horizon)
            previous_height = threshold[last_filled]
            feasible = [int(k) for k in candidates if norms[k] <= previous_height]
            if feasible:
                k = max(feasible, key=lambda idx: norms[idx])
                height = max(float(norms[k]), self.min_threshold)
            else:
                k = int(candidates[int(np.argmax(norms[candidates]))])
                height = previous_height
            threshold.fill_step(start, k, height)
            last_filled = k
            return f"phase-1 step [{start}..{k}] at {height:.6g}"

        run.refine(threshold, extend, more=lambda: last_filled < horizon - 1)

        # Samples never reached by phase 1 keep the last step's height so the
        # final vector is a complete staircase.
        if last_filled < horizon - 1:
            threshold.fill_step(last_filled + 1, horizon - 1, threshold[last_filled])

        # ----- Phase 2: carve steps down until no attack remains -----------
        def cut(norms: np.ndarray) -> str:
            if self.step_rule == "min-area":
                cut_index = min_area_rectangle(norms, threshold, floor=self.min_threshold)
            else:
                undetected = [
                    i for i in range(horizon) if norms[i] < threshold[i] and np.isfinite(threshold[i])
                ]
                cut_index = undetected[0] if undetected else None
            if cut_index is None:
                # Degenerate: the attack touches every threshold (should not
                # happen for verified counterexamples); lower everything by
                # the strictness margin to force progress.
                cut_index = 0
                cut_value = max(threshold[0] - problem.strictness, self.min_threshold)
            else:
                cut_value = max(float(norms[cut_index]), self.min_threshold)
            for j in range(cut_index, horizon):
                if threshold[j] > cut_value:
                    threshold.set_value(j, cut_value)
            return f"phase-2 cut [{cut_index}..] to {cut_value:.6g}"

        run.refine(threshold, cut)
        return run.result(threshold)
