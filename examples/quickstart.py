#!/usr/bin/env python3
"""Quickstart: secure a small control loop end to end.

This example walks through the whole workflow of the library on the smallest
benchmark (a DC-motor speed loop whose encoder messages can be spoofed):

1. build the closed loop and the synthesis problem,
2. check whether the existing plausibility monitors can be bypassed
   (Algorithm 1 of the paper),
3. synthesize a variable-threshold residue detector that provably blocks
   every stealthy attack (Algorithm 3),
4. compare its false-alarm rate against the provably safe static threshold.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    FalseAlarmEvaluator,
    StaticThresholdSynthesizer,
    StepwiseThresholdSynthesizer,
    get_case_study,
    synthesize_attack,
)
from repro.registry import BACKENDS


def main() -> None:
    case = get_case_study("dcmotor")
    problem = case.problem
    print(f"case study      : {case.name}")
    print(f"solver backends : {', '.join(BACKENDS.available())}")
    print(f"plant           : {problem.system.plant!r}")
    print(f"analysis horizon: {problem.horizon} samples")

    # ------------------------------------------------------------------
    # Step 1 — is the loop attackable despite its existing monitors?
    # ------------------------------------------------------------------
    vulnerability = synthesize_attack(problem, threshold=None, backend="lp")
    print("\n[1] attack synthesis without a residue detector")
    print(f"    verdict : {vulnerability.status.value}")
    if vulnerability.found:
        trace = vulnerability.trace
        print(f"    the attack keeps every monitor quiet and drives the final speed to "
              f"{trace.final_state()[0]:.3f} rad/s (target band "
              f"{problem.pfc.x_des[0] - problem.pfc.epsilon[0]:.2f}"
              f"..{problem.pfc.x_des[0] + problem.pfc.epsilon[0]:.2f})")
        print(f"    peak injected false data: {vulnerability.attack.peak():.3f} rad/s")

    # ------------------------------------------------------------------
    # Step 2 — synthesize a variable-threshold detector (Algorithm 3).
    # ------------------------------------------------------------------
    stepwise = StepwiseThresholdSynthesizer(backend="lp", min_threshold=0.02)
    variable = stepwise.synthesize(problem)
    print("\n[2] step-wise variable-threshold synthesis (Algorithm 3)")
    print(f"    rounds    : {variable.rounds}")
    print(f"    converged : {variable.converged} (no stealthy attack remains)")
    print(f"    thresholds: {np.round(variable.threshold.values, 4)}")

    # ------------------------------------------------------------------
    # Step 3 — the provably safe static baseline.
    # ------------------------------------------------------------------
    static = StaticThresholdSynthesizer(backend="lp").synthesize(problem)
    print("\n[3] provably safe static threshold (baseline)")
    print(f"    value     : {static.threshold.values[0]:.4f}")

    # ------------------------------------------------------------------
    # Step 4 — false-alarm comparison over benign noise traces.
    # ------------------------------------------------------------------
    evaluator = FalseAlarmEvaluator(
        problem,
        count=500,
        seed=0,
        initial_state_spread=np.array([0.05, 0.0]),
    )
    study = evaluator.evaluate({"variable": variable.threshold, "static": static.threshold})
    print("\n[4] false alarm rate over benign (noise-only) traces")
    print(f"    population kept after pfc/mdc filters: {study.kept}/{study.generated}")
    for label, rate in study.rates.items():
        print(f"    {label:9s}: {100 * rate:5.1f} %")
    print("\nDone: the variable-threshold detector blocks every stealthy attack "
          "while raising fewer false alarms than the static baseline.")


if __name__ == "__main__":
    main()
