"""Ablation benchmarks for the design choices in ``docs/architecture.md`` ("Design choices").

1. Solver backend: LP branch enumeration vs the incomplete optimization
   falsifier (same verdict when the falsifier finds an attack, different
   runtime).
2. Counterexample quality: maximally stealthy LP counterexamples vs plain
   feasibility vertices (margin_mode ablation) — convergence rounds of
   Algorithm 2.
3. Pivot rule of Algorithm 2 (max-residue vs first-violation) and step rule
   of Algorithm 3 (min-area vs fixed-width).
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once

from repro import (
    PivotThresholdSynthesizer,
    StepwiseThresholdSynthesizer,
    get_case_study,
    synthesize_attack,
)
from repro.falsification.lp_backend import LPAttackBackend
from repro.registry import BACKENDS
from repro.utils.results import SolveStatus


def test_backend_ablation(benchmark):
    """All backends agree on the verdict; timings are reported informationally only."""
    problem = get_case_study("dcmotor", horizon=10).problem

    def run_all():
        rows = {}
        for backend in BACKENDS.available():
            start = time.monotonic()
            result = synthesize_attack(problem, threshold=None, backend=backend)
            rows[backend] = (result.status, time.monotonic() - start, result.verified)
        return rows

    rows = run_once(benchmark, run_all)

    print("\n--- Backend ablation (DC motor, T = 10, no residue detector)")
    print(f"{'backend':10s} {'verdict':>9s} {'verified':>9s} {'time [s]':>10s}")
    for backend, (status, elapsed, verified) in sorted(rows.items()):
        print(f"{backend:10s} {status.value:>9s} {str(verified):>9s} {elapsed:10.3f}")

    # The complete LP backend proves the loop attackable, and its attack
    # simulates to a genuine stealthy violation.
    assert rows["lp"][0] is SolveStatus.SAT
    assert rows["lp"][2]
    # The optimizer is incomplete: it either finds a (verified) attack or gives up.
    assert rows["optimizer"][0] in (SolveStatus.SAT, SolveStatus.UNKNOWN)
    if rows["optimizer"][0] is SolveStatus.SAT:
        assert rows["optimizer"][2]


def test_counterexample_quality_ablation(benchmark):
    """Max-stealth-margin counterexamples make Algorithm 2 converge in far fewer rounds."""
    problem = get_case_study("trajectory").problem

    def run_both():
        smart = PivotThresholdSynthesizer(
            backend=LPAttackBackend(margin_mode="max-stealth-margin"), max_rounds=400
        ).synthesize(problem)
        plain = PivotThresholdSynthesizer(
            backend=LPAttackBackend(margin_mode="none"), max_rounds=400
        ).synthesize(problem)
        return smart, plain

    smart, plain = run_once(benchmark, run_both)
    print("\n--- Counterexample-quality ablation (Algorithm 2, trajectory system)")
    print(f"max-stealth-margin counterexamples: rounds={smart.rounds} converged={smart.converged}")
    print(f"plain feasibility vertices        : rounds={plain.rounds} converged={plain.converged}")
    assert smart.converged
    assert smart.rounds <= plain.rounds


def test_refinement_rule_ablation(benchmark):
    """Pivot-rule and step-rule variants still converge on the trajectory system."""
    problem = get_case_study("trajectory").problem

    def run_all():
        rows = {}
        rows["pivot/max-residue"] = PivotThresholdSynthesizer(
            backend="lp", pivot_rule="max-residue", max_rounds=400
        ).synthesize(problem)
        rows["pivot/first-violation"] = PivotThresholdSynthesizer(
            backend="lp", pivot_rule="first-violation", max_rounds=400
        ).synthesize(problem)
        rows["stepwise/min-area"] = StepwiseThresholdSynthesizer(
            backend="lp", step_rule="min-area", max_rounds=400
        ).synthesize(problem)
        rows["stepwise/fixed-width"] = StepwiseThresholdSynthesizer(
            backend="lp", step_rule="fixed-width", max_rounds=400
        ).synthesize(problem)
        return rows

    rows = run_once(benchmark, run_all)
    print("\n--- Refinement-rule ablation (trajectory system)")
    print(f"{'variant':24s} {'rounds':>7s} {'converged':>10s}")
    for label, result in rows.items():
        print(f"{label:24s} {result.rounds:7d} {str(result.converged):>10s}")
    assert all(result.converged for result in rows.values())
