"""Micro-benchmarks of the formal substrate itself.

Not part of the paper's evaluation, but useful for downstream users sizing
their own problems: how Algorithm 1's runtime scales with the analysis
horizon, and what the incremental synthesis session saves over one encoding
per call.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from tests.synthesis_oracle import PerCallSession, TwoPhaseLPBackend

from repro import StepwiseThresholdSynthesizer, get_case_study, synthesize_attack
from repro.core import encoding as encoding_module
from repro.core.session import SynthesisSession
from repro.systems import build_dcmotor_case_study


def test_attack_synthesis_scaling_with_horizon(benchmark):
    """Algorithm 1 runtime as the analysis window grows."""

    def sweep():
        rows = []
        for horizon in (10, 20, 40, 80):
            problem = build_dcmotor_case_study(horizon=horizon).problem
            start = time.monotonic()
            result = synthesize_attack(problem, threshold=problem.static_threshold(1.0))
            rows.append((horizon, time.monotonic() - start, result.status.value))
        return rows

    rows = run_once(benchmark, sweep)
    print("\n--- Algorithm 1 (LP backend) scaling with horizon, DC motor")
    print(f"{'horizon':>8s} {'time [s]':>10s} {'verdict':>9s}")
    for horizon, elapsed, verdict in rows:
        print(f"{horizon:8d} {elapsed:10.3f} {verdict:>9s}")
    assert all(verdict in ("sat", "unsat") for _, _, verdict in rows)


def _legacy_stepwise_workload(problem, floor):
    """The seed's per-call CEGIS path for the stepwise × lp workload.

    Every Algorithm 1 call rebuilds the full ``AttackEncoding`` (horizon
    unrolling + every constraint block) and the LP backend runs the
    historical feasibility-then-margin two-LP sequence per branch.  Both
    halves come from the test-side oracle in ``tests/synthesis_oracle.py``.
    """
    backend = TwoPhaseLPBackend()
    vulnerability = synthesize_attack(problem, threshold=None, backend=backend)
    synthesizer = StepwiseThresholdSynthesizer(backend=backend, min_threshold=floor)
    return vulnerability, synthesizer.synthesize(
        problem, session=PerCallSession(problem, backend=backend)
    )


def _session_stepwise_workload(problem, floor):
    """The same workload through one incremental SynthesisSession."""
    session = SynthesisSession(problem, backend="lp")
    vulnerability = session.solve(None)
    synthesizer = StepwiseThresholdSynthesizer(backend="lp", min_threshold=floor)
    return vulnerability, synthesizer.synthesize(problem, session=session)


def _timed_interleaved(legacy, session, repeats):
    """Best-of-``repeats`` time, last output and builds per call of each side.

    The two sides alternate within every repeat, and which one runs first
    alternates between repeats, so a host slowing down or speeding up
    mid-measurement reaches both sides alike instead of the one timed last.
    """
    sides = {"legacy": legacy, "session": session}
    best = dict.fromkeys(sides, float("inf"))
    out = dict.fromkeys(sides)
    builds = dict.fromkeys(sides, 0)
    for repeat in range(repeats):
        order = ("legacy", "session") if repeat % 2 == 0 else ("session", "legacy")
        for side in order:
            before = encoding_module.encoding_build_count()
            start = time.monotonic()
            out[side] = sides[side]()
            best[side] = min(best[side], time.monotonic() - start)
            builds[side] += encoding_module.encoding_build_count() - before
    return {side: (best[side], out[side], builds[side] // repeats) for side in sides}


def test_incremental_session_vs_legacy_cegis(benchmark):
    """Session engine vs the seed's per-call path: identical results, 1 build.

    Asserted on every case study: the session path returns bit-identical
    thresholds, rounds and statuses, with exactly ONE encoding build per
    problem where the legacy path builds one per round.  Wall-clock: the
    issue that motivated sessions assumed the encoding rebuild dominated the
    round; profiling shows the HiGHS solve is ~75% of a round on the vsc
    workload, so eliminating the rebuild + the redundant feasibility LP
    (margin-first single-LP strategy) + the repeated detector-free query
    yields a measured ~1.6-2.0x end-to-end (≈1.7-1.8x on stepwise × lp vsc,
    up to ≈2x on pivot workloads) — the assertion below uses 1.4x as the
    noise-robust floor, and the per-round *redundant work* (encoding builds,
    duplicate LPs) is verified eliminated exactly.
    """
    cases = ("vsc", "trajectory", "dcmotor", "quadtank", "cruise")

    def sweep():
        rows = []
        for name in cases:
            case = get_case_study(name)
            problem = case.problem
            floor = case.extras.get("reproduction", {}).get("min_threshold", 0.0)
            repeats = 3 if name == "vsc" else 1
            # warm both paths once so timing excludes first-touch effects
            _legacy_stepwise_workload(problem, floor)
            _session_stepwise_workload(problem, floor)

            timed = _timed_interleaved(
                lambda: _legacy_stepwise_workload(problem, floor),
                lambda: _session_stepwise_workload(problem, floor),
                repeats,
            )
            legacy_time, (legacy_vuln, legacy), legacy_builds = timed["legacy"]
            session_time, (session_vuln, incremental), session_builds = timed["session"]
            rows.append(
                {
                    "case": name,
                    "legacy_time": legacy_time,
                    "session_time": session_time,
                    "legacy_builds": legacy_builds,
                    "session_builds": session_builds,
                    "rounds": legacy.rounds,
                    "identical": bool(
                        np.array_equal(
                            legacy.threshold.values, incremental.threshold.values
                        )
                        and legacy.rounds == incremental.rounds
                        and legacy.status == incremental.status
                        and legacy_vuln.status == session_vuln.status
                    ),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print("\n--- Incremental sessions vs legacy per-call CEGIS (stepwise x lp)")
    print(
        f"{'case':>12s} {'rounds':>7s} {'builds':>12s} {'legacy [s]':>11s} "
        f"{'session [s]':>12s} {'speedup':>8s} {'identical':>10s}"
    )
    for row in rows:
        speedup = row["legacy_time"] / row["session_time"]
        builds = f"{row['legacy_builds']}->{row['session_builds']}"
        print(
            f"{row['case']:>12s} {row['rounds']:7d} {builds:>12s} "
            f"{row['legacy_time']:11.3f} {row['session_time']:12.3f} "
            f"{speedup:7.2f}x {str(row['identical']):>10s}"
        )

    # Bit-identical synthesis results on every case study.
    assert all(row["identical"] for row in rows)
    # The session builds the encoding once per problem; the legacy path
    # builds one per Algorithm 1 call (rounds + the vulnerability check).
    assert all(row["session_builds"] == 1 for row in rows)
    assert all(row["legacy_builds"] == row["rounds"] + 1 for row in rows)
    # Wall-clock reduction on the vsc stepwise x lp workload (noise-robust
    # floor; measured ~1.7-1.8x on an idle machine, see docstring).  Skipped
    # in --benchmark-disable smoke runs, where shared-runner scheduling noise
    # would make a timing assert flaky; the identity and build-count asserts
    # above are deterministic and always run.
    if not benchmark.disabled:
        vsc = next(row for row in rows if row["case"] == "vsc")
        assert vsc["legacy_time"] / vsc["session_time"] >= 1.4
