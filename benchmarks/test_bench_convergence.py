"""§IV convergence comparison — rounds needed by Algorithms 2 and 3.

The paper reports that, on the VSC, Algorithm 2 terminates in the 56th round
while Algorithm 3 terminates much faster, in the 37th round.

Shape targets: both algorithms converge (final Algorithm 1 call returns
UNSAT) within the round budget, and the step-wise Algorithm 3 needs no more
rounds than the pivot-based Algorithm 2.  Absolute round counts depend on the
counterexample generator (we use maximally stealthy LP counterexamples,
Z3 produced arbitrary ones); the benchmark prints them next to the paper's
§IV counts.
"""

from __future__ import annotations

from benchmarks.conftest import run_once


def test_convergence_rounds(benchmark, vsc_case, vsc_synthesis):
    def collect():
        return {
            "Algorithm 2 (pivot)": vsc_synthesis["pivot"],
            "Algorithm 3 (step-wise)": vsc_synthesis["stepwise"],
            "static baseline": vsc_synthesis["static"],
        }

    results = run_once(benchmark, collect)

    print("\n--- Convergence of the threshold-synthesis algorithms (VSC, T = 50)")
    print(f"{'algorithm':26s} {'rounds':>7s} {'converged':>10s} {'solver time [s]':>16s}")
    for label, result in results.items():
        print(
            f"{label:26s} {result.rounds:7d} {str(result.converged):>10s} "
            f"{result.total_solver_time:16.2f}"
        )
    paper = {"Algorithm 2 (pivot)": 56, "Algorithm 3 (step-wise)": 37}
    print(f"paper reference rounds: {paper}")

    pivot = results["Algorithm 2 (pivot)"]
    stepwise = results["Algorithm 3 (step-wise)"]
    assert pivot.converged
    assert stepwise.converged
    # The paper's headline comparison: Algorithm 3 converges in fewer rounds.
    assert stepwise.rounds <= pivot.rounds


def test_trajectory_convergence(benchmark, trajectory_case, trajectory_synthesis):
    """Same comparison on the (much smaller) trajectory-tracking system."""

    results = run_once(benchmark, lambda: trajectory_synthesis)
    print("\n--- Convergence on the trajectory-tracking system (T = 10)")
    for label in ("pivot", "stepwise", "static"):
        result = results[label]
        print(
            f"{label:10s} rounds={result.rounds:4d} converged={result.converged} "
            f"solver_time={result.total_solver_time:.2f}s"
        )
    assert results["pivot"].converged
    assert results["stepwise"].converged
    assert results["static"].converged
