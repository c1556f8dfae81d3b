"""§IV false-alarm-rate study.

The paper draws 1000 random bounded measurement-noise vectors, discards those
that violate the performance criterion or trip the existing monitors, and
reports the fraction of the remaining benign traces on which each detector
raises an alarm:

    Algorithm 2 (pivot)    : 61.5 %
    Algorithm 3 (step-wise): 45.6 %
    static threshold       : 98.9 %

Shape target: the provably safe static threshold alarms on essentially every
benign trace.  The variable-threshold half of the paper's result does not
reproduce on the substituted VSC model: measured on 1000 benign traces,
pivot, step-wise and static all alarm on 100 % of them.  The synthesized
variable thresholds end up noise-level tight at some instants, so one
instant catches every benign trace.  The benchmark prints the measured and
the paper values side by side and asserts only the robust part of the
shape.
"""

from __future__ import annotations

from benchmarks.conftest import run_once

PAPER_FAR = {"Algorithm 2 (pivot)": 0.615, "Algorithm 3 (step-wise)": 0.456, "static": 0.989}


def test_far_comparison(benchmark, vsc_case, vsc_synthesis, vsc_far_evaluator):
    detectors = {
        "Algorithm 2 (pivot)": vsc_synthesis["pivot_relaxed"].threshold,
        "Algorithm 3 (step-wise)": vsc_synthesis["stepwise_relaxed"].threshold,
        "static": vsc_synthesis["static"].threshold,
    }

    study = run_once(benchmark, lambda: vsc_far_evaluator.evaluate(detectors))

    print("\n--- §IV false-alarm-rate study (VSC)")
    print(
        f"benign population: generated={study.generated} kept={study.kept} "
        f"(discarded {study.discarded_pfc} by pfc, {study.discarded_mdc} by mdc)"
    )
    print(f"{'detector':26s} {'measured FAR':>14s} {'paper FAR':>11s}")
    for label, rate in study.rates.items():
        paper = PAPER_FAR.get(label)
        paper_text = f"{100 * paper:9.1f} %" if paper is not None else "        —"
        print(f"{label:26s} {100 * rate:12.1f} % {paper_text}")

    # Robust shape assertions.
    assert study.kept > 0
    # The provably safe static threshold is essentially always triggered by
    # benign noise (paper: 98.9 %).
    assert study.rates["static"] >= 0.9
    # All detectors keep the formal no-stealthy-attack guarantee; their FARs
    # are printed above next to the paper's (the module docstring gives the
    # measured gap on the variable thresholds).
    assert vsc_synthesis["pivot"].converged
    assert vsc_synthesis["stepwise"].converged
    assert vsc_synthesis["static"].converged


def test_far_trajectory_static_vs_variable(benchmark, trajectory_case, trajectory_synthesis):
    """Complementary FAR measurement on the trajectory-tracking system."""
    from repro import FalseAlarmEvaluator

    problem = trajectory_case.problem
    reproduction = trajectory_case.extras["reproduction"]
    evaluator = FalseAlarmEvaluator(
        problem,
        noise_model=FalseAlarmEvaluator.default_noise_model(
            problem, scale=reproduction["far_noise_scale"]
        ),
        count=min(500, reproduction["far_count"]),
        seed=0,
        initial_state_spread=reproduction["far_initial_state_spread"],
    )
    detectors = {
        "pivot": trajectory_synthesis["pivot_relaxed"].threshold,
        "stepwise": trajectory_synthesis["stepwise_relaxed"].threshold,
        "static": trajectory_synthesis["static"].threshold,
    }
    study = run_once(benchmark, lambda: evaluator.evaluate(detectors))
    print("\n--- FAR on the trajectory-tracking system")
    for label, rate in study.rates.items():
        print(f"  {label:9s}: {100 * rate:5.1f} %  (kept {study.kept}/{study.generated})")
    assert study.kept > 0
    assert all(0.0 <= rate <= 1.0 for rate in study.rates.values())
