#!/usr/bin/env python3
"""Attack catalogue: how classical FDI attack templates fare against detectors.

The paper's solver synthesizes worst-case attacks; this example complements it
by running the classical parametric adversaries from the literature (bias,
ramp, surge, geometric) against three detectors — the synthesized variable
threshold, a chi-square detector and a CUSUM detector — on the adaptive
cruise-control benchmark, reporting which attacks are detected, how fast, and
how much damage they cause.

Run with::

    python examples/attack_catalog.py
"""

from __future__ import annotations

from repro import (
    ChiSquareDetector,
    CusumDetector,
    ResidueDetector,
    StepwiseThresholdSynthesizer,
    build_cruise_case_study,
)
from repro.attacks import BiasAttack, GeometricAttack, RampAttack, SurgeAttack
from repro.estimation.innovation import innovation_covariance
from repro.estimation.kalman import steady_state_kalman
from repro.lti.simulate import SimulationOptions, simulate_closed_loop


def main() -> None:
    case = build_cruise_case_study()
    problem = case.problem
    print(f"benchmark: {case.name} — {case.description}\n")

    # Detectors -----------------------------------------------------------
    variable = StepwiseThresholdSynthesizer(backend="lp", min_threshold=0.02).synthesize(problem)
    variable_detector = ResidueDetector(variable.threshold)

    _, covariance = steady_state_kalman(problem.system.plant)
    innovation_cov = innovation_covariance(problem.system.plant, covariance)
    chi_square = ChiSquareDetector.from_false_alarm_probability(innovation_cov, 0.01)
    cusum = CusumDetector(bias=0.3, threshold=3.0)

    detectors = {
        "variable threshold": variable_detector,
        "chi-square": chi_square,
        "cusum": cusum,
    }

    # Attacks ---------------------------------------------------------------
    attacks = {
        "bias +1.5 m from k=10": BiasAttack(bias=1.5, start=10),
        "ramp 0.08 m/sample": RampAttack(slope=0.08, start=5),
        "surge 3 m then 0.3 m": SurgeAttack(surge_value=3.0, settle_value=0.3, surge_length=2),
        "geometric 0.05 * 1.12^k": GeometricAttack(initial=0.05, ratio=1.12),
    }

    system = problem.system
    options = SimulationOptions(horizon=problem.horizon, with_noise=True, seed=2, x0=problem.x0)

    header = f"{'attack':28s} {'gap error @T':>13s} {'pfc ok':>7s} " + "".join(
        f"{name:>20s}" for name in detectors
    )
    print(header)
    print("-" * len(header))

    # Every run draws the same noise (seed 2), so rows differ by the attack alone.
    baseline = simulate_closed_loop(system, options)
    print(f"{'(no attack)':28s} {baseline.final_state()[0]:13.3f} "
          f"{str(problem.pfc_satisfied(baseline)):>7s}" + " " * 20 * len(detectors))

    for label, template in attacks.items():
        attack = template.generate(problem.horizon, system.n_outputs)
        trace = simulate_closed_loop(system, options, attack=attack.values)
        row = f"{label:28s} {trace.final_state()[0]:13.3f} "
        row += f"{str(problem.pfc_satisfied(trace)):>7s}"
        for detector in detectors.values():
            result = detector.evaluate(trace.residues)
            verdict = f"alarm@{result.first_alarm}" if result.detected else "missed"
            row += f"{verdict:>20s}"
        print(row)

    print("\nReading: every template that breaks the performance criterion is caught "
          "by the synthesized variable threshold; the classical detectors catch the "
          "aggressive attacks but can miss the slow geometric one.")


if __name__ == "__main__":
    main()
