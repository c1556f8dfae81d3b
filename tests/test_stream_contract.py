"""The block stream contract: one keyed generator per run, instance-major blocks.

Three groups of checks:

* **Same seed, same streams.**  A :class:`FleetSimulator` of ``N`` and a
  :class:`FalseAlarmEvaluator` of ``count == N`` draw through the one
  function :func:`repro.noise.generators.draw_streams`, so their residues
  are bit-identical — with process noise and initial-state spread on, and
  on a plant whose process-noise covariance is all zero.
* **The attack scheduler is unchanged.**  A seed attacks the instances
  ``resolve_instances(N, spawn_rngs(seed, N + 1)[-1])`` picks.
* **Statistical re-verification.**  The block contract changes the random
  numbers, not their distribution: FAR rates under it agree with rates
  under the per-instance contract it replaced (kept below as
  :func:`per_instance_streams`, a distribution oracle) within five binomial
  standard errors — the paper's VSC study and a DC-motor fleet.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import (
    FARConfig,
    RuntimeConfig,
    SynthesisConfig,
    get_case_study,
    run_fleet,
    run_pipeline,
)
from repro.api.execute import RAW_FAR_SUFFIX
from repro.attacks.templates import BiasAttack
from repro.core.far import FalseAlarmEvaluator
from repro.detectors.cusum import CusumDetector
from repro.noise.generators import Streams
from repro.runtime.fleet import FleetSimulator, ScheduledAttack
from repro.utils.rng import spawn_rngs

#: The paper's FAR of the relaxed stepwise detector on VSC (Koley et al. §IV).
PAPER_VSC_RELAXED_STEPWISE_FAR = 0.456


def per_instance_streams(
    seed, count, horizon, noise_model, process_covariance=None, x0_spread=None
) -> Streams:
    """The per-instance stream contract the block contract replaced.

    One spawned generator per instance, each drawing that instance's
    measurement noise, then process noise, then initial-state offset.  Same
    signature and result as :func:`~repro.noise.generators.draw_streams`,
    so it can stand in for it.
    """
    rngs = spawn_rngs(seed, count)
    measurement = np.zeros((count, horizon, noise_model.dimension))
    process = offsets = None
    if process_covariance is not None and np.any(process_covariance):
        process = np.zeros((count, horizon, process_covariance.shape[0]))
    if x0_spread is not None:
        offsets = np.zeros((count, x0_spread.size))
    for i, rng in enumerate(rngs):
        measurement[i] = noise_model.sample(horizon, rng)
        if process is not None:
            process[i] = rng.multivariate_normal(
                np.zeros(process.shape[2]), process_covariance, size=horizon
            )
        if offsets is not None:
            offsets[i] = rng.uniform(-1.0, 1.0, size=x0_spread.size) * x0_spread
    return Streams(measurement, process, offsets)


def _agree(new: float, old: float, kept: int) -> tuple[bool, float]:
    """Five binomial standard errors at ``old``, p(1-p) floored at 0.01."""
    tolerance = 5.0 * math.sqrt(max(old * (1.0 - old), 0.01) / kept)
    return abs(new - old) <= tolerance, tolerance


# ----------------------------------------------------------------------
def _zero_process_noise(problem):
    plant = problem.system.plant
    plant = dataclasses.replace(plant, Q_w=np.zeros_like(plant.Q_w))
    return dataclasses.replace(
        problem, system=dataclasses.replace(problem.system, plant=plant)
    )


class TestFleetAndFarShareStreams:
    N = 40

    @pytest.mark.parametrize("zero_q", [False, True], ids=["trajectory", "zero-Q_w"])
    def test_residues_are_bit_identical(self, trajectory_problem, zero_q):
        problem = _zero_process_noise(trajectory_problem) if zero_q else trajectory_problem
        spread = np.array([0.05, 0.01])
        evaluator = FalseAlarmEvaluator(
            problem,
            count=self.N,
            seed=13,
            include_process_noise=True,
            filter_pfc=False,
            filter_mdc=False,
            initial_state_spread=spread,
        )
        simulator = FleetSimulator(
            problem.system,
            self.N,
            problem.horizon,
            noise_model=evaluator.noise_model,
            include_process_noise=True,
            x0=problem.x0,
            x0_spread=spread,
            seed=13,
            record_traces=True,
            metrics=False,
        )
        simulator.run()
        traces = evaluator.benign_traces()
        assert np.array_equal(
            simulator.trace.states[:, 0], np.stack([trace.states[0] for trace in traces])
        )
        assert np.array_equal(
            simulator.trace.residues, np.stack([trace.residues for trace in traces])
        )
        assert np.any(simulator.trace.process_noise) != zero_q


class TestAttackScheduler:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_attacked_set_matches_the_spawned_scheduler(self, dcmotor_problem, seed):
        N = 60
        entry = ScheduledAttack(BiasAttack(bias=0.5), fraction=0.2, start=3)
        simulator = FleetSimulator(
            dcmotor_problem.system,
            N,
            20,
            attacks=[entry],
            seed=seed,
            record_traces=True,
            metrics=False,
        )
        simulator.run()
        attacked = np.flatnonzero(np.any(simulator.trace.attacks != 0, axis=(1, 2)))
        expected = entry.resolve_instances(N, spawn_rngs(seed, N + 1)[-1])
        assert np.array_equal(attacked, expected)


# ----------------------------------------------------------------------
def _far_detectors(report) -> dict:
    """The labels ``run_pipeline`` evaluates: deployed vectors plus raw ones."""
    detectors = {}
    for name, result in report.synthesis.items():
        deployed = report.deployed_threshold(name)
        if deployed is None:
            continue
        detectors[name] = deployed
        if name in report.relaxation and result.threshold is not None:
            detectors[name + RAW_FAR_SUFFIX] = result.threshold
    return detectors


class TestStatisticalReverification:
    def test_vsc_far_rates_agree_across_contracts(self, monkeypatch):
        case = get_case_study("vsc")
        reproduction = case.extras["reproduction"]
        far = FARConfig(
            count=1000,
            seed=0,
            noise_scale=reproduction["far_noise_scale"],
            initial_state_spread=[float(v) for v in reproduction["far_initial_state_spread"]],
        )
        report = run_pipeline(
            case.problem,
            SynthesisConfig(
                algorithms=("pivot", "stepwise", "static"),
                backend="lp",
                relax={"floor": 1.0},
            ),
            None,
        )
        detectors = _far_detectors(report)
        assert set(detectors) == {
            "pivot", "stepwise", "static",
            "pivot" + RAW_FAR_SUFFIX, "stepwise" + RAW_FAR_SUFFIX, "static" + RAW_FAR_SUFFIX,
        }
        block = far.build_evaluator(case.problem).evaluate(detectors)
        monkeypatch.setattr("repro.core.far.draw_streams", per_instance_streams)
        legacy = far.build_evaluator(case.problem).evaluate(detectors)

        print(
            f"\n--- VSC relaxed stepwise FAR at floor 1.0: {block.rates['stepwise']:.1%} "
            f"(per-instance streams {legacy.rates['stepwise']:.1%}, "
            f"paper {PAPER_VSC_RELAXED_STEPWISE_FAR:.1%})"
        )
        for label, old in legacy.rates.items():
            ok, tolerance = _agree(block.rates[label], old, block.kept)
            assert ok, f"{label}: {block.rates[label]:.4f} vs {old:.4f} +/- {tolerance:.4f}"

    def test_dcmotor_fleet_far_agrees_across_contracts(self, monkeypatch):
        problem = get_case_study("dcmotor").problem
        config = RuntimeConfig(
            n_instances=1000,
            # Both detectors alarm on a solid share of benign instances
            # (about 13 % each), so the comparison checks real alarms.
            static_thresholds={"static": 0.015},
            include_mdc=False,
            noise_scale=1.0,
            seed=7,
        )
        detectors = {"cusum": CusumDetector(bias=0.005, threshold=0.05)}
        block = run_fleet(config, problem, detectors=detectors)
        monkeypatch.setattr("repro.runtime.fleet.draw_streams", per_instance_streams)
        legacy = run_fleet(config, problem, detectors=detectors)
        for label in ("static", "cusum"):
            new = block.stats(label).false_alarm_rate
            old = legacy.stats(label).false_alarm_rate
            assert old > 0.0, f"{label} never alarms: the comparison would be vacuous"
            ok, tolerance = _agree(new, old, config.n_instances)
            assert ok, f"{label}: {new:.4f} vs {old:.4f} +/- {tolerance:.4f}"
