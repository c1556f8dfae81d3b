"""Runtime benchmarks: fleet throughput, the fused kernel, and the FAR speedup.

Three measurements back the runtime subsystem:

* fleet throughput — a 1000-instance x 200-step deployment on the DC-motor
  loop, reported as instance-steps per second, with two hard floors on the
  fused float64 engine: one on the stepping window
  (``test_fleet_throughput_floor``) and one on the whole ``run_fleet`` call
  (``test_fleet_end_to_end_floor``).  Each record carries the whole-call
  throughput (``end_to_end_throughput``) and the report's phase split as
  flat ``phase_<name>_s`` keys;
* fused vs legacy before/after — the library's fused engine against the
  per-step reference stepper (the test-side ``LegacyEngine`` of
  ``tests/engine_oracle.py``, registered for the measurement only) on the
  same attacked fleet workload, asserting identical float64 detector
  statistics and recording both throughputs in one benchmark record;
* FAR vectorization before/after — the batched benign-population generation
  of :class:`~repro.core.far.FalseAlarmEvaluator` against the historical
  one-Python-simulation-per-trial loop, asserting *identical* rates and a
  real speedup.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from tests.engine_oracle import legacy_engine

from repro import (
    FalseAlarmEvaluator,
    RuntimeConfig,
    get_case_study,
    run_fleet,
)
from repro.detectors.cusum import CusumDetector
from repro.lti.simulate import SimulationOptions, simulate_closed_loop
from repro.noise.generators import draw_streams


def _fleet_config(
    n_instances: int = 1000, horizon: int = 200, engine: str = "fused"
) -> RuntimeConfig:
    return RuntimeConfig(
        n_instances=n_instances,
        horizon=horizon,
        static_thresholds={"static": 0.1},
        detectors={"cusum": {"name": "cusum", "options": {"bias": 0.02, "threshold": 0.5}}},
        attacks=[{"template": "bias", "options": {"bias": 0.5}, "fraction": 0.1, "start": 50}],
        include_mdc=False,
        seed=0,
        engine=engine,
    )


def _benign_config() -> RuntimeConfig:
    """The benign FAR-calibration fleet of the floors: 4000 x 200, fused, no attacks."""
    return RuntimeConfig(
        n_instances=4000,
        horizon=200,
        static_thresholds={"static": 0.1},
        detectors={"cusum": {"name": "cusum", "options": {"bias": 0.02, "threshold": 0.5}}},
        include_mdc=False,
        seed=0,
        engine="fused",
    )


def _timed_fleet(config: RuntimeConfig, problem):
    """One ``run_fleet`` call and its wall seconds."""
    started = time.perf_counter()
    report = run_fleet(config, problem)
    return report, time.perf_counter() - started


def _record_layers(benchmark, report, wall_s: float) -> None:
    """Put the whole-call throughput and the flat phase split into the record."""
    benchmark.extra_info["end_to_end_throughput"] = report.instance_steps / wall_s
    for name, seconds in report.metadata["phases"].items():
        benchmark.extra_info[f"phase_{name}_s"] = seconds


def test_fleet_throughput(benchmark):
    """1000 monitored instances x 200 steps in one batched run_fleet call."""
    problem = get_case_study("dcmotor").problem
    config = _fleet_config()
    report, wall_s = run_once(benchmark, lambda: _timed_fleet(config, problem))
    print(
        f"\n--- fleet throughput: {report.instance_steps} instance-steps in "
        f"{report.elapsed_seconds:.3f}s = {report.throughput:,.0f} instance-steps/s "
        f"(whole call {wall_s:.3f}s = {report.instance_steps / wall_s:,.0f}/s)"
    )
    print(report)
    _record_layers(benchmark, report, wall_s)
    benchmark.extra_info["throughput"] = report.throughput
    benchmark.extra_info["elapsed_s"] = report.elapsed_seconds
    benchmark.extra_info["instance_steps"] = report.instance_steps
    assert report.n_instances == 1000 and report.horizon == 200
    assert report.stats("static").detection_rate == 1.0


def test_fleet_throughput_floor(benchmark):
    """Fused float64 clears >= 30M instance-steps/s, instrumentation compiled in.

    The metrics/tracing instrumentation in ``FleetSimulator.run`` ships in
    the default build with the registry *disabled*; this gate pins the floor
    the ROADMAP's scaling work builds on.  The workload is the benign
    FAR-calibration regime — static threshold + CUSUM over a 4000-instance
    DC-motor fleet, no attacks — where the batched stepper amortizes its
    fixed per-step Python cost over the instance axis (the reference stepper
    measures ~16M here; the fused block-GEMM kernel ~35M; best-of-3 guards
    against scheduler noise).  The run asserts the fused GEMM path was
    actually taken, so a probe downgrade to the reference stepper cannot
    pass silently at its speed.
    """
    problem = get_case_study("dcmotor").problem
    config = _benign_config()
    reports: list = []

    def best_of_three():
        reports[:] = [run_fleet(config, problem) for _ in range(3)]
        return max(report.throughput for report in reports)

    best = run_once(benchmark, best_of_three)
    engine = reports[-1].metadata["engine"]
    print(
        f"\n--- fused float64 throughput floor: best of 3 = {best:,.0f} "
        f"instance-steps/s (fused_path={engine['fused_path']})"
    )
    benchmark.extra_info["throughput"] = best
    benchmark.extra_info["engine"] = engine
    # Wall-clock gates only bind in real benchmark runs; the CI smoke job
    # (--benchmark-disable) runs on shared machines where they'd flake.
    if not benchmark.disabled:
        assert engine["fused_path"], "probe downgraded the fused engine to the reference"
        assert best > 30_000_000


def test_fleet_end_to_end_floor(benchmark):
    """The whole fused float64 ``run_fleet`` call clears >= 25M instance-steps/s.

    Same benign 4000 x 200 fleet as the stepping-window floor, but timed
    around the public call: stream setup (one block draw per run), the
    detector bank, the stepping window and the report.  Best of 3, after
    one untimed warm-up call (first-call costs such as the engine's cached
    equivalence probe are not part of a steady-state call).
    """
    problem = get_case_study("dcmotor").problem
    config = _benign_config()
    run_fleet(config, problem)
    runs: list = []

    def best_of_three():
        runs[:] = [_timed_fleet(config, problem) for _ in range(3)]
        return min(runs, key=lambda run: run[1])

    report, wall_s = run_once(benchmark, best_of_three)
    best = report.instance_steps / wall_s
    phases = ", ".join(
        f"{name} {seconds * 1e3:.1f}ms" for name, seconds in report.metadata["phases"].items()
    )
    print(f"\n--- fused float64 whole call: best of 3 = {best:,.0f} instance-steps/s ({phases})")
    _record_layers(benchmark, report, wall_s)
    # Wall-clock gates only bind in real benchmark runs (see above).
    if not benchmark.disabled:
        assert report.metadata["engine"]["fused_path"], "probe downgraded the fused engine"
        assert best >= 25_000_000


def test_fused_vs_legacy_before_after(benchmark):
    """Fused vs legacy on the attacked fleet workload: identical stats, one record.

    Both engines run the exact same 4000-instance attacked deployment; the
    legacy side is the reference stepper, registered as ``"legacy"`` for
    this measurement only.  The float64 detector statistics must be
    identical (the equivalence contract, exercised at benchmark scale), and
    both throughputs plus the ratio land in this benchmark's record so
    ``repro.obs.watch`` tracks the speedup over time.  The attacked workload
    is heavier than the floor's benign one (attack injection and detection
    bookkeeping are on the hot path), so its absolute numbers sit below the
    floor's.
    """
    problem = get_case_study("dcmotor").problem
    with legacy_engine():
        legacy = run_fleet(_fleet_config(n_instances=4000, engine="legacy"), problem)
    fused = run_once(
        benchmark,
        lambda: run_fleet(_fleet_config(n_instances=4000, engine="fused"), problem),
    )
    speedup = fused.throughput / max(legacy.throughput, 1e-9)
    print(
        f"\n--- fused vs legacy (attacked, N=4000): legacy "
        f"{legacy.throughput:,.0f}, fused {fused.throughput:,.0f} "
        f"instance-steps/s (x{speedup:.2f})"
    )
    benchmark.extra_info["legacy_throughput"] = legacy.throughput
    benchmark.extra_info["fused_throughput"] = fused.throughput
    benchmark.extra_info["speedup"] = speedup
    # Bit-identity at benchmark scale: every detector statistic matches.
    assert set(fused.detectors) == set(legacy.detectors)
    for label in fused.detectors:
        assert fused.detectors[label].to_dict() == legacy.detectors[label].to_dict()
    # The speedup bound only binds in real benchmark runs; the CI smoke job
    # (--benchmark-disable) runs on shared machines where it would flake.
    if not benchmark.disabled:
        assert speedup > 1.1


def test_fleet_scales_with_instances(benchmark):
    """Batched stepping: 10x the fleet must cost far less than 10x the time."""
    problem = get_case_study("dcmotor").problem

    def deploy(n_instances: int):
        config = RuntimeConfig(
            n_instances=n_instances,
            horizon=200,
            static_thresholds={"static": 0.1},
            include_mdc=False,
            seed=0,
        )
        return run_fleet(config, problem)

    small = deploy(100)
    large = run_once(benchmark, lambda: deploy(1000))
    ratio = large.elapsed_seconds / max(small.elapsed_seconds, 1e-9)
    print(
        f"\n--- scaling: 100 instances {small.elapsed_seconds:.4f}s, "
        f"1000 instances {large.elapsed_seconds:.4f}s (x{ratio:.1f} for 10x work)"
    )
    # Wall-clock comparisons only bind in real benchmark runs; the CI smoke
    # job (--benchmark-disable) runs on shared machines where they'd flake.
    if not benchmark.disabled:
        assert ratio < 9.0


def _sequential_far(problem, detectors, count, seed):
    """The pre-vectorization FAR implementation (one Python simulation per trial).

    Its noise is the shared block draw; trial ``i`` takes row ``i``.
    """
    noise_model = FalseAlarmEvaluator.default_noise_model(problem)
    kept = []
    streams = draw_streams(seed, count, problem.horizon, noise_model)
    for measurement_noise in streams.measurement:
        trace = simulate_closed_loop(
            problem.system,
            SimulationOptions(horizon=problem.horizon, x0=problem.x0),
            measurement_noise=measurement_noise,
        )
        if not problem.pfc_satisfied(trace):
            continue
        if problem.mdc_alarm(trace):
            continue
        kept.append(trace)
    return {
        label: float(
            np.mean([bool(np.any(threshold.alarms(trace.residues))) for trace in kept])
        )
        for label, threshold in detectors.items()
    }


def test_far_vectorization_before_after(benchmark):
    """Vectorized FAR: identical rates to the sequential loop, measurably faster."""
    problem = get_case_study("trajectory").problem
    count, seed = 300, 0
    detectors = {
        "loose": problem.static_threshold(1.0),
        "mid": problem.static_threshold(0.02),
        "tight": problem.static_threshold(1e-6),
    }

    started = time.perf_counter()
    sequential_rates = _sequential_far(problem, detectors, count, seed)
    sequential_seconds = time.perf_counter() - started

    def vectorized():
        evaluator = FalseAlarmEvaluator(problem, count=count, seed=seed)
        return evaluator.evaluate(detectors)

    started = time.perf_counter()
    study = run_once(benchmark, vectorized)
    vectorized_seconds = time.perf_counter() - started

    speedup = sequential_seconds / max(vectorized_seconds, 1e-9)
    print(
        f"\n--- FAR generation ({count} trials x T={problem.horizon}): "
        f"sequential {sequential_seconds:.3f}s, vectorized {vectorized_seconds:.3f}s "
        f"(x{speedup:.1f})"
    )
    # Identical rates: the batched path replays the exact same per-trial
    # noise streams and filters.
    assert study.rates == sequential_rates
    # The speedup bound only binds in real benchmark runs; the CI smoke job
    # (--benchmark-disable) runs on shared machines where wall-clock
    # comparisons flake (this repo already dropped one such assert in PR 1).
    if not benchmark.disabled:
        assert speedup > 1.5


def test_cusum_fleet_matches_offline_rates(benchmark):
    """Cross-check: online fleet FAR of a CUSUM equals its offline per-trace FAR."""
    problem = get_case_study("dcmotor").problem
    # Parameters chosen so the benign FAR is solidly non-zero (~14 %): the
    # equality below then checks real alarms, not two silent detectors.
    detector = CusumDetector(bias=0.005, threshold=0.05)
    count = 400

    def deploy():
        config = RuntimeConfig(
            n_instances=count,
            static_thresholds={"static": 0.05},
            include_mdc=False,
            noise_scale=1.0,
            seed=7,
        )
        return run_fleet(config, problem, detectors={"cusum": detector})

    report = run_once(benchmark, deploy)
    evaluator = FalseAlarmEvaluator(
        problem, count=count, seed=7, filter_pfc=False, filter_mdc=False
    )
    offline = np.mean(
        [detector.detects(trace.residues) for trace in evaluator.benign_traces()]
    )
    online = report.stats("cusum").false_alarm_rate
    print(f"\n--- cusum FAR: online fleet {online:.4f}, offline traces {float(offline):.4f}")
    assert online > 0.0
    assert online == float(offline)
