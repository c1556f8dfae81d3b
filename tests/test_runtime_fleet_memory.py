"""Memory guard of the fleet stepping loop.

``run_fleet`` keeps one instance-major ``(N, T, m)`` measurement-noise draw
for the whole horizon; everything step-major (noise and attack rows,
residues, the lanes' norms) lives in block buffers reused across the
horizon.  A call that again lays a whole-horizon step-major stack out next
to the draw shows here: its traced peak grows by at least one more
``(N, T, m)`` block.  numpy reports its buffers to :mod:`tracemalloc`, so
the traced peak covers every array the call allocates.
"""

import tracemalloc

from repro import InMemorySink, RuntimeConfig, get_case_study, run_fleet

N_INSTANCES, HORIZON = 2000, 200


def _attacked_fleet_config() -> RuntimeConfig:
    """The benchmark's attacked dc-motor fleet, at 2000 x 200."""
    return RuntimeConfig(
        n_instances=N_INSTANCES,
        horizon=HORIZON,
        static_thresholds={"static": 0.1},
        detectors={"cusum": {"name": "cusum", "options": {"bias": 0.02, "threshold": 0.5}}},
        attacks=[{"template": "bias", "options": {"bias": 0.5}, "fraction": 0.1, "start": 50}],
        include_mdc=False,
        seed=0,
    )


def test_attacked_run_peaks_below_two_and_a_half_noise_blocks():
    problem = get_case_study("dcmotor").problem
    config = _attacked_fleet_config()
    # Warm-up: the fused probe's verdict, lazy imports and registries are
    # cached by the first call and would otherwise count against it.
    run_fleet(config, problem, sinks=[InMemorySink()])

    block_bytes = N_INSTANCES * HORIZON * problem.system.plant.n_outputs * 8
    tracemalloc.start()
    try:
        report = run_fleet(config, problem, sinks=[InMemorySink()])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_attacked == N_INSTANCES // 10
    ratio = peak / block_bytes
    print(f"\n--- traced peak {peak / 1e6:.1f} MB = {ratio:.2f} (N, T, m) float64 blocks")
    assert ratio < 2.5, f"run_fleet peaked at {ratio:.2f} (N, T, m) blocks"
