"""Property test of the bit-identity contract on generated stable LTI loops.

Hypothesis generates small stable closed loops — with and without a
feed-through ``D``, process noise and attacks — at fleet widths 1–64 (width
1 rides the fused kernel's zero discard column) and horizons 1–60.  On each,
``batch_simulate`` must equal the per-step ``legacy_batch_oracle`` of
``tests/conftest.py`` under ``np.array_equal``, and a
:class:`~repro.serve.observer.BatchObserver` fed the oracle's measurements
must reproduce the oracle's residues: the service's estimator and the
fleet's are one update.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lti.model import StateSpace
from repro.lti.simulate import ClosedLoopSystem
from repro.runtime.fleet import batch_simulate
from repro.serve.observer import BatchObserver


@st.composite
def closed_loops(draw):
    """A stable discrete-time closed loop (plant spectral radius 0.85)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    A *= 0.85 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    D = rng.standard_normal((m, p)) * 0.2 if draw(st.booleans()) else None
    plant = StateSpace(A, rng.standard_normal((n, p)), rng.standard_normal((m, n)), D, dt=0.1)
    system = ClosedLoopSystem(
        plant,
        K=rng.standard_normal((p, n)) * 0.05,
        L=rng.standard_normal((n, m)) * 0.05,
        reference=rng.standard_normal(m) * 0.1,
        feedforward=rng.standard_normal((p, m)) * 0.1,
    )
    return system, rng


@settings(max_examples=60, deadline=None)
@given(
    loop=closed_loops(),
    n_instances=st.integers(1, 64),
    horizon=st.integers(1, 60),
    with_process_noise=st.booleans(),
    with_attacks=st.booleans(),
)
def test_batch_simulate_and_observer_match_the_oracle(
    batch_oracle, loop, n_instances, horizon, with_process_noise, with_attacks
):
    system, rng = loop
    plant = system.plant
    N, T, n, m = n_instances, horizon, plant.n_states, plant.n_outputs
    x0 = rng.standard_normal((N, n)) * 0.1
    V = rng.standard_normal((N, T, m)) * 1e-2
    W = rng.standard_normal((N, T, n)) * 1e-3 if with_process_noise else None
    A = rng.standard_normal((N, T, m)) * 1e-2 if with_attacks else None

    oracle = batch_oracle(system, x0, np.zeros_like(x0), V, W, A)
    trace = batch_simulate(
        system, T, x0=x0, measurement_noise=V, process_noise=W, attacks=A
    )
    for field, expected in oracle.items():
        assert np.array_equal(expected, getattr(trace, field)), field

    observer = BatchObserver(system)
    observer.grow(N)
    for k in range(T):
        residues = observer.step(oracle["measurements"][:, k])
        assert np.array_equal(residues, oracle["residues"][:, k]), k
