"""Each alarm rule, cut into blocks, against its per-sample oracle.

The CUSUM clamp (``CusumDetector._accumulate``) and the dead-zone run
length (``repro.monitors.deadzone._run_lengths``) are each defined once and
run over a ``(T, ...)`` block from a carried state: the offline detectors
run them over a whole trace, a fleet core over 32-step blocks, a service
round over one row.  These properties cut random ``(T, R)`` blocks at such
boundaries (or at random ones), carry the state across, and check the
result row by row against the per-sample Python loops in
``tests/alarm_oracle.py``: CUSUM statistics bit for bit, run lengths and
alarms exactly.  The detector-level checks run the same shapes through
``CusumDetector.statistics``, ``BatchCusum``, ``DeadZoneMonitor.alarms``
and ``BatchMonitor``.

The chi-square statistic of a sample must not depend on the block it is
evaluated in: a ``(T, m)`` trace, a fleet's ``(T, N, m)`` block and the
stacked one-row evaluations agree bit for bit.
"""

from __future__ import annotations

import numpy as np
from alarm_oracle import cusum_oracle, run_length_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.threshold import residue_norms
from repro.monitors.deadzone import DeadZoneMonitor, _run_lengths
from repro.monitors.range_monitor import RangeMonitor
from repro.runtime.batch import BatchCusum, BatchMonitor

#: How a horizon is cut: a fleet's 32-step blocks, a service's one-row
#: rounds, an offline trace's single block, or random boundaries.
SPLITS = ("fleet", "service", "trace", "random")

_norm = st.floats(0.0, 1e3, allow_subnormal=True)


def _bounds(draw, T: int, split: str) -> list[int]:
    """Block boundaries ``0 = b_0 < ... < b_n = T`` for one way of cutting."""
    if split == "fleet":
        cuts = range(32, T, 32)
    elif split == "service":
        cuts = range(1, T)
    elif split == "trace":
        cuts = ()
    else:
        cuts = sorted(draw(st.sets(st.integers(1, max(T - 1, 1)), max_size=8)))
        cuts = [cut for cut in cuts if cut < T]
    return [0, *cuts, T]


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.dtype == right.dtype and left.tobytes() == right.tobytes()


@st.composite
def cusum_cases(draw):
    T = draw(st.integers(0, 80))
    R = draw(st.integers(1, 5))
    norms = draw(hnp.arrays(np.float64, (T, R), elements=_norm))
    bias = draw(st.floats(1e-3, 50.0))
    start = draw(st.none() | hnp.arrays(np.float64, (R,), elements=_norm))
    split = draw(st.sampled_from(SPLITS))
    return norms, bias, start, _bounds(draw, T, split)


@settings(max_examples=300, deadline=None)
@given(cusum_cases())
def test_cusum_clamp_across_blocks_equals_the_oracle(case):
    norms, bias, start, bounds = case
    detector = CusumDetector(bias=bias, threshold=1.0)
    expected = cusum_oracle(norms, bias, 0.0 if start is None else start)
    carry = 0.0 if start is None else start.copy()
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = detector._accumulate(norms[lo:hi].copy(), carry)
        blocks.append(block)
        if hi > lo:
            carry = block[-1]
    got = np.concatenate(blocks) if blocks else np.zeros_like(norms)
    assert _same_bits(got, expected)
    if start is None:
        # The offline form: one (T,) trace column from a zero statistic.
        for column in range(norms.shape[1]):
            trace = detector._accumulate(norms[:, column].copy())
            assert _same_bits(trace, expected[:, column])


@settings(max_examples=100, deadline=None)
@given(
    residues=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 70), st.integers(1, 4), st.integers(1, 3)),
        elements=st.floats(-50.0, 50.0),
    ),
    bias=st.floats(1e-3, 5.0),
    norm=st.sampled_from((1, 2, "inf")),
    split=st.sampled_from(SPLITS),
    data=st.data(),
)
def test_cusum_detector_forms_equal_the_oracle(residues, bias, norm, split, data):
    """Offline ``statistics`` per instance and a fleet core's blocks, bit for bit."""
    detector = CusumDetector(bias=bias, threshold=1.0, norm=norm)
    T, N, _ = residues.shape
    expected = cusum_oracle(residue_norms(residues, norm), bias)
    for column in range(N):
        offline = detector.statistics(residues[:, column])
        assert _same_bits(offline, expected[:, column])
    core = BatchCusum(detector, N)
    bounds = _bounds(data.draw, T, split)
    for lo, hi in zip(bounds, bounds[1:]):
        alarms = core.run(residues[lo:hi])
        assert np.array_equal(alarms, expected[lo:hi] >= detector.threshold)
        if hi > lo:
            assert _same_bits(core.state["statistic"], expected[hi - 1])


@st.composite
def run_length_cases(draw):
    T = draw(st.integers(0, 80))
    R = draw(st.integers(1, 5))
    violated = draw(hnp.arrays(np.bool_, (T, R)))
    start = draw(st.none() | hnp.arrays(np.int64, (R,), elements=st.integers(0, 40)))
    split = draw(st.sampled_from(SPLITS))
    samples = draw(st.integers(1, 8))
    return violated, start, _bounds(draw, T, split), samples


@settings(max_examples=300, deadline=None)
@given(run_length_cases())
def test_run_lengths_across_blocks_equal_the_oracle(case):
    violated, start, bounds, samples = case
    expected = run_length_oracle(violated, 0 if start is None else start)
    carry = 0 if start is None else start.copy()
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = _run_lengths(violated[lo:hi], carry)
        blocks.append(block)
        if hi > lo:
            carry = block[-1]
    got = np.concatenate(blocks) if blocks else np.zeros(violated.shape, dtype=int)
    assert got.shape == expected.shape and np.array_equal(got, expected)
    assert np.array_equal(got >= samples, expected >= samples)
    if start is None:
        for column in range(violated.shape[1]):
            assert np.array_equal(_run_lengths(violated[:, column]), expected[:, column])


@settings(max_examples=100, deadline=None)
@given(
    measurements=hnp.arrays(
        np.float64, st.tuples(st.integers(0, 70), st.integers(1, 4), st.just(1)),
        elements=st.floats(-1.0, 1.0),
    ),
    samples=st.integers(1, 8),
    split=st.sampled_from(SPLITS),
    data=st.data(),
)
def test_dead_zone_forms_equal_the_oracle(measurements, samples, split, data):
    """Offline ``alarms`` per instance and a fleet core's blocks, run lengths included."""
    inner = RangeMonitor.symmetric(0, 0.5)
    monitor = DeadZoneMonitor(inner, dead_zone_samples=samples)
    T, N, _ = measurements.shape
    violated = ~inner.check(measurements.reshape(T * N, 1), None, 0.1).reshape(T, N)
    expected = run_length_oracle(violated)
    for column in range(N):
        offline = monitor.alarms(measurements[:, column], 0.1)
        assert np.array_equal(offline, expected[:, column] >= samples)
    core = BatchMonitor(monitor, dt=0.1, n_instances=N)
    bounds = _bounds(data.draw, T, split)
    for lo, hi in zip(bounds, bounds[1:]):
        alarms = core.run(measurements[lo:hi])
        assert np.array_equal(alarms, expected[lo:hi] >= samples)
        if hi > lo:
            assert np.array_equal(core.state[f"{monitor.name}.run_length"], expected[hi - 1])


@st.composite
def chi_square_cases(draw):
    m = draw(st.integers(1, 4))
    T = draw(st.integers(1, 59))
    N = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((m, m))
    covariance = factor @ factor.T + 0.1 * np.eye(m)
    residues = rng.standard_normal((T, N, m)) * 10.0 ** rng.integers(-3, 3, size=(T, N, m))
    return ChiSquareDetector(covariance, threshold=1.0), residues


@settings(max_examples=300, deadline=None)
@given(chi_square_cases())
def test_chi_square_statistic_does_not_depend_on_the_block(case):
    detector, residues = case
    T, N, _ = residues.shape
    block = detector.statistics(residues)
    for column in range(N):
        trace = detector.statistics(residues[:, column])
        rows = np.concatenate([detector.statistics(residues[k, column]) for k in range(T)])
        assert _same_bits(trace, rows)
        assert _same_bits(block[:, column], rows)
