"""The one detector pass: ``core.run(block)`` ≡ stacked ``core.step`` calls.

Every fleet detector runs as one ``BatchDetector.run`` over a whole
``(T, N, m)`` horizon.  The threshold and CUSUM cores vectorize it (one
call of the detector's own norm function, then a broadcast comparison or
the serial clamp); every other core steps through the block.  These
properties check, bit for bit, that a run returns the alarms of the stacked
per-step calls and leaves the core in the same state — over every core
type, every norm, one to three channels (plus nine, where a strided
channel reduction would change the summation order), weighted and
unweighted, on contiguous blocks and on the transposed ``(T, m, N)`` views
the fleet loop records, and on a threshold core grown mid-run so its
instances sit at different threshold positions.  The shared norm function
is checked bitwise against the two expressions it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.threshold import ThresholdVector, residue_norms
from repro.monitors.composite import CompositeMonitor
from repro.monitors.deadzone import DeadZoneMonitor
from repro.monitors.gradient_monitor import GradientMonitor
from repro.monitors.range_monitor import RangeMonitor
from repro.runtime.batch import (
    BatchChiSquare,
    BatchCusum,
    BatchMonitor,
    BatchThresholdDetector,
)
from repro.utils.validation import ValidationError

# The extreme entries of ``_values`` overflow ``x * x`` on purpose.
pytestmark = [
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
]

NORMS = (1, 2, "inf")
CHANNELS = (1, 2, 3, 9)


def _values(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Residue-like values over many magnitudes, with exact zeros mixed in.

    A few entries sit where ``x * x`` underflows or overflows, the only
    places ``sqrt(x * x)`` and ``|x|`` part ways.
    """
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, size=shape)
    values[rng.random(shape) < 0.03] *= 1e-160
    values[rng.random(shape) < 0.03] *= 1e160
    values[rng.random(shape) < 0.05] = 0.0
    return values


def _block(rng: np.random.Generator, T: int, N: int, m: int, transposed: bool):
    """A ``(T, N, m)`` block: contiguous, or a view of a ``(T, m, N)`` stack."""
    if transposed:
        return _values(rng, (T, m, N)).transpose(0, 2, 1)
    return _values(rng, (T, N, m))


def _core(kind: str, seed: int, m: int, norm, weighted: bool, N: int):
    """A core of ``kind`` whose parameters are drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, size=m) if weighted else None
    if kind == "threshold":
        values = np.sort(rng.uniform(1e-3, 1.0, size=int(rng.integers(1, 12))))[::-1]
        return BatchThresholdDetector(ThresholdVector(values, norm=norm, weights=weights), N)
    if kind == "cusum":
        detector = CusumDetector(bias=float(rng.uniform(0.01, 0.2)), threshold=0.5, norm=norm)
        return BatchCusum(detector, N)
    if kind == "chi-square":
        factor = rng.standard_normal((m, m))
        covariance = factor @ factor.T + np.eye(m)
        return BatchChiSquare(ChiSquareDetector(covariance, threshold=1.0), N)
    channel = int(rng.integers(0, m))
    monitor = CompositeMonitor(
        [
            RangeMonitor.symmetric(channel, 0.5),
            GradientMonitor(channel=int(rng.integers(0, m)), max_rate=2.0),
            DeadZoneMonitor(RangeMonitor.symmetric(channel, 0.1), dead_zone_samples=2),
        ]
    )
    return BatchMonitor(monitor, dt=0.1, n_instances=N)


def _assert_same_state(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for key in left:
        assert np.array_equal(left[key], right[key]), key


def _run_vs_steps(run_core, step_core, block: np.ndarray) -> None:
    alarms = run_core.run(block)
    stepped = np.array([step_core.step(block[k]) for k in range(block.shape[0])])
    assert alarms.dtype == bool and alarms.shape == block.shape[:2]
    assert np.array_equal(alarms, stepped.reshape(alarms.shape))
    _assert_same_state(run_core.state, step_core.state)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("threshold", "cusum", "chi-square", "monitor")),
    norm=st.sampled_from(NORMS),
    m=st.sampled_from(CHANNELS),
    weighted=st.booleans(),
    transposed=st.booleans(),
    T=st.integers(0, 25),
    N=st.integers(1, 12),
    warmup=st.integers(0, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_equals_stacked_steps(kind, norm, m, weighted, transposed, T, N, warmup, seed):
    rng = np.random.default_rng(seed)
    run_core = _core(kind, seed, m, norm, weighted, N)
    step_core = _core(kind, seed, m, norm, weighted, N)
    # Both cores reach the same mid-run state first (CUSUM accumulators,
    # threshold positions, previous measurements, dead-zone run lengths).
    for row in _values(rng, (warmup, N, m)):
        assert np.array_equal(run_core.step(row), step_core.step(row))
    _run_vs_steps(run_core, step_core, _block(rng, T, N, m, transposed))


@settings(max_examples=60, deadline=None)
@given(
    norm=st.sampled_from(NORMS),
    m=st.sampled_from(CHANNELS),
    weighted=st.booleans(),
    transposed=st.booleans(),
    before=st.integers(1, 8),
    grown=st.integers(1, 4),
    T=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_threshold_grown_mid_run_reads_per_instance_timelines(
    norm, m, weighted, transposed, before, grown, T, seed
):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 8))
    run_core = _core("threshold", seed, m, norm, weighted, N)
    step_core = _core("threshold", seed, m, norm, weighted, N)
    for row in _values(rng, (before, N, m)):
        run_core.step(row)
        step_core.step(row)
    run_core.grow(grown)
    step_core.grow(grown)
    steps = run_core.state["steps"]
    assert steps.min() != steps.max(), "the grown fleet must not be in lockstep"
    _run_vs_steps(run_core, step_core, _block(rng, T, N + grown, m, transposed))


def _parent_norms(residues: np.ndarray, norm, weights) -> np.ndarray:
    """The expression ``ThresholdVector``/``CusumDetector`` each carried."""
    if weights is not None:
        residues = residues / weights
    if norm == "inf":
        return np.max(np.abs(residues), axis=1)
    return np.linalg.norm(residues, ord=norm, axis=1)


@settings(max_examples=150, deadline=None)
@given(
    norm=st.sampled_from(NORMS),
    m=st.sampled_from(CHANNELS),
    weighted=st.booleans(),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_norm_function_equals_the_parent_expressions(norm, m, weighted, rows, seed):
    rng = np.random.default_rng(seed)
    residues = _values(rng, (rows, m))
    weights = rng.uniform(0.5, 2.0, size=m) if weighted else None
    expected = _parent_norms(residues, norm, weights)
    assert np.array_equal(residue_norms(residues, norm, weights), expected)
    vector = ThresholdVector(np.ones(3), norm=norm, weights=weights)
    assert np.array_equal(vector.residue_norms(residues), expected)
    if not weighted:
        detector = CusumDetector(bias=0.1, threshold=1.0, norm=norm)
        assert np.array_equal(detector._norms(residues), expected)
    # One call over a (T, N, m) view equals the per-step (N, m) calls.
    stack = _values(rng, (4, m, rows))
    block = stack.transpose(0, 2, 1)
    per_step = [_parent_norms(np.ascontiguousarray(block[k]), norm, weights) for k in range(4)]
    assert np.array_equal(residue_norms(block, norm, weights), np.stack(per_step))


def test_run_rejects_blocks_of_the_wrong_shape():
    core = BatchCusum(CusumDetector(bias=0.1, threshold=1.0), 3)
    with pytest.raises(ValidationError):
        core.run(np.zeros((5, 4, 1)))
    with pytest.raises(ValidationError):
        core.run(np.zeros((5, 3)))
