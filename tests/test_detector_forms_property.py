"""Every deployment form of a detector computes the offline predicate.

Each detector and monitor class holds its math once; the runtime forms —
:class:`~repro.runtime.online.OnlineDetector` and the fleet cores
:func:`~repro.runtime.batch.make_batched` builds — call into it.  This
property test generates detectors of every kind (threshold vectors with the
1-, 2- or inf-norm, with or without channel weights, shorter or longer than
the trace; CUSUM and chi-square detectors; monitor trees nesting Range,
Relation and Gradient checks under DeadZone and Composite nodes) and
traces, and checks under ``np.array_equal`` that the offline
``evaluate``/``alarms``, ``OnlineDetector.run``, the trace's column of a
fleet core's ``run``, stacked ``step`` calls, and an instance attached to a
running fleet mid-run (``grow``) all raise the same alarms.

Residue traces are finite (every residue form rejects a NaN or infinite
residue).  Monitor traces may hold NaN and ±inf samples: a non-finite
measurement on a channel a Range, Relation or Gradient check reads is a
violation of that check, never a silent pass.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.detectors.residue import ResidueDetector
from repro.detectors.threshold import ThresholdVector
from repro.monitors.base import Monitor
from repro.monitors.composite import CompositeMonitor
from repro.monitors.deadzone import DeadZoneMonitor
from repro.monitors.gradient_monitor import GradientMonitor
from repro.monitors.range_monitor import RangeMonitor
from repro.monitors.relation_monitor import RelationMonitor
from repro.runtime.batch import make_batched
from repro.runtime.online import OnlineDetector

DT = 0.1
NORMS = (1, 2, "inf")
NON_FINITE = (np.nan, np.inf, -np.inf)

_unit = st.floats(0.05, 2.0)


def _thresholds(m: int, horizon: int):
    values = st.lists(
        st.one_of(st.floats(0.0, 3.0), st.just(np.inf)), min_size=1, max_size=2 * horizon
    )
    weights = st.none() | st.lists(st.floats(0.25, 4.0), min_size=m, max_size=m)
    return st.builds(
        lambda v, norm, w: ThresholdVector(
            np.array(v), norm=norm, weights=None if w is None else np.array(w)
        ),
        values,
        st.sampled_from(NORMS),
        weights,
    )


def _cusums():
    return st.builds(
        CusumDetector, bias=_unit, threshold=st.floats(0.1, 3.0), norm=st.sampled_from(NORMS)
    )


def _chi_squares(m: int):
    def build(seed: int, threshold: float) -> ChiSquareDetector:
        factor = np.random.default_rng(seed).standard_normal((m, m))
        return ChiSquareDetector(factor @ factor.T + np.eye(m), threshold=threshold)

    return st.builds(build, st.integers(0, 2**32 - 1), st.floats(0.5, 10.0))


def _monitors(m: int):
    channel = st.integers(0, m - 1)
    leaves = st.one_of(
        st.builds(RangeMonitor.symmetric, channel, st.floats(0.2, 2.5)),
        st.builds(
            RelationMonitor,
            channel_a=channel,
            channel_b=channel,
            gain=st.floats(-2.0, 2.0),
            allowed_diff=st.floats(0.2, 2.5),
            offset=st.floats(-0.5, 0.5),
        ),
        st.builds(GradientMonitor, channel=channel, max_rate=st.floats(2.0, 30.0)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(DeadZoneMonitor, inner=children, dead_zone_samples=st.integers(1, 4)),
            st.builds(CompositeMonitor, monitors=st.lists(children, min_size=1, max_size=3)),
        ),
        max_leaves=6,
    )


@st.composite
def scenarios(draw):
    """A detector, a fleet of traces, the trace under test, an attach step, poison.

    ``poison`` (monitors only) lists non-finite samples to plant: ``(True,
    i, value)`` in the trace under test, ``(False, i, value)`` anywhere in
    the fleet.
    """
    m = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 20))
    detector = draw(
        st.one_of(_thresholds(m, horizon), _cusums(), _chi_squares(m), _monitors(m))
    )
    width = draw(st.integers(1, 4))
    column = draw(st.integers(0, width - 1))
    attach = draw(st.integers(0, horizon))
    seed = draw(st.integers(0, 2**32 - 1))
    poison = []
    if isinstance(detector, Monitor):
        sample = st.tuples(st.booleans(), st.integers(0, 2**16), st.sampled_from(NON_FINITE))
        poison = draw(st.lists(sample, max_size=4))
    return detector, m, horizon, width, column, attach, seed, poison


def _offline(detector, trace: np.ndarray) -> np.ndarray:
    if isinstance(detector, ThresholdVector):
        alarms = detector.alarms(trace)
        assert np.array_equal(ResidueDetector(detector).evaluate(trace).alarms, alarms)
        return alarms
    if isinstance(detector, Monitor):
        return detector.alarms(trace, DT)
    return detector.evaluate(trace).alarms


def _leaves(monitor: Monitor):
    if isinstance(monitor, DeadZoneMonitor):
        yield from _leaves(monitor.inner)
    elif isinstance(monitor, CompositeMonitor):
        for member in monitor.monitors:
            yield from _leaves(member)
    else:
        yield monitor


def _assert_non_finite_is_a_violation(monitor: Monitor, trace: np.ndarray) -> None:
    bad = ~np.isfinite(trace)
    for leaf in _leaves(monitor):
        if isinstance(leaf, RangeMonitor):
            hit = bad[:, leaf.channel]
        elif isinstance(leaf, RelationMonitor):
            hit = bad[:, leaf.channel_a] | bad[:, leaf.channel_b]
        else:
            # A gradient reads the sample and the one before; the first
            # sample has none and is vacuously satisfied.
            hit = bad[:, leaf.channel] | np.concatenate(([False], bad[:-1, leaf.channel]))
            hit[0] = False
        assert not np.any(leaf.satisfied(trace, DT)[hit]), f"{leaf} passed a non-finite sample"


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_every_form_raises_the_offline_alarms(scenario):
    detector, m, horizon, width, column, attach, seed, poison = scenario
    rng = np.random.default_rng(seed)
    fleet = rng.standard_normal((attach + horizon, width, m))
    for in_trace, index, value in poison:
        if in_trace:
            step, channel = divmod(index, m)
            fleet[attach + step % horizon, column, channel] = value
        else:
            fleet.reshape(-1)[index % fleet.size] = value
    trace = fleet[attach : attach + horizon, column]

    expected = _offline(detector, trace)
    assert expected.shape == (horizon,)
    if isinstance(detector, Monitor):
        _assert_non_finite_is_a_violation(detector, trace)
    assert np.array_equal(OnlineDetector(detector, DT).run(trace), expected)

    # The trace's column of one fleet pass, and of stacked per-step calls.
    block = fleet[attach:]
    assert np.array_equal(make_batched(detector, width, DT).run(block)[:, column], expected)
    core = make_batched(detector, width, DT)
    stepped = np.array([core.step(block[k]) for k in range(horizon)])
    assert np.array_equal(stepped[:, column], expected)

    # An instance attached after ``attach`` steps of a running fleet starts
    # from the initial state: its column is the offline verdict on its trace.
    core = make_batched(detector, width, DT)
    if attach:
        core.run(fleet[:attach])
    core.grow(1)
    grown = np.concatenate([fleet[attach:], trace[:, None, :]], axis=1)
    assert np.array_equal(core.run(grown)[:, width], expected)
