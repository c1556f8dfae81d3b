"""Stateful property test: any interleaving of service operations replays.

A hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a
dcmotor :class:`~repro.serve.service.MonitorService` built through
:func:`~repro.run_service` (a static threshold and a CUSUM detector, manual
draining, a three-sample ring so drop-oldest evictions happen) through
generated interleavings of ``attach``, ``detach``, ``ingest`` (one
member's sample, or one for every member), ``swap_thresholds`` and
``drain``, plus non-finite samples that ``ingest`` must reject.  At teardown, :func:`~repro.replay` of the service's own log
must reproduce the alarm sequence the service emitted, event for event.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro import ServiceConfig, get_case_study, replay, run_service
from repro.detectors.cusum import CusumDetector
from repro.detectors.threshold import ThresholdVector
from repro.runtime.events import InMemorySink
from repro.utils.validation import ValidationError

PROBLEM = get_case_study("dcmotor").problem
M = PROBLEM.system.plant.n_outputs
MAX_MEMBERS = 4

_samples = st.lists(st.floats(-2.0, 2.0), min_size=M, max_size=M)


class ServiceOperations(RuleBasedStateMachine):
    """Random service operations; the log must replay to the same alarms."""

    def __init__(self):
        super().__init__()
        config = ServiceConfig(
            static_thresholds={"static": 0.5},
            detectors={"cusum": {"name": "cusum", "options": {"bias": 0.2, "threshold": 1.0}}},
            include_mdc=False,
            ring_capacity=3,
            auto_drain=False,
        )
        self.sink = InMemorySink()
        self.service = run_service(config, problem=PROBLEM, sinks=[self.sink])

    @initialize(count=st.integers(1, MAX_MEMBERS))
    def attach_initial_members(self, count):
        for _ in range(count):
            self.service.attach()

    @precondition(lambda self: self.service.n_members < MAX_MEMBERS)
    @rule(xhat0=st.none() | st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    def attach(self, xhat0):
        self.service.attach(xhat0=None if xhat0 is None else np.array(xhat0))

    @precondition(lambda self: self.service.n_members > 0)
    @rule(pick=st.integers(0, MAX_MEMBERS - 1))
    def detach(self, pick):
        members = self.service.members
        self.service.detach(members[pick % len(members)])

    @precondition(lambda self: self.service.n_members > 0)
    @rule(pick=st.integers(0, MAX_MEMBERS - 1), sample=_samples)
    def ingest(self, pick, sample):
        members = self.service.members
        self.service.ingest(members[pick % len(members)], np.array(sample))

    @precondition(lambda self: self.service.n_members > 0)
    @rule(samples=st.lists(_samples, min_size=MAX_MEMBERS, max_size=MAX_MEMBERS))
    def ingest_every_member(self, samples):
        # One sample per member completes a lockstep round.
        for member, sample in zip(self.service.members, samples):
            self.service.ingest(member, np.array(sample))

    @precondition(lambda self: self.service.n_members > 0)
    @rule(pick=st.integers(0, MAX_MEMBERS - 1), value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def ingest_non_finite(self, pick, value):
        members = self.service.members
        logged = len(self.service.log)
        with pytest.raises(ValidationError):
            self.service.ingest(members[pick % len(members)], np.full(M, value))
        assert len(self.service.log) == logged

    @rule(values=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4))
    def swap_static(self, values):
        self.service.swap_thresholds({"static": ThresholdVector(np.array(values))})

    @rule(bias=st.floats(0.05, 0.5), threshold=st.floats(0.2, 2.0))
    def swap_cusum(self, bias, threshold):
        self.service.swap_thresholds({"cusum": CusumDetector(bias=bias, threshold=threshold)})

    @rule(max_rounds=st.none() | st.integers(1, 3))
    def drain(self, max_rounds):
        self.service.drain(max_rounds)

    def teardown(self):
        result = replay(self.service.log, problem=PROBLEM)
        assert result.recorded == list(self.sink.events)
        assert result.matches


ServiceOperations.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_service_operations_replay = ServiceOperations.TestCase
