"""Stateful property test: any interleaving of service operations replays.

A hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a
dcmotor :class:`~repro.serve.service.MonitorService` built through
:func:`~repro.run_service` (a static threshold and a CUSUM detector, manual
draining, a one- or two-sample ring under a generated overflow policy, so
evictions, refused samples and full-ring errors all happen) through
generated interleavings of ``attach``, ``detach``, ``ingest`` (one
member's sample, or one for every member), ``swap_thresholds`` and
``drain``, plus non-finite samples that ``ingest`` must reject.  At
teardown, :func:`~repro.replay` of the service's own log must reproduce the
alarm sequence the service emitted, event for event.  The machine runs once
per residue source: on ``"observer"`` the service computes residues from the
measurements, on ``"ingest"`` every sample carries its own residue.
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
from repro.serve import OVERFLOW_POLICIES
from repro.utils.validation import ValidationError

PROBLEM = get_case_study("dcmotor").problem
M = PROBLEM.system.plant.n_outputs
MAX_MEMBERS = 4

#: One sample's channels: the measurement, then the residue that "ingest"
#: mode hands in with it (unused on "observer").
_samples = st.lists(st.floats(-2.0, 2.0), min_size=2 * M, max_size=2 * M)


class ServiceOperations(RuleBasedStateMachine):
    """Random service operations; the log must replay to the same alarms."""

    residue_source = "observer"

    @initialize(
        capacity=st.integers(1, 2),
        overflow=st.sampled_from(OVERFLOW_POLICIES),
        count=st.integers(1, MAX_MEMBERS),
    )
    def start_service(self, capacity, overflow, count):
        config = ServiceConfig(
            static_thresholds={"static": 0.5},
            detectors={"cusum": {"name": "cusum", "options": {"bias": 0.2, "threshold": 1.0}}},
            include_mdc=False,
            ring_capacity=capacity,
            overflow=overflow,
            auto_drain=False,
            residue_source=self.residue_source,
        )
        self.sink = InMemorySink()
        self.service = run_service(config, problem=PROBLEM, sinks=[self.sink])
        for _ in range(count):
            self.service.attach()

    def _push(self, member, sample):
        """Hand one generated sample to ``ingest``, with its residue in "ingest" mode."""
        sample = np.asarray(sample, dtype=float)
        residue = sample[M:] if self.residue_source == "ingest" else None
        return self.service.ingest(member, sample[:M], residue=residue)

    def _ingest(self, member, sample):
        """Ingest one sample, checking the overflow policy on a full ring."""
        service = self.service
        full = service.pending()[member] >= service.ring_capacity
        logged, dropped = len(service.log), service.samples_dropped
        if full and service.overflow == "error":
            with pytest.raises(ValidationError):
                self._push(member, sample)
            assert len(service.log) == logged
            return
        accepted = self._push(member, sample)
        assert accepted == (not full or service.overflow == "drop-oldest")
        assert len(service.log) == logged + accepted
        assert service.samples_dropped == dropped + full

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
        self._ingest(members[pick % len(members)], sample)

    @precondition(lambda self: self.service.n_members > 0)
    @rule(samples=st.lists(_samples, min_size=MAX_MEMBERS, max_size=MAX_MEMBERS))
    def ingest_every_member(self, samples):
        # One sample per member completes a lockstep round.
        for member, sample in zip(self.service.members, samples):
            self._ingest(member, sample)

    @precondition(lambda self: self.service.n_members > 0)
    @rule(
        pick=st.integers(0, MAX_MEMBERS - 1),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        channel=st.integers(0, 2 * M - 1),
    )
    def ingest_non_finite(self, pick, value, channel):
        # Past the measurement's channels the value lands in the residue,
        # which only "ingest" mode reads.
        service = self.service
        sample = np.zeros(2 * M)
        sample[channel if self.residue_source == "ingest" else channel % M] = value
        members = service.members
        before = (len(service.log), service.pending(), service.samples_ingested)
        rejected = service.metrics.get("service_nonfinite_samples_total").total()
        with pytest.raises(ValidationError, match="non-finite"):
            self._push(members[pick % len(members)], sample)
        assert (len(service.log), service.pending(), service.samples_ingested) == before
        assert service.metrics.get("service_nonfinite_samples_total").total() == rejected + 1

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


class IngestModeOperations(ServiceOperations):
    """The same operations on ``residue_source="ingest"``: residues come with the samples."""

    residue_source = "ingest"


for machine in (ServiceOperations, IngestModeOperations):
    machine.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
test_service_operations_replay = ServiceOperations.TestCase
test_ingest_mode_operations_replay = IngestModeOperations.TestCase
