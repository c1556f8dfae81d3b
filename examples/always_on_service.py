#!/usr/bin/env python3
"""Always-on serving: a live monitor fleet with churn, hot-swap and replay.

``run_fleet`` answers "what happens over T steps"; the serving layer keeps
the same batched detectors running *indefinitely* against streams it does
not control.  This example walks the operational story on the DC-motor
case study:

* start a :class:`~repro.serve.service.MonitorService` from a declarative
  :class:`~repro.ServiceConfig` (static threshold + CUSUM + the plant's
  own monitors), logging every event to a replayable JSONL file,
* attach a small fleet and stream noisy measurements through the
  service's ring buffer (one row per instance) — detection advances in
  lockstep rounds,
* inject a sensor bias into one instance mid-stream and watch it alarm,
* attach a late-joining instance and detach another while the service
  runs (nobody else's detector state moves),
* hot-swap a tighter CUSUM into the live bank without resetting any
  accumulator,
* close the service and :func:`~repro.serve.replay.replay` the log,
  verifying the alarm stream reproduces bit-identically.

Run with::

    python examples/always_on_service.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    FalseAlarmEvaluator,
    ServiceConfig,
    get_case_study,
    replay,
    run_service,
)
from repro.detectors.cusum import CusumDetector
from repro.lti.simulate import SimulationOptions, simulate_closed_loop
from repro.runtime.events import InMemorySink


def main() -> None:
    case = get_case_study("dcmotor")
    m = case.problem.system.plant.n_outputs
    log_path = Path(tempfile.gettempdir()) / "dcmotor_service.jsonl"
    log_path.unlink(missing_ok=True)

    config = ServiceConfig(
        case_study="dcmotor",
        static_thresholds={"static": 0.5},
        detectors={"cusum": {"name": "cusum",
                             "options": {"bias": 0.05, "threshold": 0.6}}},
        include_mdc=True,
        # The service computes residues itself by running a batched replica
        # of the loop's observer over the ingested measurements.
        residue_source="observer",
        ring_capacity=32,
        log_path=str(log_path),
        # Back-pressure: alarms queue up to 256 deep before the sink is
        # flushed synchronously (policy "block" never loses an alarm).
        sink_capacity=256,
        sink_policy="block",
    )
    alarms = InMemorySink()
    service = run_service(config, sinks=[alarms])

    print("Always-on service on the DC-motor loop")
    print(f"  detectors : {', '.join(service.detectors)}")
    print(f"  event log : {log_path}")

    # Each attached instance is a real DC-motor loop: simulate it under the
    # benign noise envelope and stream its *measured outputs* — exactly what
    # an edge device would push.  The service's batched observer replica
    # then reproduces each loop's residues bit-identically.
    noise_model = FalseAlarmEvaluator.default_noise_model(case.problem)

    def boot_instance(seed: int):
        rng = np.random.default_rng(seed)
        trace = simulate_closed_loop(
            case.problem.system,
            SimulationOptions(horizon=60, x0=case.problem.x0),
            measurement_noise=noise_model.sample(60, rng),
        )
        return iter(trace.measurements)

    streams: dict[int, object] = {}
    members = []
    for seed in range(4):
        instance = service.attach()
        streams[instance] = boot_instance(seed)
        members.append(instance)

    print(f"\nAttached instances {members}; streaming benign measurements ...")
    for _ in range(20):
        for instance in members:
            service.ingest(instance, next(streams[instance]))

    victim = members[0]
    print(f"Forging the sensor channel of instance {victim} ...")
    for step in range(20):
        for instance in members:
            sample = np.asarray(next(streams[instance]), dtype=float)
            if instance == victim:
                sample += 0.9  # false-data injection on the wire
            service.ingest(instance, sample)
        if step == 5:
            # Membership churn mid-attack: a late joiner arrives, an early
            # member leaves.  Everyone else's CUSUM accumulators, threshold
            # positions and alarm state are untouched.
            late = service.attach()
            streams[late] = boot_instance(99)  # its plant boots now
            service.detach(members[-1])
            members = [i for i in members[:-1]] + [late]
            print(f"  step {step}: attached {late}, detached one member "
                  f"-> members now {service.members}")
        if step == 10:
            # Re-synthesis finished elsewhere: push a tighter CUSUM into
            # the running bank.  Validation is atomic and accumulators
            # survive, so detection continues from where it was.
            service.swap_thresholds(
                {"cusum": CusumDetector(bias=0.02, threshold=0.3)}
            )
            print(f"  step {step}: hot-swapped a tighter CUSUM "
                  f"(swaps applied: {service.swaps_applied})")

    stats = service.stats()
    print("\nService counters:")
    for key in ("samples_ingested", "samples_dropped", "rounds_processed",
                "alarms_emitted", "swaps_applied"):
        print(f"  {key:18s}: {stats[key]}")

    # close() flushes the back-pressure buffer into the inner sink and
    # closes the event log; only then is the in-memory sink complete.
    service.close()

    first_alarms = [event for event in alarms.events if event.first]
    print(f"\n{len(alarms.events)} alarm events ({len(first_alarms)} first alarms):")
    for event in first_alarms[:6]:
        print(f"  {event.detector!r} first alarmed on instance "
              f"{event.instance} at its step {event.step}")

    # The JSONL log is self-contained (the config rides in its start
    # event): rebuild the service from scratch and re-drive every recorded
    # ingest, churn, swap and drain.  The alarm stream must match exactly.
    result = replay(log_path)
    print(f"\nReplayed {result.events_processed} events from {log_path.name}: "
          f"alarms bit-identical = {result.matches}")
    assert result.matches


if __name__ == "__main__":
    main()
