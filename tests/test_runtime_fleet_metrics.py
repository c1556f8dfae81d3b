"""Fleet telemetry: alarm-counter progression, registry snapshots, phase ledger.

Alarm bookkeeping runs once over the whole horizon's alarm stacks, then
replays the alarms in step order to the sinks, the ``fleet_alarms_total``
counter and the scraper.  These tests pin what an observer sees:

* a scraper's ``maybe_scrape`` calls — one per step — see the counter grow
  by exactly that step's alarms, detector by detector;
* the final registry snapshot does not depend on whether a scraper or sinks
  were attached;
* ``report.metadata["phases"]`` carries the per-phase seconds of the run.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.attacks.templates import BiasAttack
from repro.detectors.cusum import CusumDetector
from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry
from repro.registry import CASE_STUDIES
from repro.runtime.events import InMemorySink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack

PHASES = ("draw", "recursion", "lanes", "tally", "emit")
#: Families whose values are wall-clock measurements, not counts.
TIMED_FAMILIES = {"fleet_run_seconds", "fleet_throughput_steps_per_s"}


@pytest.fixture(scope="module")
def problem():
    return CASE_STUDIES.create("dcmotor").problem


class RecordingScraper:
    """Scraper stand-in: records ``fleet_alarms_total`` at every call."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.seen: list[dict[str, float]] = []
        self.final: dict[str, float] | None = None

    def _alarms(self) -> dict[str, float]:
        counter = self.registry.get("fleet_alarms_total")
        return {dict(key)["detector"]: value for key, value in counter._values.items()}

    def maybe_scrape(self) -> bool:
        self.seen.append(self._alarms())
        return True

    def scrape(self) -> None:
        self.final = self._alarms()


def _simulator(problem, *, registry, scraper=None, sinks=(), horizon=40):
    return FleetSimulator(
        problem.system,
        60,
        horizon,
        detectors={
            "static": problem.static_threshold(0.1),
            "cusum": CusumDetector(bias=0.02, threshold=0.5),
        },
        attacks=[ScheduledAttack(BiasAttack(bias=0.5), fraction=0.2, start=10)],
        sinks=sinks,
        seed=5,
        metrics=registry,
        scraper=scraper,
    )


def _counts_snapshot(registry: MetricsRegistry) -> dict:
    snapshot = registry.snapshot()
    for family in snapshot.values():
        for name in TIMED_FAMILIES:
            family.pop(name, None)
    return snapshot


def _progression(events, horizon, labels) -> list[dict[str, float]]:
    """Running per-detector alarm totals after each step, as a scraper sees them."""
    per_step = Counter((event.step, event.detector) for event in events)
    expected, running = [], Counter()
    for k in range(horizon):
        for label in labels:
            running[label] += per_step[(k, label)]
        expected.append({label: float(n) for label, n in running.items() if n})
    return expected


class TestScraperSeesProgressiveAlarmCounts:
    def test_each_scrape_adds_exactly_that_steps_alarms(self, problem):
        registry = MetricsRegistry()
        scraper = RecordingScraper(registry)
        sink = InMemorySink()
        report = _simulator(
            problem, registry=registry, scraper=scraper, sinks=[sink]
        ).run()

        assert sink.events, "the scenario must raise alarms"
        expected = _progression(sink.events, report.horizon, report.detectors)
        assert scraper.seen == expected
        assert scraper.final == expected[-1] == {
            label: float(stats.alarm_count) for label, stats in report.detectors.items()
        }

    def test_scrape_progression_matches_the_oracle(self, problem, fleet_oracle):
        registry = MetricsRegistry()
        scraper = RecordingScraper(registry)
        simulator = _simulator(problem, registry=registry, scraper=scraper)
        oracle = fleet_oracle(simulator)
        simulator.run()
        assert scraper.seen == oracle.progression
        assert oracle.progression == _progression(
            oracle.events, simulator.horizon, simulator.detectors
        )


class TestFinalSnapshot:
    def test_snapshot_is_independent_of_scraper_and_sinks(self, problem):
        snapshots = []
        for with_scraper in (False, True):
            for sinks in ((), (InMemorySink(),)):
                registry = MetricsRegistry()
                scraper = RecordingScraper(registry) if with_scraper else None
                _simulator(problem, registry=registry, scraper=scraper, sinks=sinks).run()
                snapshots.append(_counts_snapshot(registry))
        assert all(snapshot == snapshots[0] for snapshot in snapshots)
        alarms = snapshots[0]["counters"]["fleet_alarms_total"]["values"]
        assert {entry["labels"]["detector"] for entry in alarms} == {"static", "cusum"}


class TestPhaseLedger:
    @pytest.mark.parametrize("with_sink", [False, True], ids=["no-sink", "sink"])
    def test_phases_are_recorded_and_fit_in_the_call(self, problem, with_sink):
        simulator = _simulator(
            problem,
            registry=False,
            sinks=[InMemorySink()] if with_sink else [],
            horizon=60,
        )
        watch = Stopwatch()
        report = simulator.run()
        wall = watch.elapsed()
        phases = report.metadata["phases"]
        assert tuple(phases) == PHASES
        assert all(isinstance(value, float) and value >= 0.0 for value in phases.values())
        assert sum(phases.values()) <= wall
        assert report.to_dict()["metadata"]["phases"] == phases
