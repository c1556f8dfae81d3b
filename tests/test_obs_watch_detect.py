"""Tests for baseline estimation and the CUSUM series watcher."""

import pytest

from repro.obs.watch import (
    RegressionEvent,
    SeriesWatcher,
    WatchPolicy,
    estimate_baseline,
    orientation_for,
)
from repro.runtime.events import AlarmEvent, InMemorySink, JSONLSink
from repro.utils.validation import ValidationError

# A benign throughput-like trajectory: noise around 100.
BENIGN = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 102.0]


class TestOrientation:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            ("throughput", "higher-better"),
            ("fleet_throughput_steps_per_s", "higher-better"),
            ("serve_ingest_rate_per_s", "higher-better"),
            ("elapsed", "lower-better"),
            ("elapsed_s", "lower-better"),
            ("baseline_s", "lower-better"),
            ("fleet_run_seconds", "lower-better"),
            ("instance_steps", None),
            ("members", None),
        ],
    )
    def test_known_and_unknown_names(self, metric, expected):
        assert orientation_for(metric) == expected


class TestBaseline:
    def test_median_mad_and_floors(self):
        policy = WatchPolicy(window=10)
        baseline = estimate_baseline(BENIGN, policy)
        assert baseline.median == 100.0
        assert baseline.mad == 1.0
        # rel floor (5% of 100) dominates the MAD scale here.
        assert baseline.scale == pytest.approx(5.0)
        assert baseline.n == 10

    def test_constant_series_gets_the_abs_floor(self):
        policy = WatchPolicy(window=3, min_rel_scale=0.0)
        baseline = estimate_baseline([0.0, 0.0, 0.0], policy)
        assert baseline.scale == policy.min_abs_scale

    def test_deviation_orientation(self):
        baseline = estimate_baseline(BENIGN, WatchPolicy())
        # A drop is bad for higher-better, good for lower-better.
        assert baseline.deviation(90.0, "higher-better") == pytest.approx(2.0)
        assert baseline.deviation(90.0, "lower-better") == pytest.approx(-2.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            estimate_baseline([], WatchPolicy())

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            WatchPolicy(window=2)
        with pytest.raises(ValidationError):
            WatchPolicy(bias_mads=0.0)
        with pytest.raises(ValidationError):
            WatchPolicy(threshold_mads=-1.0)
        with pytest.raises(ValidationError):
            WatchPolicy(confirm=0)


class TestSeriesWatcher:
    def test_clean_history_raises_no_alarm(self):
        watcher = SeriesWatcher(
            "t/throughput", orientation="higher-better", policy=WatchPolicy(window=10)
        )
        events = watcher.observe_many(BENIGN + BENIGN)
        assert events == []
        assert watcher.status == "ok"
        assert watcher.onset is None

    def test_warming_up_until_window_filled(self):
        watcher = SeriesWatcher("t/x", orientation="higher-better", policy=WatchPolicy(window=10))
        watcher.observe_many(BENIGN[:5])
        assert watcher.warming_up and watcher.status == "warming-up"
        watcher.observe_many(BENIGN[5:])
        assert not watcher.warming_up and watcher.status == "ok"

    def test_step_change_flagged_at_correct_onset(self):
        """The acceptance criterion: injected step flagged at onset +/- 2."""
        policy = WatchPolicy(window=10, confirm=2)
        step_at = 14  # index of the first regressed sample
        values = BENIGN + [100.0, 99.0, 101.0, 100.0] + [50.0] * 6
        watcher = SeriesWatcher("t/throughput", orientation="higher-better", policy=policy)
        events = watcher.observe_many(values)
        assert watcher.status == "regression"
        assert events, "the collapse must raise alarms"
        assert abs(watcher.onset - step_at) <= 2
        confirmed = [e for e in events if e.confirmed]
        assert confirmed and confirmed[0].direction == "drop"
        assert confirmed[0].magnitude == pytest.approx(10.0)  # (100-50)/5
        assert confirmed[0].rel_change == pytest.approx(-0.5)

    def test_rise_on_lower_better_series(self):
        policy = WatchPolicy(window=10, confirm=2)
        values = BENIGN + [200.0] * 4
        watcher = SeriesWatcher("t/elapsed", orientation="lower-better", policy=policy)
        events = watcher.observe_many(values)
        assert watcher.status == "regression"
        assert events[0].direction == "rise"

    def test_improvement_never_alarms(self):
        # A throughput *increase* is the good direction: rectified to zero.
        watcher = SeriesWatcher(
            "t/throughput", orientation="higher-better", policy=WatchPolicy(window=10)
        )
        watcher.observe_many(BENIGN + [500.0] * 10)
        assert watcher.status == "ok"

    def test_single_spike_is_suspect_not_confirmed(self):
        # One huge sample alarms immediately but recovery stops the run length.
        policy = WatchPolicy(window=10, confirm=3, threshold_mads=4.0)
        values = BENIGN + [40.0] + [100.0] * 8
        watcher = SeriesWatcher("t/throughput", orientation="higher-better", policy=policy)
        watcher.observe_many(values)
        assert watcher.status == "suspect"
        assert watcher.onset is None

    def test_events_flow_through_existing_sinks(self, tmp_path):
        memory = InMemorySink()
        jsonl = JSONLSink(tmp_path / "watch-alarms.jsonl")
        policy = WatchPolicy(window=10, confirm=2)
        watcher = SeriesWatcher(
            "t/throughput",
            metric="throughput",
            orientation="higher-better",
            policy=policy,
            sinks=[memory, jsonl],
        )
        watcher.observe_many(BENIGN + [50.0] * 4)
        jsonl.close()
        assert len(memory) == 4
        assert memory.by_detector("watch:t/throughput")
        assert all(isinstance(e, RegressionEvent) for e in memory.events)
        first = memory.first_alarms()
        assert ("watch:t/throughput", 0) in first
        # The JSONL form reads back through the typed inverse.
        import json

        lines = (tmp_path / "watch-alarms.jsonl").read_text().splitlines()
        restored = RegressionEvent.from_dict(json.loads(lines[0]))
        assert restored == memory.events[0]

    def test_jsonl_sink_reads_regression_events_back_typed(self, tmp_path):
        path = tmp_path / "watch-alarms.jsonl"
        memory, jsonl = InMemorySink(), JSONLSink(path)
        watcher = SeriesWatcher(
            "t/throughput",
            metric="throughput",
            orientation="higher-better",
            policy=WatchPolicy(window=10, confirm=2),
            sinks=[memory, jsonl],
        )
        watcher.observe_many(BENIGN + [50.0] * 4)
        plain = AlarmEvent(3, 7, "static", first=True)
        jsonl.emit([plain])
        jsonl.close()
        restored = JSONLSink.read(path)
        assert restored == [*memory.events, plain]
        assert [type(e) for e in restored] == [RegressionEvent] * 4 + [AlarmEvent]

    def test_regression_event_is_an_alarm_event(self):
        event = RegressionEvent(instance=0, step=3, detector="watch:x")
        assert isinstance(event, AlarmEvent)
        data = event.to_dict()
        # Every extra field survives the dict round trip (REP005 discipline).
        assert data["series"] == "" and data["onset"] == -1
        assert RegressionEvent.from_dict(data) == event

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError):
            SeriesWatcher("t/x", orientation="sideways")

    def test_prefrozen_baseline_detects_from_first_sample(self):
        baseline = estimate_baseline(BENIGN, WatchPolicy(window=10))
        watcher = SeriesWatcher(
            "t/throughput",
            orientation="higher-better",
            policy=WatchPolicy(window=10, confirm=1),
            baseline=baseline,
        )
        event = watcher.observe(40.0)
        assert event is not None and event.confirmed
        assert watcher.onset == 0

    def test_verdict_shape(self):
        watcher = SeriesWatcher("t/x", orientation="lower-better")
        verdict = watcher.verdict()
        assert verdict["status"] == "warming-up"
        assert verdict["samples"] == 0
        assert verdict["baseline_median"] is None
