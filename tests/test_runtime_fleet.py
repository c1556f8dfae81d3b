"""Tests for the fleet runtime: batched simulation, scheduler, events, report."""

import json

import numpy as np
import pytest

from repro import RuntimeConfig, get_case_study, run_fleet
from repro.attacks.templates import BiasAttack, NoAttack, RampAttack
from repro.detectors.cusum import CusumDetector
from repro.lti.simulate import SimulationOptions, simulate_closed_loop
from repro.runtime.events import AlarmEvent, InMemorySink, JSONLSink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack, batch_simulate
from repro.utils.validation import ValidationError


class TestBatchSimulate:
    def test_matches_sequential_simulator_instance_for_instance(self, dcmotor_problem):
        system = dcmotor_problem.system
        plant = system.plant
        T = dcmotor_problem.horizon
        rng = np.random.default_rng(7)
        N = 5
        V = rng.normal(size=(N, T, plant.n_outputs)) * 1e-3
        W = rng.normal(size=(N, T, plant.n_states)) * 1e-4
        A = rng.normal(size=(N, T, plant.n_outputs)) * 1e-2
        x0 = rng.normal(size=(N, plant.n_states)) * 0.01

        fleet = batch_simulate(
            system, T, x0=x0, measurement_noise=V, process_noise=W, attacks=A
        )
        assert fleet.n_instances == N and fleet.horizon == T
        for i in range(N):
            reference = simulate_closed_loop(
                system,
                SimulationOptions(horizon=T, x0=x0[i]),
                attack=A[i],
                process_noise=W[i],
                measurement_noise=V[i],
            )
            instance = fleet.instance(i)
            for attr in (
                "states",
                "estimates",
                "inputs",
                "measurements",
                "true_outputs",
                "residues",
            ):
                np.testing.assert_allclose(
                    getattr(instance, attr),
                    getattr(reference, attr),
                    rtol=1e-10,
                    atol=1e-12,
                )
        assert instance.dt == reference.dt
        assert instance.metadata["system"] == system.name

    def test_shared_initial_state_broadcasts(self, simple_closed_loop):
        fleet = batch_simulate(
            simple_closed_loop, 10, x0=np.array([1.0, 0.0]), n_instances=3
        )
        np.testing.assert_array_equal(fleet.states[:, 0], np.tile([1.0, 0.0], (3, 1)))
        # Identical deterministic instances produce identical trajectories.
        np.testing.assert_array_equal(fleet.states[0], fleet.states[2])

    def test_shape_validation(self, simple_closed_loop):
        with pytest.raises(ValidationError):
            batch_simulate(simple_closed_loop, 10, measurement_noise=np.zeros((2, 9, 1)))
        with pytest.raises(ValidationError):
            batch_simulate(
                simple_closed_loop,
                10,
                n_instances=3,
                measurement_noise=np.zeros((2, 10, 1)),
            )

    def test_iteration_yields_every_instance(self, simple_closed_loop):
        fleet = batch_simulate(simple_closed_loop, 5, n_instances=4)
        assert len(list(fleet)) == 4


class TestScheduledAttack:
    def test_materialize_shifts_by_start(self):
        entry = ScheduledAttack(BiasAttack(bias=1.0), start=4)
        values = entry.materialize(10, 2)
        assert np.all(values[:4] == 0.0)
        assert np.all(values[4:] == 1.0)

    def test_start_beyond_horizon_is_a_noop(self):
        entry = ScheduledAttack(BiasAttack(bias=1.0), start=99)
        assert not np.any(entry.materialize(10, 2))

    def test_explicit_instances_resolved_and_checked(self):
        entry = ScheduledAttack(BiasAttack(bias=1.0), instances=(3, 1, 1))
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(entry.resolve_instances(10, rng), [1, 3])
        with pytest.raises(ValidationError):
            entry.resolve_instances(2, rng)

    def test_fraction_subset_size_and_reproducibility(self):
        entry = ScheduledAttack(BiasAttack(bias=1.0), fraction=0.3)
        first = entry.resolve_instances(100, np.random.default_rng(5))
        second = entry.resolve_instances(100, np.random.default_rng(5))
        assert first.size == 30
        np.testing.assert_array_equal(first, second)

    def test_instances_and_fraction_mutually_exclusive(self):
        with pytest.raises(ValidationError):
            ScheduledAttack(BiasAttack(bias=1.0), instances=(0,), fraction=0.5)
        with pytest.raises(ValidationError):
            ScheduledAttack(BiasAttack(bias=1.0), fraction=1.5)
        with pytest.raises(ValidationError):
            ScheduledAttack(BiasAttack(bias=1.0), start=-1)


class TestFleetSimulator:
    def test_alarms_match_offline_evaluation_of_recorded_traces(self, dcmotor_problem):
        """The streaming engine's alarms are the offline detector's alarms."""
        threshold = dcmotor_problem.static_threshold(0.01)
        sink = InMemorySink()
        simulator = FleetSimulator(
            dcmotor_problem.system,
            20,
            dcmotor_problem.horizon,
            detectors={"static": threshold, "cusum": CusumDetector(bias=0.005, threshold=0.02)},
            attacks=[ScheduledAttack(BiasAttack(bias=0.05), fraction=0.5, start=4)],
            sinks=[sink],
            seed=3,
            record_traces=True,
        )
        report = simulator.run()
        trace = simulator.trace
        assert trace is not None and trace.n_instances == 20
        cusum = CusumDetector(bias=0.005, threshold=0.02)
        for i in range(20):
            offline = threshold.alarms(trace.residues[i])
            streamed = {e.step for e in sink.by_instance(i) if e.detector == "static"}
            assert streamed == set(np.flatnonzero(offline))
            offline_cusum = cusum.evaluate(trace.residues[i]).alarms
            streamed_cusum = {e.step for e in sink.by_instance(i) if e.detector == "cusum"}
            assert streamed_cusum == set(np.flatnonzero(offline_cusum))
        assert report.detectors["static"].alarm_count == len(sink.by_detector("static"))

    def test_attacked_subset_and_detection_metrics(self, dcmotor_problem):
        simulator = FleetSimulator(
            dcmotor_problem.system,
            40,
            dcmotor_problem.horizon,
            detectors={"static": dcmotor_problem.static_threshold(0.1)},
            attacks=[ScheduledAttack(BiasAttack(bias=0.5), instances=tuple(range(10)), start=5)],
            seed=0,
            record_traces=True,
        )
        report = simulator.run()
        assert report.n_attacked == 10
        assert report.n_benign == 30
        stats = report.stats("static")
        # A 0.5 bias against a 0.1 threshold is detected immediately, while
        # benign residues stay well below it.
        assert stats.detection_rate == 1.0
        assert stats.mean_detection_latency == 0.0
        assert stats.false_alarm_rate == 0.0
        # Benign instances received no injection at all.
        assert not np.any(simulator.trace.attacks[10:])
        assert np.all(simulator.trace.attacks[:10, 5:] == 0.5)

    def test_detection_latency_counts_from_attack_start(self, dcmotor_problem):
        # A slow ramp takes a few samples to cross the threshold.
        simulator = FleetSimulator(
            dcmotor_problem.system,
            10,
            dcmotor_problem.horizon,
            detectors={"static": dcmotor_problem.static_threshold(0.1)},
            attacks=[ScheduledAttack(RampAttack(slope=0.02), start=3)],
            seed=1,
        )
        stats = simulator.run().stats("static")
        assert stats.detection_rate == 1.0
        assert stats.mean_detection_latency > 0.0

    def test_zero_injection_schedule_counts_nobody_as_attacked(self, dcmotor_problem):
        simulator = FleetSimulator(
            dcmotor_problem.system,
            8,
            dcmotor_problem.horizon,
            detectors={"static": dcmotor_problem.static_threshold(0.02)},
            attacks=[ScheduledAttack(NoAttack())],
            seed=0,
        )
        report = simulator.run()
        assert report.n_attacked == 0
        assert report.stats("static").detection_rate is None

    def test_same_seed_reproduces_the_run(self, dcmotor_problem):
        def run():
            return FleetSimulator(
                dcmotor_problem.system,
                15,
                dcmotor_problem.horizon,
                detectors={"static": dcmotor_problem.static_threshold(0.01)},
                attacks=[ScheduledAttack(BiasAttack(bias=0.05), fraction=0.4)],
                seed=42,
                record_traces=True,
            )

        first, second = run(), run()
        first.run()
        second.run()
        np.testing.assert_array_equal(first.trace.residues, second.trace.residues)
        np.testing.assert_array_equal(first.trace.attacks, second.trace.attacks)

    def test_mdc_monitor_deploys_online(self, vsc_fleet_report):
        stats = vsc_fleet_report.stats("mdc")
        assert stats.alarm_count >= 0  # present and stepped
        assert "mdc" in {row["label"] for row in vsc_fleet_report.summary_rows()}

    def test_report_is_json_serializable(self, dcmotor_problem):
        report = FleetSimulator(
            dcmotor_problem.system,
            5,
            dcmotor_problem.horizon,
            detectors={"static": dcmotor_problem.static_threshold(0.01)},
            seed=0,
        ).run()
        payload = json.dumps(report.to_dict())
        assert "static" in payload
        assert report.throughput > 0
        assert "FleetReport" in str(report)

    def test_noise_model_dimension_checked(self, dcmotor_problem):
        from repro.noise.models import BoundedUniformNoise

        with pytest.raises(ValidationError):
            FleetSimulator(
                dcmotor_problem.system,
                4,
                5,
                detectors={"static": dcmotor_problem.static_threshold(0.01)},
                noise_model=BoundedUniformNoise(bounds=[0.1, 0.1]),
            )

    def test_per_instance_initial_states(self, dcmotor_problem):
        n = dcmotor_problem.system.plant.n_states
        x0 = np.linspace(0.0, 0.1, 6 * n).reshape(6, n)
        simulator = FleetSimulator(
            dcmotor_problem.system,
            6,
            dcmotor_problem.horizon,
            detectors={"static": dcmotor_problem.static_threshold(0.5)},
            x0=x0,
            seed=0,
            record_traces=True,
        )
        simulator.run()
        np.testing.assert_array_equal(simulator.trace.states[:, 0], x0)
        with pytest.raises(ValidationError):
            FleetSimulator(
                dcmotor_problem.system,
                4,
                5,
                detectors={"static": dcmotor_problem.static_threshold(0.5)},
                x0=x0,  # 6 rows for a 4-instance fleet
            )

    def test_rejects_non_scheduled_attack_entries(self, dcmotor_problem):
        with pytest.raises(ValidationError):
            FleetSimulator(
                dcmotor_problem.system,
                4,
                5,
                detectors={"static": dcmotor_problem.static_threshold(0.01)},
                attacks=[BiasAttack(bias=1.0)],
            )


@pytest.fixture(scope="module")
def vsc_fleet_report():
    """One VSC fleet run with mdc deployed online (shared across tests)."""
    case = get_case_study("vsc")
    problem = case.problem
    simulator = FleetSimulator(
        problem.system,
        30,
        problem.horizon,
        detectors={"static": problem.static_threshold(6.0), "mdc": problem.mdc},
        attacks=[ScheduledAttack(BiasAttack(bias=0.4), fraction=0.5, start=10)],
        x0_spread=case.extras["reproduction"]["far_initial_state_spread"],
        seed=0,
    )
    return simulator.run()


class TestEventSinks:
    def test_in_memory_sink_queries(self):
        sink = InMemorySink()
        sink.emit([AlarmEvent(0, 3, "a", first=True), AlarmEvent(1, 3, "b")])
        sink.emit([AlarmEvent(0, 4, "a")])
        assert len(sink) == 3
        assert [e.step for e in sink.by_detector("a")] == [3, 4]
        assert [e.detector for e in sink.by_instance(0)] == ["a", "a"]
        assert sink.first_alarms() == {("a", 0): 3}

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "alarms.jsonl"
        with JSONLSink(path) as sink:
            sink.emit([AlarmEvent(2, 7, "static", first=True)])
            sink.emit([])
            sink.emit([AlarmEvent(3, 8, "static")])
        events = JSONLSink.read(path)
        assert events == [
            AlarmEvent(2, 7, "static", first=True),
            AlarmEvent(3, 8, "static"),
        ]

    def test_jsonl_sink_creates_no_file_without_events(self, tmp_path):
        path = tmp_path / "alarms.jsonl"
        with JSONLSink(path) as sink:
            sink.emit([])
        assert not path.exists()

    def test_in_memory_sink_maxlen_keeps_only_the_freshest(self):
        sink = InMemorySink(maxlen=3)
        sink.emit([AlarmEvent(0, k, "a") for k in range(5)])
        assert [e.step for e in sink] == [2, 3, 4]
        assert sink.evicted == 2
        sink.emit([AlarmEvent(0, 5, "a")])
        assert [e.step for e in sink] == [3, 4, 5]
        assert sink.evicted == 3
        with pytest.raises(ValidationError):
            InMemorySink(maxlen=0)

    def test_jsonl_sink_flushes_every_emit_by_default(self, tmp_path):
        path = tmp_path / "alarms.jsonl"
        sink = JSONLSink(path)
        sink.emit([AlarmEvent(0, 1, "a")])
        # Readable mid-run, before close: the default cadence flushes the OS
        # buffer after every emit batch.
        assert JSONLSink.read(path) == [AlarmEvent(0, 1, "a")]
        sink.close()

    def test_jsonl_sink_flush_every_knob(self, tmp_path):
        path = tmp_path / "alarms.jsonl"
        sink = JSONLSink(path, flush_every=2)
        sink.emit([AlarmEvent(0, 1, "a")])
        assert JSONLSink.read(path) == []
        sink.emit([AlarmEvent(0, 2, "a")])
        assert len(JSONLSink.read(path)) == 2
        sink.close()
        with pytest.raises(ValidationError):
            JSONLSink(path, flush_every=-1)

    def test_jsonl_sink_read_recovers_from_a_truncated_tail(self, tmp_path):
        # Mirrors the ResultStore partial-write contract: a service killed
        # mid-append leaves a partial final line, which read() drops; corrupt
        # interior lines still raise.
        path = tmp_path / "alarms.jsonl"
        with JSONLSink(path) as sink:
            sink.emit([AlarmEvent(0, k, "a") for k in range(3)])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"instance": 0, "step": 3, "det')
        assert [e.step for e in JSONLSink.read(path)] == [0, 1, 2]

        lines = path.read_text().splitlines()
        lines[1] = "{not json}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            JSONLSink.read(path)


class TestRunFleet:
    def test_config_driven_run_on_case_study(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        config = RuntimeConfig(
            n_instances=50,
            case_study="dcmotor",
            static_thresholds={"static": 0.05},
            detectors={"chi2": {"name": "chi-square", "options": {"false_alarm_probability": 1e-3}}},
            attacks=[
                {"template": "bias", "options": {"bias": 0.5}, "fraction": 0.4, "start": 5}
            ],
            events_path=str(events_path),
            seed=0,
        )
        report = run_fleet(config)
        assert report.n_instances == 50
        assert report.n_attacked == 20
        assert set(report.detectors) == {"static", "chi2", "mdc"}
        assert report.stats("static").detection_rate == 1.0
        assert report.metadata["config"] == config.to_dict()
        assert events_path.exists()
        assert all(e.detector in {"static", "chi2", "mdc"} for e in JSONLSink.read(events_path))

    def test_explicit_problem_and_extra_detectors(self, dcmotor_problem):
        config = RuntimeConfig(n_instances=10, include_mdc=False, seed=1)
        report = run_fleet(
            config,
            dcmotor_problem,
            detectors={"cusum": CusumDetector(bias=0.01, threshold=0.5)},
        )
        assert set(report.detectors) == {"cusum"}

    def test_online_detector_names_deploy_the_offline_detectors(self, dcmotor_problem):
        # Stored configs and probe addresses keep the online-* names; they
        # resolve to the offline classes and deploy the same cores.
        def stats(prefix: str) -> dict:
            horizon = dcmotor_problem.horizon
            config = RuntimeConfig(
                n_instances=40,
                include_mdc=False,
                detectors={
                    "residue": {
                        "name": prefix + "residue",
                        "options": {"threshold": [0.05] * horizon},
                    },
                    "cusum": {
                        "name": prefix + "cusum",
                        "options": {"bias": 0.01, "threshold": 0.05},
                    },
                    "chi2": {
                        "name": prefix + "chi-square",
                        "options": {"false_alarm_probability": 1e-3},
                    },
                },
                attacks=[
                    {"template": "bias", "options": {"bias": 0.3}, "fraction": 0.25, "start": 4}
                ],
                seed=3,
            )
            report = run_fleet(config, dcmotor_problem)
            return {label: report.stats(label).to_dict() for label in report.detectors}

        offline = stats("")
        assert set(offline) == {"residue", "cusum", "chi2"}
        assert all(entry["alarm_count"] > 0 for entry in offline.values())
        assert stats("online-") == offline

    def test_synthesis_deploys_the_synthesized_threshold(self, dcmotor_problem):
        from repro.api import SynthesisConfig

        config = RuntimeConfig(
            n_instances=20,
            synthesis=SynthesisConfig(algorithms=("static",), backend="lp"),
            include_mdc=False,
            # The provably safe static threshold for the DC motor sits around
            # 0.8; a 2.0 bias pushes the first attacked residue well past it.
            attacks=[{"template": "bias", "options": {"bias": 2.0}, "fraction": 0.5}],
            seed=0,
        )
        report = run_fleet(config, dcmotor_problem)
        assert "static" in report.detectors
        assert report.stats("static").detection_rate == 1.0

    def test_record_traces_exposes_trace_and_keeps_report_serializable(
        self, dcmotor_problem
    ):
        config = RuntimeConfig(
            n_instances=5,
            static_thresholds={"static": 0.1},
            include_mdc=False,
            record_traces=True,
            seed=0,
        )
        report = run_fleet(config, dcmotor_problem)
        assert report.trace is not None
        assert report.trace.n_instances == 5
        json.dumps(report.to_dict())  # trace must not leak into the JSON form

    def test_colliding_detector_labels_rejected(self, dcmotor_problem):
        config = RuntimeConfig(
            n_instances=5,
            static_thresholds={"mdc": 0.1},
            include_mdc=True,
            seed=0,
        )
        with pytest.raises(ValidationError, match="mdc"):
            run_fleet(config, dcmotor_problem)
        config = RuntimeConfig(n_instances=5, static_thresholds={"static": 0.1}, seed=0)
        with pytest.raises(ValidationError, match="already deployed"):
            run_fleet(
                config,
                dcmotor_problem,
                detectors={"static": CusumDetector(bias=0.01, threshold=0.5)},
            )

    def test_needs_a_problem_and_a_detector(self, dcmotor_problem):
        with pytest.raises(ValidationError):
            run_fleet(RuntimeConfig(n_instances=5))
        with pytest.raises(ValidationError):
            run_fleet(RuntimeConfig(n_instances=5, include_mdc=False), dcmotor_problem)

    def test_acceptance_thousand_instances_two_hundred_steps(self, dcmotor_problem):
        """ISSUE acceptance: 1000 x 200 in one batched run_fleet call."""
        config = RuntimeConfig(
            n_instances=1000,
            horizon=200,
            static_thresholds={"static": 0.05},
            detectors={"cusum": {"name": "cusum", "options": {"bias": 0.02, "threshold": 0.5}}},
            attacks=[
                {"template": "ramp", "options": {"slope": 0.002}, "fraction": 0.1, "start": 50}
            ],
            include_mdc=False,
            seed=0,
        )
        report = run_fleet(config, dcmotor_problem)
        assert report.n_instances == 1000
        assert report.horizon == 200
        assert report.instance_steps == 200_000
        assert report.n_attacked == 100
        assert report.stats("static").detection_rate == 1.0
        # Batched stepping keeps this far from per-instance-Python-loop cost.
        assert report.elapsed_seconds < 30.0

    def test_throughput_is_nan_without_a_measured_run(self):
        """A report with no elapsed time has no rate — NaN, not inf or zero.

        NaN poisons any aggregate that accidentally includes an unmeasured
        report and fails every ``>`` gate, instead of an ``inf`` passing
        them vacuously.
        """
        import math

        from repro.runtime.report import FleetReport

        for elapsed in (0.0, -1.0):
            report = FleetReport(n_instances=10, horizon=5, elapsed_seconds=elapsed)
            assert math.isnan(report.throughput)
            assert math.isnan(report.to_dict()["throughput"])
        measured = FleetReport(n_instances=10, horizon=5, elapsed_seconds=2.0)
        assert measured.throughput == 25.0


class TestRuntimeConfig:
    def test_round_trips_through_dict_and_json(self):
        from repro.api import SynthesisConfig

        config = RuntimeConfig(
            n_instances=64,
            horizon=123,
            case_study="vsc",
            case_study_options={"strictness": 1e-3},
            synthesis=SynthesisConfig(algorithms=("static",)),
            static_thresholds={"paper": 6.0},
            detectors={"cusum": {"name": "cusum", "options": {"bias": 0.1, "threshold": 1.0}}},
            noise_model="bounded-uniform",
            noise_options={"bounds": [0.01, 0.02]},
            initial_state_spread=[0.001, 0.003, 0.0],
            attacks=[{"template": "bias", "options": {"bias": 0.2}, "fraction": 0.25, "start": 7}],
            events_path="alarms.jsonl",
        )
        assert RuntimeConfig.from_dict(config.to_dict()) == config
        assert RuntimeConfig.from_json(config.to_json()) == config
        assert RuntimeConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_bare_detector_name_normalised(self):
        config = RuntimeConfig(detectors={"residue-like": "cusum"})
        assert config.detectors["residue-like"] == {"name": "cusum", "options": {}}

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(n_instances=0)
        with pytest.raises(ValidationError, match="case study"):
            RuntimeConfig(case_study="nuclear-plant")
        with pytest.raises(ValidationError, match="detector"):
            RuntimeConfig(detectors={"x": "sprt"})
        with pytest.raises(ValidationError, match="name"):
            RuntimeConfig(detectors={"x": {"options": {"bias": 0.1}}})
        with pytest.raises(ValidationError, match="attack template"):
            RuntimeConfig(attacks=[{"template": "square-wave"}])
        with pytest.raises(ValidationError, match="not both"):
            RuntimeConfig(
                attacks=[{"template": "bias", "options": {"bias": 1.0}, "instances": [0], "fraction": 0.5}]
            )
        with pytest.raises(ValidationError, match="schedule keys"):
            RuntimeConfig(attacks=[{"template": "bias", "when": "now"}])
        with pytest.raises(ValidationError, match="unknown RuntimeConfig fields"):
            RuntimeConfig.from_dict({"fleet_size": 10})
