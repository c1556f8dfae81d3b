"""Cross-layer observability: one registry captures synthesis through serving.

The acceptance path of the ``repro.obs`` subsystem: with metrics enabled, a
``run_pipeline`` → ``run_fleet`` → ``MonitorService`` pass must surface
per-layer timings in one merged report, batch workers must ship their
metrics back across process boundaries, and the service's ``stats()`` dict
must stay bit-compatible with its pre-registry shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentSpec, FARConfig, run_experiments
from repro.api.config import RuntimeConfig, SynthesisConfig
from repro.api.execute import run_pipeline
from repro.obs import (
    MetricsRegistry,
    PeriodicScraper,
    Tracer,
    parse_prometheus_text,
    text_report,
    use_registry,
    use_tracer,
)
from repro.runtime.engine import run_fleet
from repro.serve import MonitorService


def _fleet_config() -> RuntimeConfig:
    return RuntimeConfig(
        n_instances=50,
        horizon=40,
        static_thresholds={"static": 0.1},
        attacks=[{"template": "bias", "options": {"bias": 0.5}, "fraction": 0.2, "start": 10}],
        include_mdc=False,
        seed=0,
    )


class TestMergedReport:
    def test_pipeline_fleet_service_share_one_registry(self, dcmotor_problem, tmp_path):
        """Every layer's timings land in the same registry, scraped to one file."""
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            pipeline = run_pipeline(
                dcmotor_problem,
                synthesis=SynthesisConfig(algorithms=("static",), backend="lp"),
                far=FARConfig(count=10, seed=0, filter_pfc=False, filter_mdc=False),
            )
            report = run_fleet(_fleet_config(), dcmotor_problem)

        service = MonitorService(
            dcmotor_problem.system,
            {"static": pipeline.deployed_threshold("static")},
            metrics=registry,
        )
        service.attach()
        m = dcmotor_problem.system.plant.n_outputs
        rng = np.random.default_rng(0)
        for _ in range(5):
            service.ingest(0, rng.normal(size=m))
        service.close()

        # Synthesis layer: session builds and solver calls.
        assert registry.get("synthesis_sessions_total").total() >= 1
        assert registry.get("synthesis_solve_seconds").total_count() >= 1
        # Pipeline layer: one timing cell per executed stage.
        stages = {
            cell["labels"]["stage"]
            for cell in registry.snapshot()["histograms"]["pipeline_stage_seconds"]["values"]
        }
        assert stages == {"vulnerability", "synthesis", "far"}
        # Runtime layer: the fleet's step/alarm counters match its report.
        assert registry.get("fleet_steps_total").total() == report.instance_steps
        assert registry.get("fleet_run_seconds").total_count() == 1
        assert registry.get("fleet_alarms_total").total() == sum(
            stats.alarm_count for stats in report.detectors.values()
        )
        # Serving layer: ingest counters recorded into the same registry.
        assert registry.get("serve_samples_ingested_total").total() == 5
        assert registry.get("serve_rounds_total").total() == 5

        # One merged human-readable report covers all four layers.
        merged = text_report(registry)
        for family in (
            "synthesis_solve_seconds",
            "pipeline_stage_seconds",
            "fleet_run_seconds",
            "serve_round_seconds",
        ):
            assert family in merged

        # And the whole merged registry survives the Prometheus transport.
        scraper = PeriodicScraper(tmp_path / "merged.prom", registry=registry)
        scraper.scrape()
        assert parse_prometheus_text(scraper.path.read_text()) == registry.snapshot()

    def test_spans_nest_across_pipeline_and_fleet(self, dcmotor_problem):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with tracer.span("caller") as caller:
                run_pipeline(
                    dcmotor_problem,
                    synthesis=SynthesisConfig(
                        algorithms=("pivot", "stepwise", "static"), backend="lp"
                    ),
                )
            run_fleet(_fleet_config(), dcmotor_problem)
        names = {record.name for record in tracer.records}
        assert {
            "pipeline.vulnerability",
            "pipeline.synthesis",
            "synthesis.solve",
            "fleet.run",
        } <= names
        by_id = {record.span_id: record for record in tracer.records}
        # Each algorithm's stage span, opened on its worker thread, hangs
        # under the caller's span rather than becoming a root.
        stages = [r for r in tracer.records if r.name == "pipeline.synthesis"]
        assert sorted(r.labels["algorithm"] for r in stages) == ["pivot", "static", "stepwise"]
        assert all(r.parent_id == caller.span_id for r in stages)
        assert all(r.depth == caller.depth + 1 for r in stages)
        # Every solver span nests under the pipeline stage that issued it.
        solves = [r for r in tracer.records if r.name == "synthesis.solve"]
        assert solves
        assert {by_id[r.parent_id].name for r in solves} == {
            "pipeline.vulnerability",
            "pipeline.synthesis",
        }
        # The flamegraph aggregates the cross-layer run into folded stacks.
        assert "caller;pipeline.synthesis;synthesis.solve" in tracer.flamegraph()


class TestBatchWorkerMetrics:
    @pytest.fixture(scope="class")
    def spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            name="obs-sweep",
            case_studies=("dcmotor", "trajectory"),
            backends=("lp",),
            algorithms=("static",),
            case_study_options={"dcmotor": {"horizon": 8}, "trajectory": {"horizon": 8}},
            far=FARConfig(count=10, seed=0, filter_pfc=False, filter_mdc=False),
        )

    def test_workers_ship_metrics_back_to_parent(self, spec):
        """Each pool worker records into a scoped registry whose snapshot is
        merged into the parent — solver counters recorded in child processes
        must be visible in the parent registry afterwards."""
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            result = run_experiments(spec, workers=2)
        assert result.errors == []
        assert registry.get("batch_units_total").total() == spec.size == 2
        assert registry.get("batch_group_seconds").total_count() == 2
        assert registry.get("batch_workers").value() == 2
        utilization = registry.get("batch_worker_utilization").value()
        assert 0.0 < utilization <= 1.0
        # Recorded only inside the workers' scoped registries: their arrival
        # here proves the snapshot/merge transport across processes.
        assert registry.get("synthesis_solves_total").total() >= 2

    def test_serial_runner_records_into_same_registry(self, spec):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            result = run_experiments(spec, workers=1)
        assert result.errors == []
        assert registry.get("batch_units_total").total() == 2
        assert registry.get("synthesis_solves_total").total() >= 2

    def test_disabled_registry_ships_nothing(self, spec):
        registry = MetricsRegistry(enabled=False)
        with use_registry(registry):
            result = run_experiments(spec, workers=2)
        assert result.errors == []
        assert registry.get("batch_units_total") is None or (
            registry.get("batch_units_total").total() == 0.0
        )


class TestServiceStatsCompat:
    def test_stats_keys_bit_compatible(self, dcmotor_problem):
        """The registry-backed stats() keeps the exact pre-registry shape."""
        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.5)},
        )
        service.attach()
        service.attach()
        m = dcmotor_problem.system.plant.n_outputs
        rng = np.random.default_rng(1)
        for _ in range(3):
            service.ingest(0, rng.normal(size=m))
            service.ingest(1, rng.normal(size=m))
        stats = service.stats()
        assert set(stats) == {
            "members",
            "pending",
            "samples_ingested",
            "samples_dropped",
            "rounds_processed",
            "alarms_emitted",
            "swaps_applied",
            "detectors",
            "residue_source",
        }
        assert stats["members"] == [0, 1]
        assert stats["samples_ingested"] == 6
        assert stats["rounds_processed"] == 3
        assert isinstance(stats["samples_ingested"], int)
        assert isinstance(stats["alarms_emitted"], int)
        service.close()

    def test_service_scraper_refreshes_per_round(self, dcmotor_problem, tmp_path):
        service = MonitorService(
            dcmotor_problem.system,
            {"static": dcmotor_problem.static_threshold(0.5)},
        )
        scraper = PeriodicScraper(
            tmp_path / "serve.prom", registry=service.metrics, interval_s=0.0
        )
        service.scraper = scraper
        service.attach()
        m = dcmotor_problem.system.plant.n_outputs
        rng = np.random.default_rng(2)
        for _ in range(4):
            service.ingest(0, rng.normal(size=m))
        assert scraper.scrapes == 4  # interval 0: one refresh per round
        service.close()
        assert scraper.scrapes == 5  # close() flushes a final scrape
        parsed = parse_prometheus_text(scraper.path.read_text())
        assert parsed == service.metrics.snapshot()
