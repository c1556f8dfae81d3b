"""Tests for repro.explore.engine + report + pareto: the exploration loop."""

import pytest

from repro.explore import (
    ExplorationReport,
    ExploreConfig,
    Explorer,
    ResultStore,
    SearchSpace,
    dominates,
    pareto_front,
    run_exploration,
    sensitivity,
)
from repro.utils.validation import ValidationError


def _tiny_space(**overrides) -> SearchSpace:
    settings = dict(
        case_studies=("dcmotor",),
        synthesizers=("stepwise", "static"),
        horizons=(8,),
        min_thresholds=(0.0, 0.02),
        noise_scales=(1.0,),
        far_count=20,
        probe_instances=6,
        max_rounds=100,
    )
    settings.update(overrides)
    return SearchSpace(**settings)


@pytest.fixture(scope="module")
def tiny_report() -> ExplorationReport:
    return Explorer(_tiny_space(), "grid").run()


class TestExplorer:
    def test_grid_exploration_covers_space(self, tiny_report):
        space = _tiny_space()
        assert len(tiny_report.rows) == space.size == 4
        assert tiny_report.errors == []
        assert tiny_report.stats["units_executed"] == 4
        coords = {(r["synthesizer"], r["min_threshold"]) for r in tiny_report.rows}
        assert len(coords) == 4

    def test_rows_carry_coordinates_outcome_and_metrics(self, tiny_report):
        row = tiny_report.summary_rows()[0]
        for field in ("case_study", "synthesizer", "backend", "detector", "horizon",
                      "noise_scale", "min_threshold", "far_budget", "status",
                      "false_alarm_rate", "feasible", "key"):
            assert field in row
        stepwise = [r for r in tiny_report.rows if r["synthesizer"] == "stepwise"]
        assert all(r.get("stealth_margin") is not None for r in stepwise)
        assert all(r.get("mean_detection_latency") is not None for r in stepwise)

    def test_store_round_trip_is_bit_identical_with_zero_executions(self, tmp_path):
        space = _tiny_space()
        cold = Explorer(space, "grid", store=tmp_path / "s").run()
        warm = Explorer(space, "grid", store=tmp_path / "s").run()
        assert cold.stats["units_executed"] == 4
        assert warm.stats["units_executed"] == 0
        assert warm.stats["store_hits"] == 4
        assert warm.summary_rows() == cold.summary_rows()

    def test_interrupted_exploration_resumes(self, tmp_path):
        """A partial store serves its points; only the remainder executes."""
        store = ResultStore(tmp_path / "s")
        partial = _tiny_space(synthesizers=("stepwise",))
        Explorer(partial, "grid", store=store).run()
        report = Explorer(_tiny_space(), "grid", store=store).run()
        assert report.stats["store_hits"] == 2
        assert report.stats["units_executed"] == 2
        assert len(report.rows) == 4

    def test_far_budget_fans_out_without_recomputation(self):
        space = _tiny_space(far_budgets=(0.05, 1.0))
        report = Explorer(space, "grid").run()
        assert len(report.rows) == 8          # one row per budgeted point
        assert report.stats["units"] == 4     # but only 4 computations
        tight = [r for r in report.rows if r["far_budget"] == 0.05]
        loose = [r for r in report.rows if r["far_budget"] == 1.0]
        assert all(r["feasible"] for r in loose if r["error"] is None)
        infeasible = [r for r in tight if not r["feasible"]]
        assert infeasible, "expected some points to blow the tight FAR budget"
        front_budgets = {r["far_budget"] for r in report.front()}
        assert front_budgets  # infeasible rows never enter the front

    def test_max_points_truncates(self):
        report = Explorer(_tiny_space(), "grid", max_points=2).run()
        assert len(report.rows) == 2
        assert report.stats["truncated"] is True

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValidationError, match="sampler"):
            Explorer(_tiny_space(), "no-such-sampler")

    def test_sampler_receives_run_objectives(self):
        """Metric-aware samplers must refine over the front's objectives."""
        from repro.explore import GridSampler
        from repro.registry import SAMPLERS

        captured = {}

        @SAMPLERS.register("test-capture-objectives")
        class CaptureSampler(GridSampler):
            def __init__(self, objectives=None):
                captured["objectives"] = objectives

        try:
            explorer = Explorer(
                _tiny_space(), "test-capture-objectives",
                objectives=("false_alarm_rate", "detection_rate"),
            )
            explorer._build_sampler()
            assert captured["objectives"] == ("false_alarm_rate", "detection_rate")
            # Explicit sampler options still win over the run default.
            Explorer(
                _tiny_space(), "test-capture-objectives",
                sampler_options={"objectives": ("rounds",)},
            )._build_sampler()
            assert captured["objectives"] == ("rounds",)
        finally:
            SAMPLERS.unregister("test-capture-objectives")

    def test_report_json_round_trip(self, tiny_report):
        rebuilt = ExplorationReport.from_json(tiny_report.to_json())
        assert rebuilt.summary_rows() == tiny_report.summary_rows()
        assert rebuilt.front() == tiny_report.front()
        assert rebuilt.stats == tiny_report.stats

    def test_sensitivity_and_best(self, tiny_report):
        summary = tiny_report.sensitivity("min_threshold")
        assert set(summary) == {0.0, 0.02}
        assert all(entry["count"] == 2 for entry in summary.values())
        best = tiny_report.best("false_alarm_rate")
        assert best is not None
        assert best["false_alarm_rate"] == min(
            r["false_alarm_rate"]
            for r in tiny_report.rows
            if r.get("false_alarm_rate") is not None
        )


class TestExploreConfig:
    def test_json_round_trip(self, tmp_path):
        config = ExploreConfig(
            space=_tiny_space(),
            sampler="adaptive-bisection",
            sampler_options={"tolerance": 0.05},
            store_path=str(tmp_path / "s"),
            max_points=100,
            name="cfg-test",
        )
        assert ExploreConfig.from_json(config.to_json()) == config

    def test_run_exploration_accepts_config_and_dict(self, tmp_path):
        config = ExploreConfig(
            space=_tiny_space(synthesizers=("static",), probe_instances=0, far_count=10),
            store_path=str(tmp_path / "s"),
        )
        first = run_exploration(config)
        again = run_exploration(config.to_dict())
        assert len(first.rows) == len(again.rows) == 2
        assert again.stats["store_hits"] == 2

    def test_validation(self):
        with pytest.raises(ValidationError, match="sampler"):
            ExploreConfig(space=_tiny_space(), sampler="bogus")
        with pytest.raises(ValidationError, match="max_points"):
            ExploreConfig(space=_tiny_space(), max_points=0)


class TestPareto:
    def test_dominates(self):
        assert dominates((0.1, 1.0), (0.2, 1.0))
        assert not dominates((0.2, 1.0), (0.1, 1.0))
        assert not dominates((0.1, 1.0), (0.1, 1.0))

    def test_front_extraction_and_feasibility(self):
        rows = [
            {"false_alarm_rate": 0.5, "stealth_margin": 0.1, "error": None},
            {"false_alarm_rate": 0.1, "stealth_margin": 0.5, "error": None},
            {"false_alarm_rate": 0.5, "stealth_margin": 0.5, "error": None},  # dominated
            {"false_alarm_rate": 0.0, "stealth_margin": 0.0, "error": "boom"},
            {"false_alarm_rate": 0.0, "stealth_margin": 0.0, "error": None, "feasible": False},
        ]
        front = pareto_front(rows, objectives=("false_alarm_rate", "stealth_margin"))
        assert front == rows[:2]

    def test_missing_objective_is_worst_case(self):
        rows = [
            {"false_alarm_rate": 0.2, "stealth_margin": 0.3, "error": None},
            {"false_alarm_rate": 0.1, "stealth_margin": None, "error": None},
        ]
        front = pareto_front(rows, objectives=("false_alarm_rate", "stealth_margin"))
        assert front == rows  # the None row survives through its lower FAR

    def test_sensitivity_groups(self):
        rows = [
            {"noise_scale": 0.5, "false_alarm_rate": 0.0, "error": None},
            {"noise_scale": 0.5, "false_alarm_rate": 0.2, "error": None},
            {"noise_scale": 1.0, "false_alarm_rate": 0.4, "error": None},
        ]
        summary = sensitivity(rows, "noise_scale", objectives=("false_alarm_rate",))
        assert summary[0.5]["count"] == 2
        assert summary[0.5]["false_alarm_rate"]["mean"] == pytest.approx(0.1)
        assert summary[1.0]["false_alarm_rate"]["max"] == 0.4
