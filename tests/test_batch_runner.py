"""Tests for the batch experiment runner (repro.api.runner)."""

import pytest

from repro.api import (
    BatchRunner,
    ExperimentResult,
    ExperimentRow,
    ExperimentSpec,
    FARConfig,
    run_experiments,
)
from repro.registry import CASE_STUDIES


def _comparable(result: ExperimentResult) -> list[tuple]:
    """The deterministic part of each row (timings vary run-to-run)."""
    return [
        (
            row.case_study,
            row.backend,
            row.algorithm,
            row.status,
            row.vulnerable,
            row.converged,
            row.rounds,
            row.false_alarm_rate,
            row.error,
        )
        for row in result.rows
    ]


@pytest.fixture(scope="module")
def sweep_spec() -> ExperimentSpec:
    """2 case studies x 2 backends x 2 algorithms, kept cheap for the optimizer cells."""
    return ExperimentSpec(
        name="acceptance-sweep",
        case_studies=("dcmotor", "trajectory"),
        backends=("lp", "optimizer"),
        algorithms=("stepwise", "static"),
        case_study_options={"dcmotor": {"horizon": 8}, "trajectory": {"horizon": 8}},
        min_threshold=0.005,
        max_rounds=20,
        far=FARConfig(count=20, seed=0, filter_pfc=False, filter_mdc=False),
    )


@pytest.fixture(scope="module")
def serial_result(sweep_spec) -> ExperimentResult:
    return run_experiments(sweep_spec)


class TestSerialSweep:
    def test_full_grid_executed(self, sweep_spec, serial_result):
        assert len(serial_result) == sweep_spec.size == 8
        assert serial_result.errors == []
        combos = {(row.case_study, row.backend, row.algorithm) for row in serial_result}
        assert len(combos) == 8

    def test_rows_sorted_by_stable_key(self, serial_result):
        keys = [row.sort_key for row in serial_result.rows]
        assert keys == sorted(keys)
        assert [row["case_study"] for row in serial_result.summary_rows()] == sorted(
            row.case_study for row in serial_result.rows
        )

    def test_every_cell_synthesized_and_evaluated(self, serial_result):
        for row in serial_result:
            # Convergence is problem-dependent (short horizons can block the
            # stepwise refinement), but every cell must produce a verdict,
            # metrics and a FAR value without raising.
            assert row.status in ("sat", "unsat", "unknown")
            assert row.vulnerable is True
            assert row.converged in (True, False)
            assert row.rounds >= 1
            assert row.solver_time_s >= 0.0
            assert 0.0 <= row.false_alarm_rate <= 1.0

    def test_static_baseline_converges_on_lp_only(self, serial_result):
        for case in ("dcmotor", "trajectory"):
            row = serial_result.select(case_study=case, backend="lp", algorithm="static")[0]
            assert row.status == "unsat"
            assert row.converged is True
            # The optimizer is incomplete: it never proves the final UNSAT.
            row = serial_result.select(
                case_study=case, backend="optimizer", algorithm="static"
            )[0]
            assert row.status != "unsat"
            assert row.converged is False

    def test_result_round_trips_through_json(self, serial_result):
        rebuilt = ExperimentResult.from_json(serial_result.to_json())
        assert rebuilt == serial_result

    def test_json_export_is_reproducible(self, sweep_spec, serial_result):
        again = BatchRunner(sweep_spec).run()
        # Timings differ between runs; everything else must be identical.
        assert _comparable(again) == _comparable(serial_result)

    def test_spec_dict_accepted(self, sweep_spec):
        small = ExperimentSpec(
            case_studies=("trajectory",),
            backends=("lp",),
            algorithms=("static",),
            case_study_options={"trajectory": {"horizon": 8}},
        )
        result = run_experiments(small.to_dict())
        assert len(result) == 1
        assert result.rows[0].status == "unsat"


class TestMultiprocessSweep:
    def test_pool_matches_serial(self, sweep_spec, serial_result):
        parallel = run_experiments(sweep_spec, workers=4)
        assert _comparable(parallel) == _comparable(serial_result)


class TestGrouping:
    def test_cells_sharing_case_and_backend_share_one_pipeline_run(self, sweep_spec):
        from repro.api.runner import _group_units

        groups = _group_units(sweep_spec.expand())
        assert len(groups) == 4  # 2 cases x 2 backends; algorithms merged
        assert all(
            payload["algorithms"] == ["stepwise", "static"] for payload, _ in groups
        )
        assert {(p["case_study"], p["backend"]) for p, _ in groups} == {
            ("dcmotor", "lp"),
            ("dcmotor", "optimizer"),
            ("trajectory", "lp"),
            ("trajectory", "optimizer"),
        }
        # The index lists map each group's rows back onto the input units.
        units = sweep_spec.expand()
        for payload, indices in groups:
            for algorithm, index in zip(payload["algorithms"], indices):
                assert units[index].algorithm == algorithm
                assert units[index].case_study == payload["case_study"]

    def test_units_differing_beyond_algorithm_do_not_merge(self):
        from repro.api.config import ExperimentUnit
        from repro.api.runner import _group_units

        units = [
            ExperimentUnit("dcmotor", "lp", "static", case_study_options={"horizon": 8}),
            ExperimentUnit("dcmotor", "lp", "stepwise", case_study_options={"horizon": 8}),
            ExperimentUnit("dcmotor", "lp", "static", case_study_options={"horizon": 10}),
            ExperimentUnit("dcmotor", "lp", "static", min_threshold=0.01,
                           case_study_options={"horizon": 8}),
        ]
        groups = _group_units(units)
        assert len(groups) == 3  # horizon-10 and min-threshold cells stay apart
        merged = [payload["algorithms"] for payload, _ in groups]
        assert ["static", "stepwise"] in merged


class TestResultTable:
    def _result(self) -> ExperimentResult:
        spec = ExperimentSpec(
            case_studies=("dcmotor",), backends=("lp",), algorithms=("static", "stepwise")
        )
        rows = [
            ExperimentRow("dcmotor", "lp", "static", status="unsat", converged=True,
                          rounds=1, false_alarm_rate=0.25,
                          metrics={"stealth_margin": 0.5}),
            ExperimentRow("dcmotor", "lp", "stepwise", status="error",
                          error="RuntimeError: boom"),
        ]
        return ExperimentResult(spec=spec, rows=rows)

    def test_select_matches_multiple_criteria(self):
        result = self._result()
        assert len(result.select(case_study="dcmotor")) == 2
        assert result.select(case_study="dcmotor", algorithm="static")[0].rounds == 1
        assert result.select(algorithm="static", status="error") == []
        assert result.select(case_study="no-such") == []

    def test_errors_property(self):
        result = self._result()
        assert [row.algorithm for row in result.errors] == ["stepwise"]
        assert result.errors[0].status == "error"

    def test_json_round_trip_preserves_error_rows_and_metrics(self):
        result = self._result()
        rebuilt = ExperimentResult.from_json(result.to_json())
        assert rebuilt.summary_rows() == result.summary_rows()
        assert len(rebuilt.errors) == 1
        assert rebuilt.errors[0].error == "RuntimeError: boom"
        assert rebuilt.errors[0].false_alarm_rate is None
        kept = rebuilt.select(algorithm="static")[0]
        assert kept.metrics == {"stealth_margin": 0.5}

    def test_row_dicts_without_metrics_still_load(self):
        """Pre-exploration JSON exports carried no metrics field."""
        row = ExperimentRow.from_dict(
            {"case_study": "dcmotor", "backend": "lp", "algorithm": "static"}
        )
        assert row.metrics == {}


class TestLadderAggregate:
    def test_missed_rung_is_censored_at_probe_horizon(self):
        """Never detecting a weak attack must score worse than detecting it slowly."""
        from repro.api.runner import _ladder_aggregate

        slow = _ladder_aggregate([(1.1, 1.0, 12.0), (1.5, 1.0, 4.0), (3.0, 1.0, 1.0)], 20)
        blind = _ladder_aggregate([(1.1, 0.0, None), (1.5, 1.0, 4.0), (3.0, 1.0, 1.0)], 20)
        # The blind candidate's missed rung counts as the 20-step horizon:
        # (20+4+1)/3 > (12+4+1)/3, so it cannot dominate the slow detector.
        assert blind["mean_detection_latency"] > slow["mean_detection_latency"]
        assert blind["mean_detection_latency_x1.1"] is None   # per-rung stays honest
        assert blind["detection_rate"] == pytest.approx(2 / 3)

    def test_unattacked_rungs_contribute_to_neither_aggregate(self):
        from repro.api.runner import _ladder_aggregate

        metrics = _ladder_aggregate([(1.1, None, None), (3.0, None, None)], 20)
        assert metrics["detection_rate"] is None
        assert metrics["mean_detection_latency"] is None


class TestStoreIntegration:
    def test_store_serves_second_run_without_execution(self, tmp_path):
        spec = ExperimentSpec(
            case_studies=("trajectory",),
            backends=("lp",),
            algorithms=("static", "stepwise"),
            case_study_options={"trajectory": {"horizon": 8}},
            min_threshold=0.005,
            max_rounds=100,
            far=FARConfig(count=10, seed=0, filter_pfc=False, filter_mdc=False),
        )
        from repro.explore import ResultStore

        store = ResultStore(tmp_path / "s")
        first = run_experiments(spec, store=store)
        # 2 row entries + 2 reusable synthesis records.
        assert store.misses == 2 and len(store) == 4
        second = run_experiments(spec, store=store)
        assert store.hits == 2
        assert second.summary_rows() == first.summary_rows()

    def test_probe_error_rows_are_not_persisted(self, tmp_path):
        """A failed (best-effort) probe must not pin a crippled row forever."""
        from repro.api.config import ExperimentUnit
        from repro.api.runner import BatchRunner
        from repro.explore import ResultStore

        unit = ExperimentUnit(
            "trajectory", "lp", "static",
            case_study_options={"horizon": 8},
            probe={"detector": "no-such-deployment", "n_instances": 4},
        )
        store = ResultStore(tmp_path / "s")
        ((key, row),) = BatchRunner(store=store).run_units([unit])
        assert row.error is None
        assert "probe_error" in row.metrics
        # The crippled row is never pinned; the synthesis half (which the
        # probe failure does not invalidate) is kept for reuse.
        assert key not in store
        from repro.explore.store import synthesis_store_key

        assert synthesis_store_key(unit.to_dict()) in store
        assert len(store) == 1

    def test_error_rows_are_not_persisted(self, tmp_path):
        @CASE_STUDIES.register("test-store-broken")
        def build_broken():
            raise RuntimeError("boom")

        from repro.explore import ResultStore

        try:
            spec = ExperimentSpec(
                case_studies=("test-store-broken",), backends=("lp",), algorithms=("static",)
            )
            store = ResultStore(tmp_path / "s")
            result = run_experiments(spec, store=store)
            assert result.errors and len(store) == 0
        finally:
            CASE_STUDIES.unregister("test-store-broken")


class TestErrorHandling:
    def test_failing_cell_becomes_error_row(self):
        @CASE_STUDIES.register("test-broken-case")
        def build_broken_case():
            raise RuntimeError("boom")

        try:
            spec = ExperimentSpec(
                case_studies=("test-broken-case", "trajectory"),
                backends=("lp",),
                algorithms=("static",),
                case_study_options={"trajectory": {"horizon": 8}},
            )
            result = run_experiments(spec)
        finally:
            CASE_STUDIES.unregister("test-broken-case")

        assert len(result) == 2
        broken = result.select(case_study="test-broken-case")[0]
        assert broken.status == "error"
        assert "boom" in broken.error
        assert broken.rounds is None
        healthy = result.select(case_study="trajectory")[0]
        assert healthy.error is None
        assert healthy.status == "unsat"

    def test_unknown_row_field_rejected(self):
        with pytest.raises(Exception):
            ExperimentRow.from_dict({"case_study": "a", "backend": "lp", "bogus": 1})
