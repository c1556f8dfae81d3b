"""Tests for the declarative relax stage and the synthesis/evaluation key split.

Covers the three tentpole guarantees:

* ``RelaxConfig`` is plain data (JSON round-trip, typo rejection) and rides
  on ``SynthesisConfig`` / ``ExperimentUnit`` / ``SearchSpace``;
* ``run_pipeline`` applies the relaxer through the shared session and
  reports **both** raw and relaxed outcomes — on the un-floored VSC the raw
  FAR saturates at 100 % while the relaxed FAR does not;
* the store's content address splits into a synthesis key and an evaluation
  key, so FAR/noise/probe variations of an already-synthesized point issue
  zero solver calls; the evaluation key carries the noise stream contract's
  version, so rows drawn under an older contract are never served.
"""

import numpy as np
import pytest

from repro import (
    FARConfig,
    RelaxConfig,
    RuntimeConfig,
    SynthesisConfig,
    get_case_study,
    run_fleet,
    run_pipeline,
)
from repro.api.config import ExperimentUnit
from repro.api.runner import BatchRunner
from repro.core.relaxation import ThresholdRelaxer
from repro.core.session import SynthesisSession
from repro.explore import Explorer, SearchSpace
from repro.explore.store import (
    EVALUATION_KEY_FIELDS,
    ResultStore,
    canonical_config_key,
    split_unit_keys,
    synthesis_store_key,
    unit_store_key,
)
from repro.utils.validation import ValidationError

VSC_FAR = FARConfig(count=100, seed=0, filter_pfc=False, filter_mdc=False)


@pytest.fixture(scope="module")
def vsc_problem():
    return get_case_study("vsc").problem


@pytest.fixture(scope="module")
def vsc_relaxed_report(vsc_problem):
    """Un-floored stepwise synthesis on VSC with a floor-1.0 relax stage."""
    return run_pipeline(
        vsc_problem,
        SynthesisConfig(algorithms=("stepwise",), max_rounds=150, relax=RelaxConfig(floor=1.0)),
        VSC_FAR,
    )


class TestRelaxConfig:
    def test_json_round_trip(self):
        config = RelaxConfig(floor=0.5, preserve_monotonicity=False, raise_cap=9.0)
        assert RelaxConfig.from_dict(config.to_dict()) == config
        # Defaults round-trip too (all-None floor, certified-only pass).
        assert RelaxConfig.from_dict(RelaxConfig().to_dict()) == RelaxConfig()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown RelaxConfig fields"):
            RelaxConfig.from_dict({"floors": 0.5})

    def test_negative_floor_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            RelaxConfig(floor=-1.0)

    def test_floor_above_raise_cap_rejected(self):
        with pytest.raises(ValidationError, match="raise_cap"):
            RelaxConfig(floor=5.0, raise_cap=2.0)
        # The relaxer enforces the same invariant for direct (non-config) use.
        with pytest.raises(ValidationError, match="raise_cap"):
            ThresholdRelaxer(backend="lp", floor=5.0, raise_cap=2.0).relax(
                get_case_study("dcmotor", horizon=8).problem,
                get_case_study("dcmotor", horizon=8).problem.static_threshold(1.0),
                verify_input=False,
            )
        assert RelaxConfig(floor=2.0, raise_cap=2.0).floor == 2.0

    def test_rides_on_synthesis_config(self):
        config = SynthesisConfig(algorithms=("static",), relax={"floor": 2.0})
        assert config.relax == RelaxConfig(floor=2.0)
        assert SynthesisConfig.from_dict(config.to_dict()) == config
        # Without a relax stage the serialized schema carries an explicit None.
        assert SynthesisConfig(algorithms=("static",)).to_dict()["relax"] is None

    def test_rides_on_experiment_unit(self):
        unit = ExperimentUnit("dcmotor", "lp", "static", relax={"floor": 1.0})
        assert unit.relax == RelaxConfig(floor=1.0)
        assert ExperimentUnit.from_dict(unit.to_dict()) == unit
        assert unit.synthesis_config().relax == RelaxConfig(floor=1.0)

    def test_rides_on_search_space(self):
        space = SearchSpace(relax=True)
        assert space.relax == RelaxConfig()
        space = SearchSpace(relax={"floor": 0.5})
        assert SearchSpace.from_dict(space.to_dict()) == space
        assert space.unit(space.points()[0]).relax == RelaxConfig(floor=0.5)
        assert SearchSpace(relax=None).unit(SearchSpace().points()[0]).relax is None


class TestRelaxerFloor:
    def test_floor_lifts_pinned_terminal_instant(self, vsc_problem):
        from repro.core.stepwise import StepwiseThresholdSynthesizer

        raw = StepwiseThresholdSynthesizer(backend="lp", max_rounds=150).synthesize(
            vsc_problem
        ).threshold
        session = SynthesisSession(vsc_problem, backend="lp")
        result = ThresholdRelaxer(backend="lp", floor=1.0).relax(
            vsc_problem, raw, verify_input=False, session=session
        )
        # The terminal instant is provably pinned (~0): lifting it is an
        # explicitly uncertified trade, recorded as such.
        assert result.floored_instants == [vsc_problem.horizon - 1]
        assert not result.certified
        before = raw.effective(vsc_problem.horizon)
        after = result.threshold.effective(vsc_problem.horizon)
        assert np.all(after >= before - 1e-12)
        assert after[-1] == pytest.approx(1.0)

    def test_no_floor_keeps_historical_semantics(self, trajectory_problem):
        from repro.core.pivot import PivotThresholdSynthesizer

        safe = PivotThresholdSynthesizer(backend="lp", max_rounds=200).synthesize(
            trajectory_problem
        ).threshold
        result = ThresholdRelaxer(backend="lp").relax(trajectory_problem, safe)
        assert result.certified
        assert result.floored_instants == []

    def test_noop_floor_stays_certified(self, trajectory_problem):
        from repro.core.pivot import PivotThresholdSynthesizer

        safe = PivotThresholdSynthesizer(backend="lp", max_rounds=200).synthesize(
            trajectory_problem
        ).threshold
        tiny = 0.5 * float(np.min(safe.values[np.isfinite(safe.values)]))
        result = ThresholdRelaxer(backend="lp", floor=tiny).relax(
            trajectory_problem, safe, verify_input=False
        )
        assert result.floored_instants == []
        assert result.certified


class TestRelaxedPipeline:
    def test_unfloored_vsc_raw_far_saturates_relaxed_does_not(self, vsc_relaxed_report):
        rates = vsc_relaxed_report.far_study.rates
        assert rates["stepwise:raw"] == 1.0          # the ROADMAP saturation
        assert rates["stepwise"] < 1.0               # the relax stage un-saturates it

    def test_report_carries_both_raw_and_relaxed(self, vsc_relaxed_report):
        report = vsc_relaxed_report
        raw = report.synthesis["stepwise"].threshold
        relaxed = report.relaxation["stepwise"].threshold
        assert report.deployed_threshold("stepwise") is relaxed
        lifted = relaxed.effective(50) - raw.effective(50)
        assert np.all(lifted >= -1e-12) and np.any(lifted > 0)
        (row,) = report.summary_rows()
        assert row["false_alarm_rate_raw"] == 1.0
        assert row["false_alarm_rate"] < 1.0
        assert row["relax_certified"] is False       # terminal floor is uncertified

    def test_unrelaxed_schema_unchanged(self, vsc_problem):
        report = run_pipeline(
            vsc_problem,
            SynthesisConfig(algorithms=("static",), max_rounds=150),
            FARConfig(count=10, seed=0, filter_pfc=False, filter_mdc=False),
        )
        assert report.relaxation == {}
        (row,) = report.summary_rows()
        assert set(row) == {
            "algorithm", "rounds", "converged", "solver_time_s", "false_alarm_rate",
        }
        assert report.deployed_threshold("static") is report.synthesis["static"].threshold

    def test_run_fleet_deploys_relaxed_threshold(self):
        config = RuntimeConfig(
            n_instances=8,
            case_study="vsc",
            synthesis=SynthesisConfig(
                algorithms=("stepwise",), max_rounds=150, relax={"floor": 1.0}
            ),
            include_mdc=False,
            seed=0,
        )
        report = run_fleet(config)
        stats = report.detectors["stepwise"]
        # The raw vector's ~0 terminal threshold alarms on every benign
        # instance; the deployed (relaxed) vector must not.
        assert stats.false_alarm_rate < 1.0


class TestKeySplit:
    def test_far_and_probe_variations_share_the_synthesis_key(self):
        base = ExperimentUnit(
            "dcmotor", "lp", "stepwise", relax={"floor": 0.1},
            far=FARConfig(count=10, noise_scale=1.0),
            probe={"n_instances": 4},
        )
        noisy = ExperimentUnit(
            "dcmotor", "lp", "stepwise", relax={"floor": 0.1},
            far=FARConfig(count=50, noise_scale=2.0),
            probe={"n_instances": 8},
        )
        syn_a, eval_a = split_unit_keys(base.to_dict())
        syn_b, eval_b = split_unit_keys(noisy.to_dict())
        assert syn_a == syn_b
        assert eval_a != eval_b
        assert unit_store_key(base.to_dict()) == f"{syn_a}:{eval_a}"
        assert synthesis_store_key(base.to_dict()) == synthesis_store_key(noisy.to_dict())

    def test_synthesis_half_fields_change_the_synthesis_key(self):
        base = ExperimentUnit("dcmotor", "lp", "stepwise").to_dict()
        for variant in (
            ExperimentUnit("dcmotor", "lp", "static"),
            ExperimentUnit("dcmotor", "optimizer", "stepwise"),
            ExperimentUnit("dcmotor", "lp", "stepwise", min_threshold=0.5),
            ExperimentUnit("dcmotor", "lp", "stepwise", relax={"floor": 1.0}),
            ExperimentUnit("dcmotor", "lp", "stepwise", case_study_options={"horizon": 9}),
        ):
            assert split_unit_keys(variant.to_dict())[0] != split_unit_keys(base)[0]

    #: Both halves of ``KEYED_UNIT``'s address under the per-instance noise
    #: streams (stream contract version 1).
    V1_SYNTHESIS_KEY = "de84e254690e13a3fcd5232dbbc1fd33d3a5a704dee0bf55694cd1a587c9c2b0"
    V1_EVALUATION_KEY = "722aa179b65d9af6bb735f8d31079aa19774bbc4689d28e45d8cf5a29997e8b1"
    KEYED_UNIT = ExperimentUnit(
        "dcmotor", "lp", "stepwise", relax={"floor": 0.1},
        far=FARConfig(count=10, noise_scale=1.0),
        probe={"n_instances": 4},
    )

    def test_stream_version_changes_only_the_evaluation_key(self):
        synthesis, evaluation = split_unit_keys(self.KEYED_UNIT.to_dict())
        assert synthesis == self.V1_SYNTHESIS_KEY
        assert evaluation != self.V1_EVALUATION_KEY

    #: Both halves of the address of every unit :data:`GOLDEN_SPACES` lowers
    #: to, in point order: relax off and on, FAR on and off, the bias probe
    #: with its default and a custom ladder, an explicit bias (no ladder) and
    #: an empty ladder.
    GOLDEN_SPACES = (
        SearchSpace(case_studies=("dcmotor",), horizons=(8,), min_thresholds=(0.0, 0.02)),
        SearchSpace(case_studies=("dcmotor",), relax=True, far_count=0, probe_instances=0),
        SearchSpace(
            case_studies=("vsc",), synthesizers=("pivot",), relax={"floor": 0.1},
            probe_attack_options={"bias": 0.5},
        ),
        SearchSpace(
            case_studies=("cruise",), synthesizers=("static",), noise_scales=(2.0,),
            detectors=("online-cusum",), far_seed=4, probe_biases=(1.2, 2.0),
        ),
        SearchSpace(
            case_studies=("dcmotor",), horizons=(10,), far_count=0, probe_instances=6,
            probe_biases=(),
        ),
    )
    GOLDEN_UNIT_KEYS = (
        ("5c3344a6805b9494124215d9c1f739d7ee01c7bd2f34bc41350ddf5ad926cf74",
         "98822454d1f10b25af35f8744c4a81bfb0fe9d9376c61fa9c2b716099e8e250b"),
        ("52dab39235eb3fbe1480e61ad0cdcd5b739cda5978998950b8622ba21bb86cc8",
         "98822454d1f10b25af35f8744c4a81bfb0fe9d9376c61fa9c2b716099e8e250b"),
        ("dfef9ffb268f8cd0544c6dbf413a900b44d9498a99d28b7e4e21a175892cc270",
         "089c4ab3faea65aa25e2439ae256036aaa3add788eeb0ba8cb54b6d867563c2d"),
        ("1d5d5ce73541a3eae7d35024a95d4fd49fd2c18dd4c04c06d1861346b965a7f5",
         "d8637a0bca9a35272f1fc053718fde5adfe922eeb552e811590b2d42cf738a0f"),
        ("66da4887c7abcbcfc0ad71fde32cff3f16cca240b67152038bf3ff3821d17ffc",
         "26e93afaa48cf8db4aa16ddb3a0e22902d0e50dafb191faf9d0a4df99a7d0c97"),
        ("2276d9423429576190cb6def1e8fe2976c2ebe6c272fc122a3cbb0e1d5f1b112",
         "60f4cdff93d5da2bb64a4c10fc0a834264a722255d3f742b7097f39e502903aa"),
    )

    def test_search_space_unit_keys_are_pinned(self):
        keys = tuple(
            split_unit_keys(space.unit(point).to_dict())
            for space in self.GOLDEN_SPACES
            for point in space.points()
        )
        assert keys == self.GOLDEN_UNIT_KEYS

    def test_rows_of_an_older_stream_contract_are_recomputed(self, tmp_path, monkeypatch):
        """A warm store from the old contract: synthesis reused, FAR recomputed."""
        unit = ExperimentUnit(
            "dcmotor", "lp", "stepwise",
            case_study_options={"horizon": 8},
            max_rounds=100,
            far=FARConfig(count=10, seed=0, filter_pfc=False, filter_mdc=False),
        )
        config = unit.to_dict()
        fresh = ResultStore(tmp_path / "fresh")
        ((_, row),) = BatchRunner(store=fresh).run_units([unit])
        assert row.error is None and row.false_alarm_rate is not None

        # The same records, the full row under its old-contract address and
        # with a FAR no computation produces.
        synthesis, _ = split_unit_keys(config)
        old_evaluation = canonical_config_key({k: config.get(k) for k in EVALUATION_KEY_FIELDS})
        stale = ResultStore(tmp_path / "stale")
        stale.put(synthesis_store_key(config), config, fresh.peek(synthesis_store_key(config)))
        stale_row = fresh.get(unit_store_key(config))
        stale_row["false_alarm_rate"] = -1.0
        stale.put(f"{synthesis}:{old_evaluation}", config, stale_row)

        calls = {"n": 0}
        original = SynthesisSession.solve

        def counted(session, *args, **kwargs):
            calls["n"] += 1
            return original(session, *args, **kwargs)

        monkeypatch.setattr(SynthesisSession, "solve", counted)
        runner = BatchRunner(store=stale)
        ((_, rerun),) = runner.run_units([unit])
        assert calls["n"] == 0
        assert runner.synthesis_reused == 1
        assert rerun.false_alarm_rate == row.false_alarm_rate

    def test_unclassified_fields_fail_loudly(self):
        config = ExperimentUnit("dcmotor", "lp", "static").to_dict()
        config["shiny_new_knob"] = 1
        with pytest.raises(ValidationError, match="not classified"):
            split_unit_keys(config)

    def test_noise_variations_issue_zero_solver_calls(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = SynthesisSession.solve

        def counted(session, *args, **kwargs):
            calls["n"] += 1
            return original(session, *args, **kwargs)

        monkeypatch.setattr(SynthesisSession, "solve", counted)

        def unit(scale: float) -> ExperimentUnit:
            return ExperimentUnit(
                "dcmotor", "lp", "stepwise",
                case_study_options={"horizon": 8},
                max_rounds=100,
                relax={"floor": 0.01},
                far=FARConfig(count=10, seed=0, noise_scale=scale,
                              filter_pfc=False, filter_mdc=False),
            )

        store = ResultStore(tmp_path / "s")
        runner = BatchRunner(store=store)
        ((_, seeded),) = runner.run_units([unit(1.0)])
        assert seeded.error is None and calls["n"] > 0
        calls["n"] = 0

        pairs = runner.run_units([unit(scale) for scale in (0.5, 1.5, 2.0)])
        assert calls["n"] == 0
        assert runner.synthesis_reused == 3
        rates = [row.false_alarm_rate for _, row in pairs]
        assert all(rate is not None for rate in rates)
        # The evaluation half really re-ran: rates move with the noise scale.
        assert len(set(rates)) > 1

    def test_reused_synthesis_matches_fresh_rows(self, tmp_path):
        def unit(scale: float) -> ExperimentUnit:
            return ExperimentUnit(
                "dcmotor", "lp", "stepwise",
                case_study_options={"horizon": 8},
                max_rounds=100,
                far=FARConfig(count=10, seed=0, noise_scale=scale,
                              filter_pfc=False, filter_mdc=False),
            )

        def comparable(row) -> dict:
            data = row.to_dict()
            data.pop("solver_time_s")          # wall clock: not reproducible
            return data

        fresh_runner = BatchRunner()
        fresh = [comparable(row) for _, row in fresh_runner.run_units([unit(0.5), unit(2.0)])]

        store = ResultStore(tmp_path / "s")
        warm_runner = BatchRunner(store=store)
        warm_runner.run_units([unit(1.0)])                     # seed the synthesis record
        reused = [
            comparable(row) for _, row in warm_runner.run_units([unit(0.5), unit(2.0)])
        ]
        assert warm_runner.synthesis_reused == 2
        assert reused == fresh


class TestUnflooredVscExploration:
    def test_relaxed_front_is_not_far_saturated(self, tmp_path):
        """Acceptance: every front point of the un-floored VSC has FAR < 100 %."""
        space = SearchSpace(
            case_studies=("vsc",),
            synthesizers=("stepwise",),
            min_thresholds=(0.0,),            # un-floored synthesis
            noise_scales=(0.5, 1.0),
            relax={"floor": 1.0},
            far_count=60,
            probe_instances=0,
            max_rounds=150,
        )
        report = Explorer(space, "grid", store=tmp_path / "s").run()
        assert report.errors == []
        front = report.front()
        assert front
        assert all(row["false_alarm_rate"] < 1.0 for row in front)
        # The raw (pre-relax) vectors saturate on every explored point.
        assert all(row["false_alarm_rate_raw"] == 1.0 for row in report.rows)
