"""Tests for the declarative configs and run_pipeline (repro.api)."""

import json

import pytest

from repro.api import ExperimentSpec, FARConfig, PipelineReport, SynthesisConfig, run_pipeline
from repro.core.static_synthesis import StaticThresholdSynthesizer
from repro.explore import SearchSpace
from repro.falsification.lp_backend import LPAttackBackend
from repro.noise.models import BoundedUniformNoise
from repro.utils.validation import ValidationError


class TestSynthesisConfig:
    def test_round_trips_through_dict_and_json(self):
        config = SynthesisConfig(
            algorithms=("pivot", "static"),
            backend="optimizer",
            max_rounds=33,
            min_threshold=0.01,
            backend_options={"restarts": 3},
            algorithm_options={"pivot": {"pivot_rule": "first-violation"}},
        )
        assert SynthesisConfig.from_dict(config.to_dict()) == config
        assert SynthesisConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_list_input_normalised_to_tuple(self):
        config = SynthesisConfig(algorithms=["static"])
        assert config.algorithms == ("static",)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValidationError, match="pivot"):
            SynthesisConfig(algorithms=("magic",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="lp"):
            SynthesisConfig(backend="z3")

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ValidationError, match="bakend"):
            SynthesisConfig.from_dict({"bakend": "lp"})

    def test_build_synthesizer_filters_unsupported_kwargs(self):
        config = SynthesisConfig(min_threshold=0.5, max_rounds=44)
        static = config.build_synthesizer("static")
        assert isinstance(static, StaticThresholdSynthesizer)
        assert static.max_rounds == 44  # static has no min_threshold knob
        pivot = config.build_synthesizer("pivot")
        assert pivot.min_threshold == 0.5
        assert pivot.max_rounds == 44

    def test_build_synthesizer_applies_per_algorithm_options(self):
        config = SynthesisConfig(algorithm_options={"pivot": {"pivot_rule": "first-violation"}})
        assert config.build_synthesizer("pivot").pivot_rule == "first-violation"

    def test_misspelled_algorithm_option_fails_loudly(self):
        config = SynthesisConfig(algorithm_options={"pivot": {"pivot_rul": "x"}})
        with pytest.raises(TypeError, match="pivot_rul"):
            config.build_synthesizer("pivot")

    def test_options_for_unselected_algorithm_rejected(self):
        with pytest.raises(ValidationError, match="static"):
            SynthesisConfig(algorithms=("pivot",), algorithm_options={"static": {}})

    def test_build_backend_uses_options(self):
        config = SynthesisConfig(backend="lp", backend_options={"margin_mode": "none"})
        backend = config.build_backend()
        assert isinstance(backend, LPAttackBackend)
        assert backend.margin_mode == "none"


class TestFARConfig:
    def test_round_trips_through_dict(self):
        config = FARConfig(
            count=77,
            seed=5,
            noise_model="bounded-uniform",
            noise_options={"bounds": [0.1, 0.2]},
            initial_state_spread=[0.05, 0.0],
            filter_mdc=False,
        )
        assert FARConfig.from_dict(config.to_dict()) == config

    def test_unknown_noise_model_rejected(self):
        with pytest.raises(ValidationError, match="gaussian"):
            FARConfig(noise_model="pink")

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            FARConfig(count=-1)

    def test_build_evaluator_resolves_registry_noise_model(self, trajectory_problem):
        config = FARConfig(
            count=10, noise_model="bounded-uniform", noise_options={"bounds": [0.01]}
        )
        evaluator = config.build_evaluator(trajectory_problem)
        assert isinstance(evaluator.noise_model, BoundedUniformNoise)
        assert evaluator.count == 10


class TestRunPipeline:
    def test_full_run_on_trajectory(self, trajectory_problem):
        report = run_pipeline(
            trajectory_problem,
            SynthesisConfig(min_threshold=0.005),
            FARConfig(count=50),
        )
        assert isinstance(report, PipelineReport)
        assert report.is_vulnerable
        assert set(report.synthesis) == {"pivot", "stepwise", "static"}
        assert report.far_study is not None
        rows = report.summary_rows()
        assert [row["algorithm"] for row in rows] == ["pivot", "static", "stepwise"]
        assert all("false_alarm_rate" in row for row in rows)

    def test_far_skipped_without_config(self, trajectory_problem):
        report = run_pipeline(trajectory_problem, SynthesisConfig(algorithms=("static",)))
        assert report.far_study is None

    def test_backend_instance_override(self, trajectory_problem):
        backend = LPAttackBackend()
        report = run_pipeline(
            trajectory_problem,
            SynthesisConfig(algorithms=("static",), backend="optimizer"),
            backend=backend,
        )
        # The LP instance was used: the shared-instance path must not rebuild
        # from the config name, and the incomplete optimizer never converges
        # the static baseline (it cannot prove the final UNSAT).
        assert report.synthesis["static"].converged


class TestExperimentSpec:
    def test_round_trips_through_json(self):
        spec = ExperimentSpec(
            name="sweep",
            case_studies=("dcmotor", "trajectory"),
            backends=("lp", "optimizer"),
            algorithms=("pivot", "static"),
            case_study_options={"dcmotor": {"horizon": 10}},
            min_threshold=0.01,
            far=FARConfig(count=25),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_grid_expansion_covers_the_product_in_order(self):
        spec = ExperimentSpec(
            case_studies=("dcmotor", "trajectory"),
            backends=("lp", "optimizer"),
            algorithms=("pivot", "static"),
        )
        units = spec.expand()
        assert spec.size == len(units) == 8
        combos = [(u.case_study, u.backend, u.algorithm) for u in units]
        assert len(set(combos)) == 8
        assert combos[0] == ("dcmotor", "lp", "pivot")
        assert combos[-1] == ("trajectory", "optimizer", "static")
        # Per-case options only land on their own case study.
        spec.case_study_options["dcmotor"] = {"horizon": 9}
        units = spec.expand()
        assert all(
            (u.case_study_options == {"horizon": 9}) == (u.case_study == "dcmotor")
            for u in units
        )

    def test_unknown_names_rejected(self):
        with pytest.raises(ValidationError, match="vsc"):
            ExperimentSpec(case_studies=("warp-drive",))
        with pytest.raises(ValidationError):
            ExperimentSpec(backends=("z3",))
        with pytest.raises(ValidationError):
            ExperimentSpec(algorithms=("magic",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(case_studies=())

    def test_options_for_unswept_case_rejected(self):
        with pytest.raises(ValidationError, match="vsc"):
            ExperimentSpec(case_studies=("dcmotor",), case_study_options={"vsc": {}})

    def test_far_dict_coerced(self):
        spec = ExperimentSpec(far={"count": 10})
        assert spec.far == FARConfig(count=10)


class TestRuntimeConfigExport:
    def test_runtime_config_is_part_of_the_api_package(self):
        from repro.api import RuntimeConfig, run_fleet

        config = RuntimeConfig(n_instances=5, static_thresholds={"paper": 1.0})
        assert RuntimeConfig.from_json(config.to_json()) == config
        assert callable(run_fleet)


class TestEngineOptionsValidation:
    """The engine takes no options: an unknown name or a stale options key fails."""

    def test_rejected_option_is_a_validation_error_naming_it(self):
        # Configs written while the engine took options carry the key.
        from repro.api import RuntimeConfig

        data = RuntimeConfig().to_dict()
        assert data["engine"] == "fused" and "engine_options" not in data
        assert RuntimeConfig.from_dict(data) == RuntimeConfig()
        with pytest.raises(ValidationError, match="engine_options"):
            RuntimeConfig.from_dict({**data, "engine_options": {"workers": 2}})

    def test_bad_values_and_unknown_engines_fail_at_construction(self):
        from repro.api import RuntimeConfig

        with pytest.raises(ValidationError, match="unknown engine"):
            RuntimeConfig(engine="legacy")
        with pytest.raises(TypeError):
            RuntimeConfig(engine_options={})

    def test_service_config_has_no_engine(self):
        from repro.api import ServiceConfig

        with pytest.raises(ValidationError):
            ServiceConfig.from_dict({"engine": "fused"})


class TestRemovedSmtBackend:
    """Specs naming the removed ``smt`` backend fail loudly, never switch backend."""

    def test_synthesis_config_from_dict(self):
        with pytest.raises(ValidationError, match="available: lp, optimizer"):
            SynthesisConfig.from_dict({"backend": "smt"})

    def test_experiment_spec(self):
        with pytest.raises(ValidationError, match="available: lp, optimizer"):
            ExperimentSpec.from_dict({"backends": ["lp", "smt"]})

    def test_search_space(self):
        with pytest.raises(ValidationError, match="available: lp, optimizer"):
            SearchSpace.from_dict({"backends": ["smt"]})

    def test_get_backend(self):
        from repro.falsification.registry import get_backend

        with pytest.raises(ValidationError, match="available: lp, optimizer"):
            get_backend("smt")

    def test_synthesis_session(self, trajectory_problem):
        from repro.core.session import SynthesisSession

        with pytest.raises(ValidationError, match="available: lp, optimizer"):
            SynthesisSession(trajectory_problem, backend="smt")

    @pytest.mark.parametrize("module", ["repro.smt", "repro.falsification.smt_backend"])
    def test_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
