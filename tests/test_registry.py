"""Tests for the shared plugin registries (repro.registry)."""

import subprocess
import sys

import pytest

import repro
from repro.falsification.base import AttackBackend
from repro.falsification.lp_backend import LPAttackBackend
from repro.falsification.registry import get_backend
from repro.registry import (
    ATTACK_TEMPLATES,
    BACKENDS,
    CASE_STUDIES,
    DETECTORS,
    NOISE_MODELS,
    SYNTHESIZERS,
    Registry,
    RegistryError,
    available_attack_templates,
    available_backends,
    available_case_studies,
    available_detectors,
    available_noise_models,
    available_synthesizers,
    get_registry,
    register,
)
from repro.utils.validation import ValidationError


class TestBuiltinRegistrations:
    def test_all_six_registries_resolve_the_builtin_names(self):
        assert set(available_backends()) == {"lp", "optimizer"}
        assert set(available_synthesizers()) == {"pivot", "stepwise", "static"}
        assert set(available_detectors()) == {
            "residue",
            "chi-square",
            "cusum",
            "online-residue",
            "online-chi-square",
            "online-cusum",
        }
        assert set(available_noise_models()) == {
            "zero",
            "gaussian",
            "bounded-uniform",
            "truncated-gaussian",
        }
        assert set(available_case_studies()) == {
            "vsc",
            "trajectory",
            "dcmotor",
            "quadtank",
            "cruise",
            "pendulum",
        }
        assert set(available_attack_templates()) == {
            "none",
            "bias",
            "ramp",
            "surge",
            "geometric",
            "replay",
        }

    def test_fused_is_the_only_engine_in_a_fresh_process(self):
        code = "import repro; print(repro.available_engines())"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "['fused']"

    def test_resolved_objects_are_the_public_classes(self):
        assert BACKENDS.get("lp") is LPAttackBackend
        assert SYNTHESIZERS.get("pivot") is repro.PivotThresholdSynthesizer
        assert SYNTHESIZERS.get("stepwise") is repro.StepwiseThresholdSynthesizer
        assert SYNTHESIZERS.get("static") is repro.StaticThresholdSynthesizer
        assert DETECTORS.get("cusum") is repro.CusumDetector
        # The online-* names stay for stored configs; they resolve to the
        # offline classes, which every deployment path turns into a core.
        assert DETECTORS.get("online-cusum") is repro.CusumDetector
        assert DETECTORS.get("online-residue") is repro.ResidueDetector
        assert DETECTORS.get("online-chi-square") is repro.ChiSquareDetector
        assert CASE_STUDIES.get("vsc") is repro.build_vsc_case_study

    def test_classical_baselines_listed_and_constructible(self):
        # The classical baseline detectors are first-class registry citizens:
        # available_detectors() lists them and create() builds working instances.
        assert {"cusum", "chi-square"} <= set(available_detectors())
        cusum = DETECTORS.create("cusum", bias=0.1, threshold=1.0)
        assert cusum.detects([[5.0], [5.0], [5.0], [5.0], [5.0], [5.0], [5.0], [5.0]])
        import numpy as np

        chi = DETECTORS.create("chi-square", innovation_cov=np.eye(2), threshold=9.0)
        assert not chi.detects(np.zeros((4, 2)))

    def test_unknown_detector_error_lists_every_registered_name(self):
        with pytest.raises(RegistryError) as excinfo:
            DETECTORS.get("sprt")
        message = str(excinfo.value)
        for name in (
            "residue",
            "chi-square",
            "cusum",
            "online-residue",
            "online-chi-square",
            "online-cusum",
        ):
            assert name in message
        # The message stays dynamic: a user registration shows up immediately.
        DETECTORS.register("test-sprt", object)
        try:
            with pytest.raises(RegistryError, match="test-sprt"):
                DETECTORS.get("sprt")
        finally:
            DETECTORS.unregister("test-sprt")
        with pytest.raises(RegistryError) as excinfo:
            DETECTORS.get("sprt")
        assert "test-sprt" not in str(excinfo.value)

    def test_unknown_attack_template_error_lists_available(self):
        with pytest.raises(RegistryError) as excinfo:
            ATTACK_TEMPLATES.get("square-wave")
        message = str(excinfo.value)
        for name in ("bias", "ramp", "surge", "geometric", "replay", "none"):
            assert name in message

    def test_attack_template_create(self):
        template = ATTACK_TEMPLATES.create("bias", bias=0.5, start=3)
        attack = template.generate(10, 2)
        assert attack.values.shape == (10, 2)
        assert attack.support().min() == 3
        assert repro.get_attack_template("none").generate(4, 1).is_zero()

    def test_create_forwards_kwargs(self):
        case = CASE_STUDIES.create("dcmotor", horizon=12)
        assert case.problem.horizon == 12
        noise = NOISE_MODELS.create("bounded-uniform", bounds=[0.1, 0.2])
        assert noise.dimension == 2

    def test_factory_conveniences(self):
        assert repro.get_case_study("trajectory").name
        assert repro.get_noise_model("zero", size=3).dimension == 3
        synthesizer = repro.get_synthesizer("pivot", max_rounds=7)
        assert synthesizer.max_rounds == 7

    def test_introspection_exported_from_top_level(self):
        assert repro.available_backends() == available_backends()
        assert repro.available_case_studies() == available_case_studies()


class TestRegistryMechanics:
    def test_unknown_name_error_lists_available(self):
        with pytest.raises(RegistryError) as excinfo:
            BACKENDS.get("z3")
        message = str(excinfo.value)
        assert "lp" in message and "optimizer" in message

    def test_registry_error_is_a_validation_error(self):
        assert issubclass(RegistryError, ValidationError)

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("a", int)
        with pytest.raises(RegistryError):
            registry.register("a", float)
        # Same object again is an idempotent no-op; overwrite replaces.
        registry.register("a", int)
        registry.register("a", float, overwrite=True)
        assert registry.get("a") is float

    def test_register_as_decorator(self):
        registry = Registry("widget")

        @registry.register("thing")
        class Thing:
            pass

        assert registry.get("thing") is Thing
        assert "thing" in registry
        assert list(registry) == ["thing"]
        assert len(registry) == 1

    def test_invalid_names_rejected(self):
        registry = Registry("widget")
        with pytest.raises(RegistryError):
            registry.register("", int)
        with pytest.raises(RegistryError):
            registry.register(3, int)

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("a", int)
        assert registry.unregister("a") is int
        with pytest.raises(RegistryError):
            registry.unregister("a")

    def test_get_registry_and_generic_register(self):
        assert get_registry("backend") is BACKENDS
        assert get_registry("case_study") is CASE_STUDIES
        with pytest.raises(RegistryError):
            get_registry("widgets")

        class Dummy:
            pass

        register("detector", "test-dummy-detector", Dummy)
        try:
            assert DETECTORS.get("test-dummy-detector") is Dummy
        finally:
            DETECTORS.unregister("test-dummy-detector")


class TestBackendResolution:
    def test_instance_passthrough(self):
        backend = get_backend("lp")
        assert isinstance(backend, LPAttackBackend)
        assert get_backend(backend) is backend

    def test_user_registered_backend_resolves_everywhere(self, dcmotor_problem):
        class EchoBackend(AttackBackend):
            def solve(self, encoding, time_budget=None):  # pragma: no cover
                raise NotImplementedError

        BACKENDS.register("test-echo", EchoBackend)
        try:
            assert "test-echo" in available_backends()
            assert isinstance(get_backend("test-echo"), EchoBackend)
            # The dynamic error message now includes the new name too.
            with pytest.raises(RegistryError, match="test-echo"):
                get_backend("nope")
        finally:
            BACKENDS.unregister("test-echo")
        assert "test-echo" not in available_backends()
