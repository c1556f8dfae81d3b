"""``import repro`` pays only for what every call uses, and nothing it dropped."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla

import repro

#: Modules deleted because no entry point called them (see README.md,
#: "Removed helpers and what to use instead").
REMOVED_MODULES = (
    "repro.lti.analysis",
    "repro.control.pid",
    "repro.control.pole_placement",
    "repro.estimation.luenberger",
    "repro.detectors.evaluation",
    "repro.attacks.injector",
)

#: Public names deleted with them (and the helpers no entry point called),
#: each under the dotted path it was reachable at.  README.md's table names
#: a replacement for every one.
REMOVED_NAMES = (
    "repro.lti.zoh",
    "repro.lti.euler",
    "repro.lti.tustin",
    "repro.lti.LTISystem",
    "repro.lti.is_stable",
    "repro.lti.stability_margin",
    "repro.lti.is_controllable",
    "repro.lti.is_observable",
    "repro.lti.dc_gain",
    "repro.lti.step_response",
    "repro.lti.impulse_response",
    "repro.lti.settling_time",
    "repro.control.place_poles_gain",
    "repro.control.deadbeat_gain",
    "repro.control.DiscretePID",
    "repro.estimation.luenberger_gain",
    "repro.estimation.LuenbergerObserver",
    "repro.estimation.kalman_gain",
    "repro.estimation.KalmanFilter",
    "repro.estimation.TimeVaryingKalmanFilter",
    "repro.estimation.normalized_innovation_squared",
    "repro.detectors.false_alarm_rate",
    "repro.detectors.detection_rate",
    "repro.detectors.detection_delay",
    "repro.detectors.DetectorEvaluation",
    "repro.detectors.roc_curve",
    "repro.attacks.AttackInjector",
    "repro.utils.as_vector",
    "repro.utils.spectral_radius",
    "repro.utils.is_stable_discrete",
    "repro.utils.controllability_matrix",
    "repro.utils.observability_matrix",
    "repro.utils.dlyap",
    "repro.utils.check_shape",
    "repro.utils.linalg.is_controllable",
    "repro.utils.linalg.is_observable",
    "repro.utils.linalg.matrix_power_series",
    "repro.utils.validation.check_vector",
    "repro.utils.validation.check_index",
    "repro.noise.noise_matrix",
    "repro.noise.noise_vector_batch",
    "repro.core.static_synthesis.verify_no_attack",
    "repro.explore.problem_fingerprint",
    "repro.explore.store.problem_fingerprint",
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _loaded_after_import(modules: tuple[str, ...]) -> str:
    """The subset of ``modules`` a fresh ``import repro`` leaves in ``sys.modules``."""
    code = (
        "import sys, repro; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_import_leaves_scipy_stats_and_signal_unloaded():
    # scipy.stats alone took over half of ``import repro``; it loads on
    # first use (the chi-square threshold from a false-alarm probability),
    # and nothing in the library imports scipy.signal.
    assert _loaded_after_import(("scipy.stats", "scipy.signal")) == "[]"


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize loads on the first LP or optimizer solve, so the fleet
    # and serve entry points, which solve nothing, never pay for it.
    assert _loaded_after_import(("scipy.optimize",)) == "[]"


def test_import_leaves_scipy_linalg_and_sparse_unloaded():
    # scipy.linalg (about 0.3 s over numpy) loads on the first ZOH
    # discretisation or DARE solve, scipy.sparse (about 0.13 s) on the
    # first LP matrix assembly.
    assert _loaded_after_import(("scipy.linalg", "scipy.sparse")) == "[]"


@pytest.mark.parametrize("module", REMOVED_MODULES)
def test_removed_module_is_gone(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


@pytest.mark.parametrize("dotted", REMOVED_NAMES)
def test_removed_name_is_gone_and_has_a_replacement(dotted):
    module_name, _, name = dotted.rpartition(".")
    module = importlib.import_module(module_name)
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())
    assert not hasattr(repro, name)
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `")]
    assert any(f"`{dotted}`" in row.split(" | ")[0] for row in rows), dotted


def test_discretize_takes_no_method(double_integrator_continuous):
    with pytest.raises(TypeError):
        repro.discretize(double_integrator_continuous, 0.1, method="zoh")


def test_run_pipeline_takes_no_store():
    with pytest.raises(TypeError):
        repro.run_pipeline(None, store="unused")


def _zoh_reference(model, dt):
    """Reference ZOH: blocks of the exponential of ``[[A dt, B dt], [0, 0]]``."""
    n, p = model.n_states, model.n_inputs
    augmented = np.zeros((n + p, n + p))
    augmented[:n, :n] = model.A * dt
    augmented[:n, n:] = model.B * dt
    expm = sla.expm(augmented)
    return expm[:n, :n], expm[:n, n:], model.Q_w * dt, model.R_v / dt


@pytest.mark.parametrize("name", repro.available_case_studies())
def test_discretize_is_the_zoh_bit_for_bit_on_every_case_study(name, monkeypatch):
    module = importlib.import_module(f"repro.systems.{name}")
    calls = []

    def recording(model, dt):
        plant = repro.discretize(model, dt)
        calls.append((model, dt, plant))
        return plant

    monkeypatch.setattr(module, "discretize", recording)
    repro.get_case_study(name)
    assert len(calls) == 1
    model, dt, plant = calls[0]
    for got, want in zip((plant.A, plant.B, plant.Q_w, plant.R_v), _zoh_reference(model, dt)):
        assert np.array_equal(got, want)
