"""Differential equivalence layer: the fused engine vs an independent oracle.

The reference is the per-step loop the runtime ran before it had one
stepping loop and one detector pass (``fleet_oracle``/``batch_oracle`` in
``tests/conftest.py``): one ``_BatchStepper`` step and one ``detector.step``
per core per sampling instance.  For every packaged case study, every
deployed detector family (static threshold, CUSUM, chi-square, plant
monitors) and both attack modes, a fused float64 run — on the fused kernel
and, with the probe forced to reject it, on the reference-stepper fallback
— must be *bit-identical* (``np.array_equal``, no tolerance) to the oracle:
traces, alarm events (including their order) and report statistics alike.
``tests/test_runtime_kernel_property.py`` extends the check to generated
stable LTI closed loops, including plants with a nonzero feed-through ``D``
(a path no packaged case study exercises).

The engine is allowed to *choose* the reference stepper when its
differential probe rejects the BLAS at the run's width — the gate here is
about observable output, not about which kernel ran.  A separate guard
asserts that the fused kernel path is genuinely exercised on this host, so
a silently always-falling-back build cannot pass the suite vacuously.
"""

import numpy as np
import pytest

from repro.attacks.templates import BiasAttack
from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.lti.model import StateSpace
from repro.lti.simulate import ClosedLoopSystem
from repro.registry import CASE_STUDIES
from repro.runtime.engine import _innovation_covariance
from repro.runtime.events import InMemorySink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack, batch_simulate
from repro.runtime.kernel import probe_fused_equivalence, runner
from repro.runtime.kernel.core import gain_product

CASE_STUDY_NAMES = ("cruise", "dcmotor", "pendulum", "quadtank", "trajectory", "vsc")

TRACE_FIELDS = (
    "states",
    "estimates",
    "inputs",
    "measurements",
    "true_outputs",
    "residues",
    "attacks",
)


@pytest.fixture(scope="module")
def problems():
    return {name: CASE_STUDIES.create(name).problem for name in CASE_STUDY_NAMES}


def _detector_bank(problem) -> dict:
    """One detector of every family the runtime deploys."""
    bank = {
        "static": problem.static_threshold(0.1),
        "cusum": CusumDetector(bias=0.05, threshold=0.5),
        "chi2": ChiSquareDetector.from_false_alarm_probability(
            _innovation_covariance(problem), 0.05
        ),
    }
    if len(problem.mdc) > 0:
        bank["mdc"] = problem.mdc
    return bank


def _simulator(problem, sink, *, attacked, n_instances, horizon, seed):
    attacks = (
        [ScheduledAttack(BiasAttack(bias=0.4), fraction=0.3, start=horizon // 4)]
        if attacked
        else []
    )
    return FleetSimulator(
        problem.system,
        n_instances,
        horizon,
        detectors=_detector_bank(problem),
        x0=problem.x0,
        attacks=attacks,
        sinks=[] if sink is None else [sink],
        seed=seed,
        record_traces=True,
        metrics=False,
    )


def _run(problem, *, attacked, n_instances=37, horizon=60, seed=11):
    sink = InMemorySink()
    simulator = _simulator(
        problem,
        sink,
        attacked=attacked,
        n_instances=n_instances,
        horizon=horizon,
        seed=seed,
    )
    report = simulator.run()
    return report, simulator.trace, list(sink.events)


def _oracle(fleet_oracle, problem, *, attacked, n_instances=37, horizon=60, seed=11):
    simulator = _simulator(
        problem,
        None,
        attacked=attacked,
        n_instances=n_instances,
        horizon=horizon,
        seed=seed,
    )
    return fleet_oracle(simulator)


def _assert_matches_oracle(oracle, run):
    stats, n_attacked, trace_o, events_o = oracle
    report, trace, events = run
    for field in TRACE_FIELDS:
        left, right = getattr(trace_o, field), getattr(trace, field)
        assert np.array_equal(left, right), f"trace field {field!r} diverged"
    assert events_o == events, "alarm event streams diverged"
    assert report.n_attacked == n_attacked
    assert set(report.detectors) == set(stats)
    for label in stats:
        assert (
            report.detectors[label].to_dict() == stats[label]
        ), f"detector stats for {label!r} diverged"


@pytest.fixture
def reference_fallback(monkeypatch):
    """Make every fused probe reject the BLAS, so runs take the fallback."""
    monkeypatch.setattr(runner, "probe_fused_equivalence", lambda *args: False)


class TestCaseStudyEquivalence:
    """Fused float64, kernel and fallback alike, ≡ the oracle on every case study."""

    @pytest.mark.parametrize("attacked", [False, True], ids=["benign", "attacked"])
    @pytest.mark.parametrize("name", CASE_STUDY_NAMES)
    def test_fused_float64_is_bit_identical(self, problems, fleet_oracle, name, attacked):
        problem = problems[name]
        oracle = _oracle(fleet_oracle, problem, attacked=attacked)
        fused = _run(problem, attacked=attacked)
        _assert_matches_oracle(oracle, fused)

    @pytest.mark.parametrize("attacked", [False, True], ids=["benign", "attacked"])
    @pytest.mark.parametrize("name", CASE_STUDY_NAMES)
    def test_probe_fallback_is_bit_identical(
        self, problems, fleet_oracle, reference_fallback, name, attacked
    ):
        problem = problems[name]
        oracle = _oracle(fleet_oracle, problem, attacked=attacked)
        report, trace, events = _run(problem, attacked=attacked)
        assert report.metadata["engine"]["fused_path"] is False
        _assert_matches_oracle(oracle, (report, trace, events))

    @pytest.mark.parametrize("fallback", [False, True], ids=["kernel", "fallback"])
    def test_single_instance_fleet_pads_without_divergence(
        self, problems, fleet_oracle, monkeypatch, fallback
    ):
        # A lone instance rides a zero discard column inside the kernel; the
        # padding must never leak into the observable output.  The fallback
        # runs it unpadded.
        if fallback:
            monkeypatch.setattr(runner, "probe_fused_equivalence", lambda *args: False)
        problem = problems["dcmotor"]
        oracle = _oracle(fleet_oracle, problem, attacked=True, n_instances=1)
        _assert_matches_oracle(oracle, _run(problem, attacked=True, n_instances=1))

    def test_engine_metadata_reports_the_chosen_path(self, problems):
        report, _, _ = _run(problems["quadtank"], attacked=False)
        engine = report.metadata["engine"]
        assert set(engine) == {"name", "fused_path"}
        assert engine["name"] == "fused"
        assert isinstance(engine["fused_path"], bool)

    def test_fused_kernel_path_is_exercised_on_this_host(self, problems):
        # The equivalence cells above pass even if every probe rejects the
        # BLAS (the engine then runs the reference stepper).  Guard against that
        # vacuous pass: at least one case study must take the fused GEMM
        # path at at least one of the widths this suite uses.
        verdicts = [
            probe_fused_equivalence(problem.system, width)
            for problem in problems.values()
            for width in (37, 64)
        ]
        assert any(verdicts), (
            "no (case study, width) pair passed the fused probe on this host; "
            "the differential suite would not be exercising the fused kernel"
        )


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (4, 1), (1, 2), (3, 2)])
def test_gain_product_equals_matmul(shape):
    # An inner dimension of one (a single-output plant's observer gain) is
    # taken as a broadcast multiply: every entry is one rounded product, so
    # it must equal the matmul value for value, non-finite entries included.
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal(shape)
    operand = rng.standard_normal((shape[1], 257))
    operand[0, :4] = [np.inf, -np.inf, np.nan, 0.0]
    out = np.empty((shape[0], 257))
    product = gain_product(matrix, operand, out)
    assert product is out
    with np.errstate(invalid="ignore"):
        expected = np.matmul(matrix, operand)
    assert np.array_equal(product, expected, equal_nan=True)


def _random_closed_loop(rng: np.random.Generator, with_feedthrough: bool):
    """A random stable discrete-time closed loop (spectral radius < 1)."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    A = rng.standard_normal((n, n))
    radius = np.max(np.abs(np.linalg.eigvals(A)))
    A *= 0.85 / max(radius, 1e-9)
    plant = StateSpace(
        A,
        rng.standard_normal((n, p)),
        rng.standard_normal((m, n)),
        rng.standard_normal((m, p)) * 0.2 if with_feedthrough else None,
        R_v=np.eye(m) * 1e-4,
        dt=0.1,
    )
    return ClosedLoopSystem(
        plant,
        K=rng.standard_normal((p, n)) * 0.05,
        L=rng.standard_normal((n, m)) * 0.05,
        reference=rng.standard_normal(m) * 0.1,
        feedforward=rng.standard_normal((p, m)) * 0.1,
    )


class TestRandomizedSystems:
    """``batch_simulate`` ≡ the per-step batch oracle on seeded random loops.

    The generated sweep lives in ``tests/test_runtime_kernel_property.py``.
    """

    def test_feedthrough_plants_take_the_output_feed_rows(self, batch_oracle):
        # No packaged case study has D != 0; make sure the fused kernel's
        # feed-through block both exists and matches the oracle's output feed.
        rng = np.random.default_rng(1234)
        system = _random_closed_loop(rng, with_feedthrough=True)
        assert np.any(system.plant.D)
        N, T = 9, 40
        n = system.plant.n_states
        V = rng.standard_normal((N, T, system.plant.n_outputs)) * 1e-2
        oracle = batch_oracle(system, np.zeros((N, n)), np.zeros((N, n)), V)
        trace = batch_simulate(system, T, measurement_noise=V, n_instances=N)
        assert np.array_equal(oracle["measurements"], trace.measurements)
        assert np.array_equal(oracle["residues"], trace.residues)

    def test_single_instance_batch_is_bit_identical(self, batch_oracle):
        # batch_simulate's width-1 case: the fused kernel pads.
        rng = np.random.default_rng(77)
        system = _random_closed_loop(rng, with_feedthrough=True)
        plant = system.plant
        T = 30
        V = rng.standard_normal((1, T, plant.n_outputs)) * 1e-2
        x0 = rng.standard_normal((1, plant.n_states)) * 0.1
        oracle = batch_oracle(system, x0, np.zeros_like(x0), V)
        trace = batch_simulate(system, T, x0=x0, measurement_noise=V)
        for field, expected in oracle.items():
            assert np.array_equal(expected, getattr(trace, field)), field
