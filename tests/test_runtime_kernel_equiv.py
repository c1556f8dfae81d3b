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
    report, trace, events = run
    for field in TRACE_FIELDS:
        left, right = getattr(oracle.trace, field), getattr(trace, field)
        assert np.array_equal(left, right), f"trace field {field!r} diverged"
    assert oracle.events == events, "alarm event streams diverged"
    assert report.n_attacked == oracle.n_attacked
    assert set(report.detectors) == set(oracle.stats)
    for label in oracle.stats:
        assert (
            report.detectors[label].to_dict() == oracle.stats[label]
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


BLOCK = runner.BLOCK_STEPS
BLOCK_HORIZONS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5)


def _block_simulator(problem, sink, *, horizon, start, n_instances, record):
    """A fleet with every per-block input on: process noise, an initial-state
    spread, a scheduled attack and a measurement-consuming plant monitor."""
    return FleetSimulator(
        problem.system,
        n_instances,
        horizon,
        detectors=_detector_bank(problem),
        include_process_noise=True,
        x0=problem.x0,
        x0_spread=np.full(problem.system.plant.n_states, 0.05),
        attacks=[ScheduledAttack(BiasAttack(bias=0.4), fraction=0.3, start=start)],
        sinks=[] if sink is None else [sink],
        seed=5,
        record_traces=record,
        metrics=False,
    )


class TestBlockBoundaries:
    """Horizons and attack starts on either side of the loop's block edges.

    The loop steps ``BLOCK_STEPS`` steps per block and chains the detector
    passes across blocks, so a run of ``B - 1``, ``B``, ``B + 1`` or
    ``2B + 5`` steps, or an attack that starts on a block edge, must still
    match the per-step oracle exactly, with and without recorded traces.
    """

    def _check(self, fleet_oracle, problem, *, horizon, start, record, n_instances=37):
        options = dict(horizon=horizon, start=start, n_instances=n_instances)
        assert "mdc" in _detector_bank(problem)
        sink = InMemorySink()
        simulator = _block_simulator(problem, sink, record=record, **options)
        report = simulator.run()
        oracle = fleet_oracle(_block_simulator(problem, None, record=record, **options))
        if record:
            _assert_matches_oracle(oracle, (report, simulator.trace, list(sink.events)))
            return
        assert simulator.trace is None
        assert list(sink.events) == oracle.events
        assert report.n_attacked == oracle.n_attacked
        assert {label: s.to_dict() for label, s in report.detectors.items()} == oracle.stats

    @pytest.mark.parametrize("record", [False, True], ids=["lanes", "recorded"])
    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    @pytest.mark.parametrize("name", ["dcmotor", "quadtank"])
    def test_horizons_around_block_edges(self, problems, fleet_oracle, name, horizon, record):
        self._check(
            fleet_oracle, problems[name], horizon=horizon, start=horizon // 4, record=record
        )

    @pytest.mark.parametrize("record", [False, True], ids=["lanes", "recorded"])
    @pytest.mark.parametrize("start", [BLOCK - 1, BLOCK], ids=["edge-1", "edge"])
    @pytest.mark.parametrize("name", ["dcmotor", "quadtank"])
    def test_attack_starting_on_a_block_edge(self, problems, fleet_oracle, name, start, record):
        self._check(
            fleet_oracle, problems[name], horizon=2 * BLOCK + 5, start=start, record=record
        )

    @pytest.mark.parametrize("fallback", [False, True], ids=["kernel", "fallback"])
    @pytest.mark.parametrize("record", [False, True], ids=["lanes", "recorded"])
    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    def test_single_instance_pad_across_blocks(
        self, problems, fleet_oracle, monkeypatch, horizon, record, fallback
    ):
        if fallback:
            monkeypatch.setattr(runner, "probe_fused_equivalence", lambda *args: False)
        self._check(
            fleet_oracle,
            problems["dcmotor"],
            horizon=horizon,
            start=horizon // 4,
            record=record,
            n_instances=1,
        )

    @pytest.mark.parametrize("n_instances", [1, 9])
    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    def test_batch_simulate_across_block_edges(self, batch_oracle, horizon, n_instances):
        rng = np.random.default_rng(horizon)
        system = _random_closed_loop(rng, with_feedthrough=True)
        plant = system.plant
        N, T, n, m = n_instances, horizon, plant.n_states, plant.n_outputs
        x0 = rng.standard_normal((N, n)) * 0.1
        V = rng.standard_normal((N, T, m)) * 1e-2
        W = rng.standard_normal((N, T, n)) * 1e-2
        A = np.zeros((N, T, m))
        A[:, min(BLOCK - 1, T - 1) :] = 0.3
        oracle = batch_oracle(system, x0, np.zeros_like(x0), V, W, A)
        trace = batch_simulate(
            system, T, x0=x0, measurement_noise=V, process_noise=W, attacks=A
        )
        for field, expected in oracle.items():
            assert np.array_equal(expected, getattr(trace, field)), field
