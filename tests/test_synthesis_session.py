"""Tests for the incremental synthesis-session engine.

The contract under test: a :class:`~repro.core.session.SynthesisSession`
builds the encoding once per problem and serves per-round solves whose
results are bit-identical to the one-encoding-per-call reference
(:class:`synthesis_oracle.PerCallSession`), across synthesis algorithms and
the relaxation pass.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthesis_oracle import PerCallSession, TwoPhaseLPBackend

from repro import get_case_study
from repro.api import SynthesisConfig, run_pipeline
from repro.core import encoding as encoding_module
from repro.core.attack_synthesis import synthesize_attack
from repro.core.encoding import AttackEncoding
from repro.core.pivot import PivotThresholdSynthesizer
from repro.core.relaxation import ThresholdRelaxer
from repro.core.session import WITNESS_SLACK, AttackSynthesisResult, SynthesisSession
from repro.core.static_synthesis import StaticThresholdSynthesizer
from repro.core.stepwise import StepwiseThresholdSynthesizer
from repro.core.synthesis_result import SynthesisRun
from repro.detectors.threshold import ThresholdVector
from repro.falsification.lp_backend import LPAttackBackend
from repro.utils.results import SolveStatus


def build_delta(fn):
    """Run ``fn`` and return (result, number of full encoding builds it made)."""
    before = encoding_module.encoding_build_count()
    result = fn()
    return result, encoding_module.encoding_build_count() - before


class TestSessionSolve:
    def test_matches_one_shot_without_detector(self, trajectory_problem):
        session = SynthesisSession(trajectory_problem, backend="lp")
        from_session = session.solve(None)
        one_shot = synthesize_attack(trajectory_problem, threshold=None, backend="lp")
        assert from_session.status == one_shot.status
        np.testing.assert_array_equal(
            from_session.attack.values, one_shot.attack.values
        )
        np.testing.assert_array_equal(
            from_session.residue_norms, one_shot.residue_norms
        )

    def test_matches_one_shot_with_threshold(self, trajectory_problem):
        threshold = trajectory_problem.static_threshold(1.0)
        session = SynthesisSession(trajectory_problem, backend="lp")
        from_session = session.solve(threshold)
        one_shot = synthesize_attack(
            trajectory_problem, threshold=threshold, backend="lp"
        )
        assert from_session.status == one_shot.status
        if one_shot.found:
            np.testing.assert_array_equal(
                from_session.attack.values, one_shot.attack.values
            )

    def test_encoding_built_once_across_rounds(self, trajectory_problem):
        def run():
            session = SynthesisSession(trajectory_problem, backend="lp")
            session.solve(None)
            session.solve(trajectory_problem.static_threshold(1.0))
            session.solve(trajectory_problem.static_threshold(0.5))
            return session

        session, builds = build_delta(run)
        assert builds == 1
        assert session.solves == 3

    def test_detector_free_query_is_memoised(self, trajectory_problem):
        session = SynthesisSession(trajectory_problem, backend="lp")
        first = session.solve(None)
        second = session.solve(None)
        # Cache hit: same solver answer (shared payload), fresh elapsed.
        assert second.status == first.status
        assert second.attack is first.attack
        assert second.elapsed < first.elapsed
        assert session.solves == 2

    def test_solver_accepts_backend_instance(self, trajectory_problem):
        backend = LPAttackBackend(margin_mode="none")
        session = SynthesisSession(trajectory_problem, backend=backend)
        assert session.solver is backend
        assert session.solve(None).found


def _synthesis_pass(cls):
    """Prepare ``cls(backend).synthesize`` as a function of the session."""

    def prepare(problem, backend):
        synthesizer = cls(backend=backend)
        return lambda session: synthesizer.synthesize(problem, session=session)

    return prepare


def _relaxation_pass(problem, backend):
    """Prepare the relaxation of a stepwise vector as a function of the session."""
    raw = StepwiseThresholdSynthesizer(backend=backend).synthesize(problem).threshold
    relaxer = ThresholdRelaxer(backend=backend)
    return lambda session: relaxer.relax(
        problem, raw, verify_input=True, session=session
    )


class TestSessionEquivalenceAcrossSynthesizers:
    """The session path and the per-call oracle must agree exactly."""

    @pytest.mark.parametrize(
        "problem_fixture, backend, prepare",
        [
            ("trajectory_problem", "lp", _synthesis_pass(PivotThresholdSynthesizer)),
            ("trajectory_problem", "lp", _synthesis_pass(StepwiseThresholdSynthesizer)),
            ("trajectory_problem", "lp", _synthesis_pass(StaticThresholdSynthesizer)),
            ("trajectory_problem", "lp", _relaxation_pass),
        ],
        ids=[
            "pivot",
            "stepwise",
            "static",
            "relax",
        ],
    )
    def test_identical_results_and_single_build(
        self, request, problem_fixture, backend, prepare
    ):
        problem = request.getfixturevalue(problem_fixture)
        run = prepare(problem, backend)
        legacy, legacy_builds = build_delta(
            lambda: run(PerCallSession(problem, backend=backend))
        )
        incremental, session_builds = build_delta(lambda: run(None))
        np.testing.assert_array_equal(
            legacy.threshold.values, incremental.threshold.values
        )
        assert legacy.rounds == incremental.rounds
        for verdict in ("status", "converged", "certified", "raised_instants"):
            assert getattr(legacy, verdict, None) == getattr(incremental, verdict, None)
        assert session_builds == 1
        assert legacy_builds == legacy.rounds

    def test_two_phase_margin_strategy_matches_single_lp(self, trajectory_problem):
        single = StepwiseThresholdSynthesizer(backend=LPAttackBackend()).synthesize(
            trajectory_problem
        )
        two_phase = StepwiseThresholdSynthesizer(
            backend=TwoPhaseLPBackend()
        ).synthesize(trajectory_problem)
        np.testing.assert_array_equal(
            single.threshold.values, two_phase.threshold.values
        )
        assert single.rounds == two_phase.rounds
        assert single.status == two_phase.status

    def test_injected_session_is_used(self, trajectory_problem):
        session = SynthesisSession(trajectory_problem, backend="lp")
        session.solve(None)
        solves_before = session.solves
        result = StepwiseThresholdSynthesizer(backend="lp").synthesize(
            trajectory_problem, session=session
        )
        assert result.converged
        assert session.solves > solves_before

    def test_relaxer_shares_session(self, trajectory_problem):
        synthesized = StepwiseThresholdSynthesizer(backend="lp").synthesize(
            trajectory_problem
        )

        def relax():
            return ThresholdRelaxer(backend="lp").relax(
                trajectory_problem, synthesized.threshold, verify_input=True
            )

        result, builds = build_delta(relax)
        assert result.certified
        assert builds == 1


# ----------------------------------------------------------------------
# Verdict queries answered from verified witnesses (SynthesisSession.decide).
# ----------------------------------------------------------------------
CASE_STUDIES = ("cruise", "dcmotor", "pendulum", "quadtank", "trajectory", "vsc")


def assert_sound_reuse(problem, threshold, result):
    """A reused verdict is SAT and its attack replays as a stealthy success."""
    assert result.status is SolveStatus.SAT
    assert result.verified
    trace = problem.simulate(
        attack=result.attack, with_noise=False, x0=result.initial_state
    )
    assert not problem.pfc_satisfied(trace)
    assert not problem.mdc_alarm(trace)
    assert not problem.detector_alarm(trace, threshold)


class ReplayCheckedSession(SynthesisSession):
    """Session that replays every reused verdict under its new threshold."""

    def __init__(self, problem, **kwargs):
        super().__init__(problem, **kwargs)
        self.hits = 0

    def decide(self, threshold=None, time_budget=None):
        result = super().decide(threshold, time_budget=time_budget)
        if result.diagnostics.get("reused_witness"):
            self.hits += 1
            assert_sound_reuse(self.problem, threshold, result)
        return result


def _same_outcome(expected, got):
    np.testing.assert_array_equal(expected.threshold.values, got.threshold.values)
    for name in (
        "rounds",
        "converged",
        "status",
        "certified",
        "raised_instants",
        "floored_instants",
    ):
        assert getattr(expected, name, None) == getattr(got, name, None), name


@pytest.fixture(scope="module")
def seeded_session(trajectory_problem):
    """A trajectory session that has already solved a few thresholds."""
    session = SynthesisSession(trajectory_problem)
    for value in (None, 1.0, 0.3):
        session.solve(None if value is None else trajectory_problem.static_threshold(value))
    return session


class TestWitnessReuse:
    @pytest.mark.parametrize("case", CASE_STUDIES)
    def test_static_and_relaxation_match_solve_every_query_oracle(self, case):
        """Static bisection and relaxation, with and without floor, field for field.

        The library session first runs stepwise synthesis, as the pipeline
        does, so its witness store is populated before the verdict queries.
        """
        problem = get_case_study(case).problem
        session = ReplayCheckedSession(problem)
        raw = StepwiseThresholdSynthesizer().synthesize(problem, session=session).threshold
        finite = raw.values[np.isfinite(raw.values)]
        floor = float(np.median(finite)) if finite.size else 1.0
        passes = {
            "static": lambda s: StaticThresholdSynthesizer().synthesize(problem, session=s),
            "relax": lambda s: ThresholdRelaxer().relax(problem, raw, session=s),
            "relax-floor": lambda s: ThresholdRelaxer(floor=floor).relax(
                problem, raw, session=s
            ),
        }
        oracle = PerCallSession(problem)
        for name, run in passes.items():
            _same_outcome(run(oracle), run(session))
        assert session.hits > 0

    def test_reused_verdict_costs_no_solve(self, trajectory_problem):
        session = SynthesisSession(trajectory_problem)
        witness = session.solve(None)
        margin = trajectory_problem.strictness + 2.0 * WITNESS_SLACK
        threshold = ThresholdVector(witness.residue_norms + margin)
        solves = session.solves
        result = session.decide(threshold)
        assert result.diagnostics["reused_witness"]
        assert result.attack is witness.attack
        assert session.solves == solves
        assert_sound_reuse(trajectory_problem, threshold, result)

    @pytest.mark.parametrize(
        "margin",
        [
            # Every stealth row keeps only half the required slack.
            lambda strictness: strictness + 0.5 * WITNESS_SLACK,
            # The slack is there, but the strictness margin is half missing.
            lambda strictness: WITNESS_SLACK + 0.5 * strictness,
        ],
        ids=["slack-short", "strictness-short"],
    )
    def test_witness_short_of_the_lp_condition_is_not_reused(
        self, trajectory_problem, margin
    ):
        assert trajectory_problem.strictness > 0
        session = SynthesisSession(trajectory_problem)
        witness = session.solve(None)
        threshold = ThresholdVector(
            witness.residue_norms + margin(trajectory_problem.strictness)
        )
        solves = session.solves
        result = session.decide(threshold)
        assert "reused_witness" not in result.diagnostics
        assert session.solves == solves + 1

    def test_unverified_answers_are_not_stored(self, trajectory_problem):
        session = SynthesisSession(trajectory_problem, verify=False)
        witness = session.solve(None)
        threshold = ThresholdVector(witness.residue_norms + 1.0)
        assert "reused_witness" not in session.decide(threshold).diagnostics

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reused_verdicts_are_sound_sat(self, seeded_session, data):
        """Property: a reused verdict is SAT, replays clean and a solve agrees."""
        session = seeded_session
        problem = session.problem
        scale = 10.0 ** data.draw(st.floats(-3.0, 0.5), label="log10 scale")
        shape = data.draw(
            st.lists(
                st.floats(0.5, 2.0), min_size=problem.horizon, max_size=problem.horizon
            ),
            label="shape",
        )
        threshold = ThresholdVector(scale * np.asarray(shape))
        result = session.decide(threshold)
        if result.diagnostics.get("reused_witness"):
            assert_sound_reuse(problem, threshold, result)
            assert PerCallSession(problem).solve(threshold).status is SolveStatus.SAT
        else:
            assert result.status is PerCallSession(problem).solve(threshold).status


class TestPipelineSessionSharing:
    def test_run_pipeline_builds_one_encoding_per_call(self, trajectory_problem):
        def run():
            return run_pipeline(
                trajectory_problem,
                synthesis=SynthesisConfig(
                    algorithms=("pivot", "stepwise", "static"), backend="lp"
                ),
            )

        report, builds = build_delta(run)
        assert builds == 1
        assert report.is_vulnerable
        assert set(report.synthesis) == {"pivot", "stepwise", "static"}

    def test_synthesizer_without_session_parameter_still_runs(self, trajectory_problem):
        """Plugin synthesizers predating the session protocol must keep working."""
        from repro.registry import SYNTHESIZERS

        class OldStyleSynthesizer:
            def __init__(self, backend="lp", **_):
                self.backend = backend

            def synthesize(self, problem):  # no session kwarg
                return StaticThresholdSynthesizer(backend=self.backend).synthesize(
                    problem
                )

        SYNTHESIZERS.register("old-style-test")(OldStyleSynthesizer)
        try:
            report = run_pipeline(
                trajectory_problem,
                synthesis=SynthesisConfig(algorithms=("old-style-test",), backend="lp"),
            )
            assert "old-style-test" in report.synthesis
        finally:
            SYNTHESIZERS.unregister("old-style-test")


class TestEncodingIncrementalStructure:
    def test_with_threshold_shares_static_blocks(self, trajectory_problem):
        encoding = AttackEncoding(problem=trajectory_problem, threshold=None)
        rebound = encoding.with_threshold(trajectory_problem.static_threshold(1.0))
        assert rebound.unrolling is encoding.unrolling
        assert rebound.stealth_template is encoding.stealth_template
        assert rebound.violation_branches() == encoding.violation_branches()

    def test_with_threshold_matches_fresh_build(self, trajectory_problem):
        threshold = trajectory_problem.static_threshold(0.7)
        fresh = AttackEncoding(problem=trajectory_problem, threshold=threshold)
        rebound = AttackEncoding(
            problem=trajectory_problem, threshold=None
        ).with_threshold(threshold)
        fresh_base = fresh.base_constraints()
        rebound_base = rebound.base_constraints()
        assert len(fresh_base) == len(rebound_base)
        for a, b in zip(fresh_base, rebound_base):
            np.testing.assert_array_equal(a.row, b.row)
            assert a.constant == b.constant
            assert a.label == b.label
            assert a.kind == b.kind

    def test_stealth_constraints_skip_unset_instances(self, trajectory_problem):
        encoding = AttackEncoding(problem=trajectory_problem, threshold=None)
        threshold = trajectory_problem.fresh_threshold()
        threshold.set_value(0, 1.0)
        constraints = encoding.stealth_constraints(threshold)
        # Only instance 0 carries a threshold: one +/- pair per channel.
        assert len(constraints) == 2 * trajectory_problem.n_outputs
        assert all(c.kind == "stealth" for c in constraints)

    def test_template_row_order_matches_legacy_emission(self, trajectory_problem):
        encoding = AttackEncoding(problem=trajectory_problem, threshold=None)
        template = encoding.stealth_template
        m = trajectory_problem.n_outputs
        assert template.n_rows == 2 * trajectory_problem.horizon * m
        assert template.labels[0] == "stealth[z0@0]<Th"
        assert template.labels[1] == "stealth[-z0@0]<Th"
        np.testing.assert_array_equal(
            template.sample_index[: 2 * m], np.zeros(2 * m, dtype=int)
        )


# ----------------------------------------------------------------------
# Satellite: min_area_rectangle and the stepwise phase-2 degenerate branch.
# ----------------------------------------------------------------------
from repro.core.stepwise import min_area_rectangle  # noqa: E402


class TestMinAreaRectangle:
    def test_all_infinite_thresholds_return_none(self):
        threshold = ThresholdVector.unset(5)
        assert min_area_rectangle(np.full(5, 0.1), threshold) is None

    def test_floor_blocks_every_cut(self):
        threshold = ThresholdVector.static(0.5, 4)
        norms = np.full(4, 0.1)
        assert min_area_rectangle(norms, threshold, floor=0.5) is None
        # A floor *above* the thresholds blocks as well.
        assert min_area_rectangle(norms, threshold, floor=0.9) is None

    def test_attack_touching_every_threshold_returns_none(self):
        threshold = ThresholdVector.static(0.5, 4)
        assert min_area_rectangle(np.full(4, 0.5), threshold) is None

    def test_picks_cheapest_tail(self):
        threshold = ThresholdVector(np.array([1.0, 1.0, 0.5, 0.5]))
        norms = np.array([0.2, 0.95, 0.2, 0.4])
        # Cutting from 1 removes only (1.0 - 0.95); every other cut removes more.
        assert min_area_rectangle(norms, threshold) == 1

    def test_partial_staircase_ignores_unset_tail(self):
        values = np.array([1.0, 0.8, np.inf, np.inf])
        threshold = ThresholdVector(values)
        index = min_area_rectangle(np.array([0.3, 0.7, 0.1, 0.2]), threshold)
        assert index == 1


class _ScriptedSession:
    """Stands in for a SynthesisSession: scripted results, and a log of the queries."""

    def __init__(self, results):
        self._results = list(results)
        self.queries = []

    def solve(self, threshold=None, time_budget=None, verify=None):
        self.queries.append(("solve", time_budget))
        return self._results.pop(0)

    def decide(self, threshold=None, time_budget=None):
        self.queries.append(("decide", time_budget))
        return self._results.pop(0)


def _sat(norms=(), elapsed=0.0):
    return AttackSynthesisResult(
        status=SolveStatus.SAT, residue_norms=np.asarray(norms, dtype=float), elapsed=elapsed
    )


def _unsat(elapsed=0.0):
    return AttackSynthesisResult(status=SolveStatus.UNSAT, elapsed=elapsed)


class TestSynthesisRun:
    """The Algorithm 1 round ledger every synthesis loop runs on, on scripted rounds."""

    def test_opens_a_session_only_when_none_is_passed(self, small_dcmotor_problem):
        run = SynthesisRun(small_dcmotor_problem, "pivot")
        assert isinstance(run.session, SynthesisSession)
        scripted = _ScriptedSession([])
        assert SynthesisRun(small_dcmotor_problem, "pivot", session=scripted).session is scripted

    def test_counts_rounds_and_solver_time_and_passes_the_budget(self, small_dcmotor_problem):
        session = _ScriptedSession([_sat(elapsed=0.5), _unsat(elapsed=0.25)])
        run = SynthesisRun(small_dcmotor_problem, "x", session=session, time_budget=7.0)
        run.solve(None)
        run.decide(small_dcmotor_problem.static_threshold(1.0))
        assert run.rounds == 2
        assert run.solver_time == 0.75
        assert session.queries == [("solve", 7.0), ("decide", 7.0)]

    def test_not_vulnerable_exit(self, small_dcmotor_problem):
        run = SynthesisRun(small_dcmotor_problem, "pivot", session=_ScriptedSession([_unsat()]))
        assert run.open() is None
        result = run.result(small_dcmotor_problem.fresh_threshold())
        assert (result.rounds, result.status, result.converged) == (1, SolveStatus.UNSAT, True)
        assert not result.vulnerable_without_detector
        assert result.history == []
        assert result.algorithm == "pivot"

    def test_no_loop_round_leaves_status_unknown(self, small_dcmotor_problem):
        session = _ScriptedSession([_sat(np.ones(small_dcmotor_problem.horizon))])
        result = PivotThresholdSynthesizer(max_rounds=1).synthesize(
            small_dcmotor_problem, session=session
        )
        assert (result.rounds, result.status, result.converged) == (1, SolveStatus.UNKNOWN, False)
        assert result.vulnerable_without_detector
        assert [record.round_index for record in result.history] == [1]

    def test_blocked_refinement_stops_unknown(self, small_dcmotor_problem):
        threshold = small_dcmotor_problem.static_threshold(1.0)
        session = _ScriptedSession([_sat(np.ones(small_dcmotor_problem.horizon))] * 3)
        run = SynthesisRun(small_dcmotor_problem, "x", session=session, max_rounds=5)
        run.refine(threshold, lambda norms: "no-op")
        assert run.rounds == 1
        assert run.status is SolveStatus.UNKNOWN
        assert [record.action for record in run.history] == ["no-op"]

    def test_refine_stops_on_unsat_and_at_the_cap(self, small_dcmotor_problem):
        zeros = np.zeros(small_dcmotor_problem.horizon)

        def lower(threshold):
            def rule(norms):
                threshold.values -= 0.1
                return "lower"

            return rule

        threshold = small_dcmotor_problem.static_threshold(1.0)
        session = _ScriptedSession([_sat(zeros), _unsat()])
        run = SynthesisRun(small_dcmotor_problem, "x", session=session, max_rounds=9)
        run.refine(threshold, lower(threshold))
        assert (run.rounds, run.status) == (2, SolveStatus.UNSAT)
        assert [record.round_index for record in run.history] == [1]
        run.refine(threshold, lower(threshold))  # an UNSAT run asks nothing more
        assert run.rounds == 2

        threshold = small_dcmotor_problem.static_threshold(1.0)
        session = _ScriptedSession([_sat(zeros)] * 3)
        run = SynthesisRun(small_dcmotor_problem, "x", session=session, max_rounds=3)
        run.refine(threshold, lower(threshold))
        # The cap ends the loop right after a refinement: no round has judged
        # the refined threshold, so the run is UNKNOWN.
        assert (run.rounds, run.status) == (3, SolveStatus.UNKNOWN)

    def test_each_record_is_logged_at_debug(self, small_dcmotor_problem, caplog):
        run = SynthesisRun(small_dcmotor_problem, "stepwise", session=_ScriptedSession([_sat()]))
        run.solve(None)
        with caplog.at_level(logging.DEBUG, logger="repro.core.synthesis_result"):
            run.record("initial step", None)
        assert [r.getMessage() for r in caplog.records] == ["stepwise round 1: initial step"]
        assert caplog.records[0].levelno == logging.DEBUG


class TestStepwiseDegenerateBranches:
    """The phase-2 fallbacks of src/repro/core/stepwise.py on scripted rounds."""

    def test_degenerate_cut_lowers_by_strictness(self, small_dcmotor_problem):
        problem = small_dcmotor_problem
        horizon = problem.horizon
        peak = np.zeros(horizon)
        peak[-1] = 0.5  # initial step covers the whole horizon: phase 1 skipped
        session = _ScriptedSession(
            [_sat(peak), _sat(np.full(horizon, 0.5)), _unsat()]
        )
        result = StepwiseThresholdSynthesizer(backend="lp").synthesize(
            problem, session=session
        )
        assert result.converged
        assert result.rounds == 3
        expected = 0.5 - problem.strictness
        np.testing.assert_allclose(result.threshold.values, expected)
        assert any("phase-2 cut" in record.action for record in result.history)

    def test_floor_blocked_degenerate_cut_stops_without_progress(
        self, small_dcmotor_problem
    ):
        problem = small_dcmotor_problem
        horizon = problem.horizon
        peak = np.zeros(horizon)
        peak[-1] = 0.5
        session = _ScriptedSession([_sat(peak), _sat(np.full(horizon, 0.5))])
        result = StepwiseThresholdSynthesizer(
            backend="lp", min_threshold=0.5
        ).synthesize(problem, session=session)
        # The floor equals the staircase height: the degenerate cut cannot
        # lower anything, so the loop must exit with UNKNOWN, not spin.
        assert not result.converged
        assert result.status is SolveStatus.UNKNOWN
        assert result.rounds == 2
        np.testing.assert_allclose(result.threshold.values, 0.5)

    def test_min_area_floor_block_triggers_degenerate_branch(
        self, small_dcmotor_problem
    ):
        problem = small_dcmotor_problem
        horizon = problem.horizon
        peak = np.zeros(horizon)
        peak[-1] = 0.5
        # Norms strictly below the staircase, but the floor sits at the
        # staircase height: min_area_rectangle returns None and the
        # degenerate branch is also blocked -> no-progress exit.
        session = _ScriptedSession([_sat(peak), _sat(np.full(horizon, 0.1))])
        result = StepwiseThresholdSynthesizer(
            backend="lp", min_threshold=0.5
        ).synthesize(problem, session=session)
        assert result.status is SolveStatus.UNKNOWN
        np.testing.assert_allclose(result.threshold.values, 0.5)
