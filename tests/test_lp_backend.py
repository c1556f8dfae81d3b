"""The LP backend as the decision procedure of Algorithm 1, on every case study.

The LP backend is the only complete backend, so its verdicts are checked
here against properties that do not depend on how it solves:

* soundness of SAT: the witness satisfies every encoded base row, breaks a
  ``pfc`` branch, and its noiseless replay violates ``pfc`` with no monitor
  or detector alarm;
* the encoding and the replay agree on the residues the witness produces;
* monotonicity in the threshold: a larger threshold never turns SAT into
  UNSAT, and a witness stays stealthy under every larger threshold;
* a session round leaves no state behind that changes a later answer;
* the solver strategy (margin mode, HiGHS method) changes the witness, never
  the verdict.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from repro import get_case_study
from repro.core.encoding import AttackEncoding
from repro.core.session import SynthesisSession
from repro.falsification.lp_backend import LPAttackBackend
from repro.utils.results import SolveStatus

CASES = ["cruise", "dcmotor", "pendulum", "quadtank", "trajectory", "vsc"]

#: Static threshold levels, ascending; every case study is UNSAT at the low
#: end (``0`` leaves no room for a strict stealth row) and SAT at the top.
LEVELS = (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3)


@cache
def _problem(case):
    return get_case_study(case).problem


@cache
def _encoding(case):
    return AttackEncoding(problem=_problem(case), threshold=None)


def _threshold(case, level):
    return None if level is None else _problem(case).static_threshold(level)


def _answer(case, level, **backend_kwargs):
    """A fresh LP session's answer at one static threshold level."""
    session = LPAttackBackend(**backend_kwargs).open_session(_encoding(case))
    return session.solve(_threshold(case, level))


def _ladder(case, **backend_kwargs):
    """Status per level of :data:`LEVELS`, one fresh session each."""
    return [_answer(case, level, **backend_kwargs).status for level in LEVELS]


def _least_sat_level(case):
    statuses = _ladder(case)
    return LEVELS[statuses.index(SolveStatus.SAT)]


def _stealth_slack(case, level, theta):
    """Least slack ``Th[k] - (row·theta + c)`` over the emitted stealth rows."""
    problem = _problem(case)
    template = _encoding(case).stealth_template
    bounds = template.bounds_per_row(_threshold(case, level).effective(problem.horizon))
    return float(np.min(bounds - (template.rows @ theta + template.constants)))


def _branch_value(branch, theta):
    return float(branch.row @ theta) + branch.constant


@pytest.mark.parametrize("case", CASES)
class TestVerdicts:
    def test_detector_free_query_finds_a_verified_attack(self, case):
        result = SynthesisSession(_problem(case), backend="lp").solve(None)
        assert result.status is SolveStatus.SAT
        assert result.verified

    def test_zero_threshold_admits_no_stealthy_attack(self, case):
        answer = _answer(case, 0.0)
        assert answer.status is SolveStatus.UNSAT
        assert answer.theta is None
        assert answer.diagnostics["branches_explored"] == len(
            _encoding(case).violation_branches()
        )

    def test_verdict_is_monotone_in_the_threshold(self, case):
        statuses = _ladder(case)
        assert statuses[0] is SolveStatus.UNSAT
        assert statuses[-1] is SolveStatus.SAT
        first_sat = statuses.index(SolveStatus.SAT)
        assert all(status is SolveStatus.SAT for status in statuses[first_sat:])
        assert all(status is SolveStatus.UNSAT for status in statuses[:first_sat])

    def test_every_sat_verdict_replays_as_a_stealthy_attack(self, case):
        problem = _problem(case)
        session = SynthesisSession(problem, backend="lp")
        for level in LEVELS:
            threshold = _threshold(case, level)
            result = session.solve(threshold)
            if not result.found:
                continue
            assert result.verified, level
            assert not problem.pfc_satisfied(result.trace)
            assert not problem.mdc_alarm(result.trace)
            assert not problem.detector_alarm(result.trace, threshold)


@pytest.mark.parametrize("case", CASES)
class TestWitness:
    def test_witness_satisfies_every_base_row_and_one_branch(self, case):
        level = LEVELS[-1]
        answer = _answer(case, level)
        encoding = _encoding(case).with_threshold(_threshold(case, level))
        assert answer.status is SolveStatus.SAT
        assert encoding.theta_satisfies_base(answer.theta)
        tolerance = LPAttackBackend().tolerance
        assert min(
            _branch_value(branch, answer.theta) for branch in encoding.violation_branches()
        ) <= tolerance

    def test_reported_branch_is_the_one_the_witness_breaks(self, case):
        answer = _answer(case, LEVELS[-1])
        (branch,) = [
            branch
            for branch in _encoding(case).violation_branches()
            if branch.label == answer.diagnostics["branch"]
        ]
        assert _branch_value(branch, answer.theta) <= LPAttackBackend().tolerance

    def test_witness_stays_stealthy_under_every_larger_threshold(self, case):
        level = _least_sat_level(case)
        theta = _answer(case, level).theta
        for larger in LEVELS[LEVELS.index(level) :]:
            encoding = _encoding(case).with_threshold(_threshold(case, larger))
            assert encoding.theta_satisfies_base(theta), larger

    def test_encoded_residues_match_the_replayed_trace(self, case):
        problem = _problem(case)
        unrolling = _encoding(case).unrolling
        theta = _answer(case, _least_sat_level(case)).theta
        trace = problem.simulate(
            attack=unrolling.attack_from_theta(theta),
            with_noise=False,
            x0=unrolling.initial_state_from_theta(theta),
        )
        template = _encoding(case).stealth_template
        encoded = np.full(problem.horizon, -np.inf)
        np.maximum.at(encoded, template.sample_index, template.rows @ theta + template.constants)
        replayed = problem.residue_norms(trace.residues)
        np.testing.assert_allclose(encoded, replayed, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("case", CASES)
class TestSessionRounds:
    def test_rounds_are_order_independent(self, case):
        backend = LPAttackBackend()
        levels = (None, *LEVELS)
        ascending = backend.open_session(_encoding(case))
        descending = backend.open_session(_encoding(case))
        up = {level: ascending.solve(_threshold(case, level)) for level in levels}
        down = {level: descending.solve(_threshold(case, level)) for level in reversed(levels)}
        for level in levels:
            assert up[level].status is down[level].status, level
            if up[level].theta is None:
                assert down[level].theta is None
            else:
                np.testing.assert_array_equal(up[level].theta, down[level].theta)

    def test_one_shot_solve_matches_a_session_round(self, case):
        backend = LPAttackBackend()
        session = backend.open_session(_encoding(case))
        for level in (None, LEVELS[1], LEVELS[-1]):
            threshold = _threshold(case, level)
            one_shot = backend.solve(_encoding(case).with_threshold(threshold))
            round_answer = session.solve(threshold)
            assert one_shot.status is round_answer.status
            if one_shot.theta is not None:
                np.testing.assert_array_equal(one_shot.theta, round_answer.theta)


@pytest.mark.parametrize("case", CASES)
class TestStrategies:
    def test_margin_modes_agree_on_every_verdict(self, case):
        assert _ladder(case, margin_mode="none") == _ladder(case)

    def test_dual_simplex_agrees_on_every_verdict(self, case):
        assert _ladder(case, method="highs-ds") == _ladder(case)

    def test_interior_point_agrees_on_every_verdict(self, case):
        assert _ladder(case, method="highs-ipm") == _ladder(case)

    def test_max_margin_witness_is_at_least_as_stealthy(self, case):
        level = _least_sat_level(case)
        widest = _answer(case, level).theta
        plain = _answer(case, level, margin_mode="none").theta
        assert _stealth_slack(case, level, widest) >= _stealth_slack(case, level, plain) - 1e-9
