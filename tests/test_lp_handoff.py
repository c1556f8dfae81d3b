"""The direct HiGHS hand-off against ``scipy.optimize.linprog``.

The LP backend passes each assembled CSC matrix straight to HiGHS
(:mod:`repro.falsification._highs`).  The contract: for every LP, the same
status, a bit-identical ``x`` and the same simplex iteration count as
``linprog(method=...)`` on the same data — checked on every LP of the VSC
and cruise pipelines, on generated small LPs (infeasible and unbounded ones
included) and on one non-default HiGHS solver — plus the post-solve screen,
the ``method`` validation, the time budget inside an LP, and the import
requirement.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from synthesis_oracle import LinprogLPBackend

from repro import get_case_study
from repro.api import SynthesisConfig, run_pipeline
from repro.core.session import SynthesisSession
from repro.core.unroll import AffineConstraint
from repro.falsification import _highs
from repro.falsification.lp_backend import LPAttackBackend, _Budget
from repro.utils.results import SolveStatus
from repro.utils.validation import ValidationError


class _Recording:
    """Records every LP a backend solves and the answer it got."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def _lp(self, cost, matrix, b_ub, bounds, time_limit):
        answer = super()._lp(cost, matrix, b_ub, bounds, time_limit)
        self.calls.append((cost, matrix, b_ub, bounds, time_limit, answer))
        return answer


class RecordingLPBackend(_Recording, LPAttackBackend):
    """The library LP backend, recording each LP it hands to HiGHS."""


class RecordingLinprogBackend(_Recording, LinprogLPBackend):
    """The ``linprog`` oracle backend, recording each LP."""


def assert_same_answer(direct, reference):
    status, x, iterations = direct
    ref_status, ref_x, ref_iterations = reference
    assert status == ref_status
    # The same simplex iteration count: HiGHS took the same path.
    assert iterations == ref_iterations
    if ref_x is None:
        assert x is None
    else:
        np.testing.assert_array_equal(x, ref_x)


@pytest.mark.parametrize("case", ["vsc", "cruise"])
def test_every_pipeline_lp_matches_linprog(case):
    problem = get_case_study(case).problem
    backend = RecordingLPBackend()
    run_pipeline(
        problem,
        SynthesisConfig(
            algorithms=("pivot", "stepwise", "static"), backend="lp", relax={"floor": 1.0}
        ),
        backend=backend,
    )
    oracle = LinprogLPBackend()
    assert len(backend.calls) > 40
    for cost, matrix, b_ub, bounds, time_limit, answer in backend.calls:
        assert time_limit is None
        assert_same_answer(answer, oracle._lp(cost, matrix, b_ub, bounds, None))


def test_non_default_method_matches_linprog(trajectory_problem):
    backend = RecordingLPBackend(method="highs-ds")
    session = SynthesisSession(trajectory_problem, backend=backend)
    session.solve(None)
    session.solve(trajectory_problem.static_threshold(1.0))
    session.solve(trajectory_problem.static_threshold(0.01))
    oracle = LinprogLPBackend(method="highs-ds")
    assert backend.calls
    for cost, matrix, b_ub, bounds, _, answer in backend.calls:
        assert_same_answer(answer, oracle._lp(cost, matrix, b_ub, bounds, None))


@pytest.mark.parametrize(
    "method, solver", [("highs", None), ("highs-ds", "simplex"), ("highs-ipm", "ipm")]
)
def test_method_maps_to_highs_solver(method, solver):
    assert LPAttackBackend(method=method).method == method
    assert _highs.HIGHS_SOLVERS[method] == solver


@pytest.mark.parametrize("method", ["simplex", "interior-point", "HiGHS-ds", "glpk"])
def test_unknown_method_is_rejected(method):
    with pytest.raises(ValidationError, match="method"):
        LPAttackBackend(method=method)
    with pytest.raises(ValidationError, match="method"):
        SynthesisConfig(backend="lp", backend_options={"method": method}).build_backend()


def test_status_map_matches_scipy_for_every_model_status():
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    core, statuses = _highs._highs_core()
    members = core.HighsModelStatus.__members__.values()
    assert len(members) > 10
    for model_status in members:
        expected = _highs_to_scipy_status_message(model_status, "")[0]
        assert statuses.get(model_status, 4) == expected, model_status


# ----------------------------------------------------------------------
# Generated small LPs.
# ----------------------------------------------------------------------
_coefficient = st.integers(-3, 3).map(float)


@st.composite
def small_lps(draw):
    """A dense LP of up to 4 columns and 5 rows, with integer data.

    Integer data makes ties, degenerate vertices, infeasible systems and
    unbounded directions common; a free column with a nonzero cost and no
    row touching it makes an unbounded LP certain.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    A = np.array(draw(st.lists(_coefficient, min_size=m * n, max_size=m * n))).reshape(m, n)
    b = np.array(draw(st.lists(st.integers(-4, 4).map(float), min_size=m, max_size=m)))
    cost = np.array(draw(st.lists(_coefficient, min_size=n, max_size=n)))
    lower = np.array(
        draw(st.lists(st.sampled_from([-np.inf, -2.0, 0.0]), min_size=n, max_size=n))
    )
    upper = np.array(
        draw(st.lists(st.sampled_from([np.inf, 1.0, 3.0]), min_size=n, max_size=n))
    )
    if draw(st.booleans()):
        A[:, 0] = 0.0
        lower[0], upper[0], cost[0] = -np.inf, np.inf, 1.0
    return cost, A, b, lower, upper


@settings(max_examples=150, deadline=None)
@given(small_lps())
def test_generated_lps_match_linprog(lp):
    cost, A, b, lower, upper = lp
    matrix = sparse.csc_matrix(A)
    direct = _highs.solve_lp(cost, matrix, b, lower, upper)
    reference = LinprogLPBackend()._lp(cost, matrix, b, (lower, upper), None)
    assert_same_answer(direct, reference)


def test_generated_lps_cover_every_outcome():
    """The generator reaches optimal, infeasible and unbounded LPs."""
    outcomes = set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(small_lps())
    def collect(lp):
        cost, A, b, lower, upper = lp
        outcomes.add(_highs.solve_lp(cost, sparse.csc_matrix(A), b, lower, upper)[0])

    collect()
    assert {0, 2, 3} <= outcomes


def test_unbounded_feasibility_lp_takes_the_status_3_fallback():
    """An unbounded feasibility LP recovers a point from a zero-cost LP."""
    # One free variable x: x <= 1 (base row) and the branch row x <= 1e6.
    # Minimising the branch row x is unbounded below.
    branch = AffineConstraint(row=np.array([1.0]), constant=-1e6, label="branch")
    A_ub = sparse.csc_matrix(np.array([[1.0], [1.0]]))
    b_ub = np.array([1.0, 1e6])
    bounds = (np.array([-np.inf]), np.array([np.inf]))
    runs = []
    for backend in (RecordingLPBackend(margin_mode="none"), RecordingLinprogBackend(margin_mode="none")):
        theta = backend._feasibility_then_margin(A_ub, b_ub, 0, bounds, branch, _Budget(None))
        runs.append((theta, [answer[0] for *_, answer in backend.calls]))
    (theta, statuses), (ref_theta, ref_statuses) = runs
    assert statuses == ref_statuses == [3, 0]
    assert theta is not None and theta[0] <= 1.0
    np.testing.assert_array_equal(theta, ref_theta)


# ----------------------------------------------------------------------
# The post-solve screen (scipy's _check_result).
# ----------------------------------------------------------------------
class TestScreen:
    lower = np.array([0.0, -np.inf])
    upper = np.array([1.0, np.inf])
    tol = _highs.SCREEN_TOLERANCE

    def screen(self, x, fun=0.0, slack=(0.0,), status=0):
        return _highs.screen(
            status, np.asarray(x, float), fun, np.asarray(slack, float), self.lower, self.upper
        )

    def test_feasible_optimum_stays_0(self):
        assert self.screen([0.5, -7.0], slack=[0.0, 2.0]) == 0

    def test_violation_within_tolerance_stays_0(self):
        assert self.screen([1.0 + 0.5 * self.tol, 0.0], slack=[-0.5 * self.tol]) == 0

    @pytest.mark.parametrize(
        "x, fun, slack",
        [
            ([np.nan, 0.0], 0.0, [0.0]),
            ([0.5, 0.0], np.nan, [0.0]),
            ([0.5, 0.0], 0.0, [np.nan]),
            ([1.0 + 2.0 * _highs.SCREEN_TOLERANCE, 0.0], 0.0, [0.0]),
            ([-2.0 * _highs.SCREEN_TOLERANCE, 0.0], 0.0, [0.0]),
            ([0.5, 0.0], 0.0, [1.0, -2.0 * _highs.SCREEN_TOLERANCE]),
        ],
        ids=["nan-x", "nan-fun", "nan-slack", "above-upper", "below-lower", "row"],
    )
    def test_optimum_that_misses_a_constraint_becomes_4(self, x, fun, slack):
        assert self.screen(x, fun=fun, slack=slack) == 4

    @pytest.mark.parametrize("status", [1, 2, 3, 4])
    def test_other_statuses_pass_through(self, status):
        assert self.screen([np.nan, 0.0], status=status) == status


# ----------------------------------------------------------------------
# time_budget inside an LP solve.
# ----------------------------------------------------------------------
def test_tiny_budget_stops_inside_the_lp():
    problem = get_case_study("vsc").problem
    backend = RecordingLPBackend()
    session = SynthesisSession(problem, backend=backend)
    threshold = problem.static_threshold(5.0)
    full = session.solve(threshold)
    assert full.found
    assert all(call[4] is None for call in backend.calls)
    # Same threshold again: the matrices are cached, so the budget reaches
    # the first LP (tens of ms on VSC), which HiGHS stops at its time limit.
    backend.calls.clear()
    stopped = session.solve(threshold, time_budget=5e-3)
    assert stopped.status is SolveStatus.UNKNOWN
    assert stopped.diagnostics["reason"] == "time budget"
    assert len(backend.calls) == 1
    (_, _, _, _, time_limit, (status, x, _)) = backend.calls[0]
    assert 0.0 < time_limit <= 5e-3
    assert status == 1 and x is None


def test_spent_budget_returns_unknown_before_any_lp(trajectory_problem):
    backend = RecordingLPBackend()
    session = SynthesisSession(trajectory_problem, backend=backend)
    result = session.solve(trajectory_problem.static_threshold(1.0), time_budget=0.0)
    assert result.status is SolveStatus.UNKNOWN
    assert backend.calls == []


# ----------------------------------------------------------------------
# Import requirement.
# ----------------------------------------------------------------------
def test_missing_highs_bindings_name_the_requirement(monkeypatch):
    import scipy.optimize._highspy as highspy

    _highs._highs_core.cache_clear()
    # Hide the bindings both from the import system and as an attribute of
    # their (already imported) package.
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.delattr(highspy, "_core")
    try:
        with pytest.raises(ImportError, match=r"scipy>=1\.17\.1"):
            _highs.solve_lp(
                np.zeros(1), sparse.csc_matrix(np.ones((1, 1))), np.ones(1),
                np.zeros(1), np.ones(1),
            )
    finally:
        _highs._highs_core.cache_clear()
