"""One LP straight into HiGHS, answered the way ``scipy.optimize.linprog`` answers it.

The LP backend's matrices arrive already assembled as canonical CSC, so
``linprog``'s front end (input cleaning, re-stacking, an element-by-element
copy of the matrix into a ``HighsLp``) is pure overhead: about 10 ms on a
~45 ms VSC solve.  :func:`solve_lp` hands the CSC arrays to the HiGHS object
scipy ships through its array ``passModel`` overload, sets exactly the
options ``linprog(method=...)`` sets, and maps the outcome to ``linprog``'s
status codes — 0 optimal, 1 time/iteration limit, 2 infeasible, 3 unbounded,
4 numerical trouble — including the post-solve feasibility screen
(:func:`screen`).  The HiGHS core sees the same model and options either
way, so it returns the same vertex.

scipy ships the bindings as the private ``scipy.optimize._highspy._core``;
it is imported on the first solve, so ``import repro`` stays free of
``scipy.optimize``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

#: ``linprog`` method -> HiGHS ``solver`` option (``None``: HiGHS chooses).
HIGHS_SOLVERS = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}

#: ``linprog``'s post-solve tolerance: ``10 * sqrt(tol)`` with its default
#: ``tol = 1e-9``.
SCREEN_TOLERANCE = 10.0 * np.sqrt(1e-9)

_REQUIREMENT = "scipy>=1.17.1"


@cache
def _highs_core():
    """The HiGHS bindings scipy ships and their status map, imported on first use."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError as error:
        raise ImportError(
            f"the LP backend needs {_REQUIREMENT}: it passes each model through "
            "the array passModel overload of scipy.optimize._highspy._core"
        ) from error
    # HiGHS model status -> linprog status, as _highs_to_scipy_status_message;
    # every status not listed (load, presolve, solve and postsolve errors,
    # an empty model, objective bound/target, unbounded-or-infeasible) is 4.
    status = _core.HighsModelStatus
    return _core, {
        status.kOptimal: 0,
        status.kTimeLimit: 1,
        status.kIterationLimit: 1,
        status.kInfeasible: 2,
        status.kModelError: 2,
        status.kUnbounded: 3,
    }


def screen(
    status: int,
    x: np.ndarray,
    fun: float,
    slack: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> int:
    """``linprog``'s ``_check_result``: an optimum that misses a bound or row becomes 4.

    Status 0 turns into 4 when ``x``, the objective or the row slack
    ``b_ub - A_ub @ x`` holds a NaN, or when a bound or a row is violated
    by more than :data:`SCREEN_TOLERANCE`.  Every other status is returned
    unchanged.
    """
    if status != 0:
        return status
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any():
        return 4
    tol = SCREEN_TOLERANCE
    in_bounds = np.all((x >= lower - tol) & (x <= upper + tol))
    if not in_bounds or (slack < -tol).any():
        return 4
    return status


def solve_lp(
    cost: np.ndarray,
    matrix,
    b_ub: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    solver: str | None = None,
    time_limit: float | None = None,
) -> tuple[int, np.ndarray | None, int]:
    """Minimise ``cost @ x`` s.t. ``matrix @ x <= b_ub``, ``lower <= x <= upper``.

    ``matrix`` is a canonical CSC matrix (sorted indices, no duplicates);
    infinite entries of ``lower``/``upper`` are free bounds.  Returns
    ``(status, x, iterations)`` with ``linprog``'s status codes; ``x`` is
    ``None`` unless HiGHS reports an optimum, and ``iterations`` is HiGHS'
    ``simplex_iteration_count`` (``linprog``'s ``nit`` for a simplex run).
    ``time_limit`` (seconds) becomes the HiGHS option of that name; a run
    that hits it returns status 1.
    """
    core, statuses = _highs_core()
    n_rows, n_cols = matrix.shape
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("highs_debug_level", 0)
    highs.setOptionValue("simplex_strategy", 1)  # dual simplex
    if solver is not None:
        highs.setOptionValue("solver", solver)
    if time_limit is not None:
        highs.setOptionValue("time_limit", float(time_limit))
    loaded = highs.passModel(
        n_cols,
        n_rows,
        matrix.nnz,
        int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMinimize),
        0.0,
        cost,
        lower,
        upper,
        np.full(n_rows, -np.inf),
        b_ub,
        np.asarray(matrix.indptr[:-1], dtype=np.int32),
        np.asarray(matrix.indices, dtype=np.int32),
        matrix.data,
        # An empty integrality array makes passModel fail; all-continuous
        # is an LP.
        np.zeros(n_cols, dtype=np.int32),
    )
    if loaded == core.HighsStatus.kError:
        return statuses[core.HighsModelStatus.kModelError], None, 0
    highs.run()
    model_status = highs.getModelStatus()
    status = statuses.get(model_status, 4)
    info = highs.getInfo()
    if model_status != core.HighsModelStatus.kOptimal:
        return status, None, info.simplex_iteration_count
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = b_ub - np.asarray(solution.row_value)
    status = screen(status, x, info.objective_function_value, slack, lower, upper)
    return status, x, info.simplex_iteration_count
