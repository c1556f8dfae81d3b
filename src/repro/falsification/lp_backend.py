"""Linear-programming attack-synthesis backend.

The base constraints (stealth + monitors) are a conjunction of affine
inequalities; the performance-violation condition is a disjunction of affine
inequalities (one per way of breaking a ``pfc`` condition).  The backend
therefore solves one feasibility LP per violation branch:

    minimise   branch_row · theta
    subject to base constraints, variable bounds

and declares the branch feasible when the optimum pushes the branch
expression to ``<= 0`` (the strictness margin is already folded into the
constants).  The query is UNSAT exactly when every branch is infeasible,
which — for the conservative monitor encoding — is a complete answer.

Counterexample quality matters for the synthesis loops built on top: a plain
feasibility vertex tends to sit right at the stealth boundary, which makes
each counterexample-guided refinement step arbitrarily small.  With
``margin_mode="max-stealth-margin"`` (the default) the returned attack
maximises the uniform slack of the stealth constraints, i.e. it is the *most
stealthy* attack that still violates the performance criterion.  Thresholds
refined against such attacks drop by the largest possible amount per round,
which is what makes Algorithms 2 and 3 converge in a practical number of
rounds.

Each branch solves the stealth-margin LP first.  Its feasible set projects
exactly onto the feasibility LP's (fix ``s = 0``), so branch infeasibility
and the returned maximum-margin vertex coincide with the historical
feasibility-then-margin sequence at one LP per SAT round instead of two.
That sequence remains the fallback: it runs when ``margin_mode="none"``,
when the round has no stealth rows, and on an unusual solver status or a
tolerance miss of the margin LP.

Incrementality: :meth:`LPAttackBackend.open_session` returns a session that
assembles the static (monitor) rows, the variable bounds and the stealth row
template once per problem.  Each round only computes the stealth right-hand
side from the candidate threshold — the constraint *matrix* of a round is
fully determined by the threshold's finite-instance mask, so the assembled
CSC form of the last mask is kept per branch and reused while the mask
stays.  One mask is enough: pivot never returns to an old mask (it only adds
instants or keeps the mask), and keeping more left the matrix-build count of
the six case-study pipelines unchanged.  The one-shot
:meth:`LPAttackBackend.solve` is a session of length one, so both paths run
the identical assembly and produce bit-identical answers.  Every answer
reports the HiGHS simplex iterations of its LPs in
``diagnostics["lp_iterations"]`` and in the ``synthesis_lp_iterations``
histogram.

Each LP goes straight from that cached CSC into HiGHS
(:func:`repro.falsification._highs.solve_lp`), with the options and status
codes of ``scipy.optimize.linprog(method=...)`` but without its input
cleaning and matrix copy; HiGHS returns the same vertex either way.  A
``time_budget`` binds inside each LP as the HiGHS ``time_limit``.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import AttackEncoding
from repro.detectors.threshold import ThresholdVector
from repro.falsification._highs import HIGHS_SOLVERS, solve_lp
from repro.falsification.base import AttackBackend, BackendAnswer, BackendSession
from repro.obs.clock import Stopwatch
from repro.obs.metrics import get_registry
from repro.utils.results import SolveStatus
from repro.utils.validation import ValidationError

#: Bucket bounds of the ``synthesis_lp_iterations`` histogram.
ITERATION_BUCKETS = (10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000)


class _TimeLimitReached(Exception):
    """A solve's ``time_budget`` ran out, between LPs or inside one."""


class _Budget:
    """The wall-clock seconds left of one solve's ``time_budget``.

    It also tallies the simplex iterations of the solve's LPs.
    """

    def __init__(self, seconds: float | None):
        self._watch = Stopwatch()
        self._seconds = seconds
        self.iterations = 0

    def time_limit(self) -> float | None:
        """Seconds left for the next LP (``None``: no budget).

        Raises :class:`_TimeLimitReached` once the budget is spent.
        """
        if self._seconds is None:
            return None
        left = self._seconds - self._watch.elapsed()
        if left <= 0.0:
            raise _TimeLimitReached
        return left


class LPBackendSession(BackendSession):
    """Per-problem LP session: static blocks assembled once, stealth per round.

    The stacked base matrix handed to HiGHS keeps the historical row
    order — stealth rows (template order), then monitor rows, then the branch
    row — so a session answer is bit-identical to the legacy per-call path.
    """

    def __init__(self, backend: "LPAttackBackend", encoding: AttackEncoding):
        super().__init__(backend, encoding)
        static = encoding.static_constraints()
        n = encoding.n_variables
        if static:
            self._static_rows = np.vstack([c.row for c in static])
            self._static_rhs = np.asarray([-c.constant for c in static], dtype=float)
        else:
            self._static_rows = np.zeros((0, n))
            self._static_rhs = np.zeros(0)
        bounds = encoding.variable_bounds()
        self._bounds = (
            np.array([-np.inf if low is None else low for low, _ in bounds], dtype=float),
            np.array([np.inf if high is None else high for _, high in bounds], dtype=float),
        )
        self._branches = encoding.violation_branches()
        self._template = encoding.stealth_template
        self._margin = float(encoding.problem.strictness)
        self._horizon = encoding.problem.horizon
        # The last mask's matrices: branch index -> (A_ub_csc, A_margin_csc | None).
        self._mask_key: bytes | None = None
        self._matrices: dict = {}

    # ------------------------------------------------------------------
    def _stealth_arrays(
        self, threshold: ThresholdVector | None
    ) -> tuple[np.ndarray, np.ndarray, bytes]:
        """Stealth rows, right-hand side and mask key for one candidate threshold."""
        if threshold is None:
            return np.zeros((0, self.encoding.n_variables)), np.zeros(0), b"none"
        template = self._template
        effective = threshold.effective(self._horizon)
        per_row = template.bounds_per_row(effective)
        finite = np.isfinite(per_row)
        keep = np.flatnonzero(finite)
        rows = template.rows[keep]
        # Same arithmetic order as AttackEncoding.stealth_constraints:
        # (scaled constant - bound) + margin, then rhs = -constant.
        constants = (template.constants[keep] - per_row[keep]) + self._margin
        return rows, -constants, finite.tobytes()

    def _branch_matrices(
        self,
        mask_key: bytes,
        index: int,
        stealth_rows: np.ndarray,
        branch,
        with_margin: bool,
    ):
        """The round's assembled (sparse) matrices for one branch, kept per mask.

        The matrix depends only on which instances carry a finite threshold
        (the mask), not on the threshold values, so loops that keep their
        mask reuse it every round.
        """
        if mask_key != self._mask_key:
            self._mask_key = mask_key
            self._matrices = {}
        entry = self._matrices.get(index)
        if entry is None or (with_margin and entry[1] is None):
            from scipy import sparse  # ~0.13 s to import: paid by the first LP

            n_stealth = stealth_rows.shape[0]
            A_dense = np.vstack([stealth_rows, self._static_rows, branch.row])
            A_ub = sparse.csc_matrix(A_dense)
            A_margin = None
            if with_margin and n_stealth:
                A_margin = sparse.csc_matrix(
                    self.backend._with_margin_column(A_dense, n_stealth)
                )
            entry = (A_ub, A_margin)
            self._matrices[index] = entry
        return entry

    def solve(
        self,
        threshold: ThresholdVector | None = None,
        time_budget: float | None = None,
    ) -> BackendAnswer:
        start = Stopwatch()
        budget = _Budget(time_budget)
        backend = self.backend
        branches = self._branches
        if not branches:
            # No way to violate pfc: the criterion is vacuous, nothing to attack.
            return BackendAnswer(status=SolveStatus.UNSAT, diagnostics={"branches": 0})

        stealth_rows, stealth_rhs, mask_key = self._stealth_arrays(threshold)
        n_stealth = stealth_rows.shape[0]
        with_margin = backend.margin_mode != "none" and n_stealth > 0

        explored = 0
        best_theta = None
        best_label = None
        try:
            for index, branch in enumerate(branches):
                budget.time_limit()
                explored += 1
                A_ub, A_margin = self._branch_matrices(
                    mask_key, index, stealth_rows, branch, with_margin
                )
                b_ub = np.concatenate([stealth_rhs, self._static_rhs, [-branch.constant]])
                theta = backend._solve_branch(
                    A_ub, b_ub, n_stealth, self._bounds, branch, budget, A_margin=A_margin
                )
                if theta is not None:
                    best_theta = theta
                    best_label = branch.label
                    break
        except _TimeLimitReached:
            return self._answer(
                SolveStatus.UNKNOWN,
                budget,
                {"branches_explored": explored, "reason": "time budget"},
            )

        if best_theta is None:
            return self._answer(
                SolveStatus.UNSAT,
                budget,
                {
                    "backend": backend.name,
                    "branches_explored": explored,
                    "elapsed": start.elapsed(),
                },
            )
        return self._answer(
            SolveStatus.SAT,
            budget,
            {
                "backend": backend.name,
                "branch": best_label,
                "branches_explored": explored,
                "margin_mode": backend.margin_mode,
                "elapsed": start.elapsed(),
            },
            theta=best_theta,
        )

    def _answer(self, status, budget: _Budget, diagnostics: dict, theta=None) -> BackendAnswer:
        """The solve's answer, with the simplex iterations of its LPs recorded."""
        diagnostics["lp_iterations"] = budget.iterations
        get_registry().histogram(
            "synthesis_lp_iterations",
            help="HiGHS simplex iterations per LP backend solve.",
            buckets=ITERATION_BUCKETS,
        ).observe(budget.iterations, backend=self.backend.name)
        return BackendAnswer(status=status, theta=theta, diagnostics=diagnostics)


class LPAttackBackend(AttackBackend):
    """Branch-enumerating LP backend that hands each LP straight to HiGHS.

    ``method`` names the HiGHS solver as ``scipy.optimize.linprog`` does:
    ``"highs"`` (HiGHS chooses), ``"highs-ds"`` (dual simplex) or
    ``"highs-ipm"`` (interior point).
    """

    name = "lp"

    def __init__(
        self,
        method: str = "highs",
        tolerance: float = 1e-9,
        margin_mode: str = "max-stealth-margin",
    ):
        if margin_mode not in {"max-stealth-margin", "none"}:
            raise ValidationError("margin_mode must be 'max-stealth-margin' or 'none'")
        if method not in HIGHS_SOLVERS:
            raise ValidationError(
                f"method must be one of {sorted(HIGHS_SOLVERS)}, got {method!r}"
            )
        self.method = method
        self.tolerance = float(tolerance)
        self.margin_mode = margin_mode

    # ------------------------------------------------------------------
    def _lp(self, cost, matrix, b_ub, bounds, time_limit):
        """One LP: ``(status, x, simplex iterations)`` with ``linprog``'s status codes."""
        lower, upper = bounds
        return solve_lp(
            cost,
            matrix,
            b_ub,
            lower,
            upper,
            solver=HIGHS_SOLVERS[self.method],
            time_limit=time_limit,
        )

    def _run_lp(self, cost, matrix, b_ub, bounds, budget: _Budget):
        """:meth:`_lp` under the solve's remaining budget."""
        time_limit = budget.time_limit()
        status, x, iterations = self._lp(cost, matrix, b_ub, bounds, time_limit)
        budget.iterations += iterations
        if status == 1 and time_limit is not None:
            raise _TimeLimitReached
        return status, x

    @staticmethod
    def _with_margin_column(A_ub: np.ndarray, n_stealth: int) -> np.ndarray:
        """Append the uniform-slack column (1 on stealth rows) to the dense ``A_ub``."""
        margin_column = np.zeros((A_ub.shape[0], 1))
        margin_column[:n_stealth, 0] = 1.0
        return np.hstack([A_ub, margin_column])

    def _margin_lp(self, A_margin, b_ub, bounds, budget):
        """Solve the uniform stealth-margin LP over ``[theta, s]``.

        Variables: ``[theta, s]``; maximise ``s`` subject to

        * stealth rows:      ``row·theta + s <= b``
        * other base rows:   ``row·theta     <= b``
        * branch row:        ``row·theta     <= b``   (violation kept)

        ``A_margin`` is the branch's matrix with the slack column appended
        (:meth:`_with_margin_column`), cached by the session.
        """
        objective = np.zeros(A_margin.shape[1])
        objective[-1] = -1.0
        lower, upper = bounds
        margin_bounds = (np.append(lower, 0.0), np.append(upper, np.inf))
        return self._run_lp(objective, A_margin, b_ub, margin_bounds, budget)

    def _feasibility_then_margin(
        self, A_ub, b_ub, n_stealth: int, bounds, branch, budget, A_margin=None
    ) -> np.ndarray | None:
        """The historical two-phase sequence: feasibility LP, then margin LP."""
        n = A_ub.shape[1]
        status, x = self._run_lp(branch.row, A_ub, b_ub, bounds, budget)
        theta = None
        if status == 0 and x is not None:
            theta = np.asarray(x, dtype=float)
        elif status == 3:
            # Unbounded objective: the region is non-empty; recover any point.
            status, x = self._run_lp(np.zeros(n), A_ub, b_ub, bounds, budget)
            if status == 0 and x is not None:
                theta = np.asarray(x, dtype=float)
        if theta is None:
            return None
        if float(branch.row @ theta) + branch.constant > self.tolerance:
            return None
        if self.margin_mode == "none" or n_stealth == 0:
            return theta

        status, x = self._margin_lp(A_margin, b_ub, bounds, budget)
        if status == 0 and x is not None:
            candidate = np.asarray(x[:n], dtype=float)
            if float(branch.row @ candidate) + branch.constant <= self.tolerance:
                return candidate
        return theta

    def _solve_branch(
        self, A_ub, b_ub, n_stealth: int, bounds, branch, budget, A_margin=None
    ) -> np.ndarray | None:
        """Feasibility (+ optional margin maximisation) for one violation branch."""
        n = A_ub.shape[1]
        if self.margin_mode == "none" or n_stealth == 0:
            return self._feasibility_then_margin(
                A_ub, b_ub, n_stealth, bounds, branch, budget, A_margin=A_margin
            )

        # Margin-first: the margin LP's feasible set is the feasibility LP's
        # region augmented with s >= 0 (fix s = 0 to recover it), so branch
        # infeasibility coincides, and its optimum is exactly the candidate
        # the two-phase sequence would return.  One LP instead of two on
        # every SAT round.
        status, x = self._margin_lp(A_margin, b_ub, bounds, budget)
        if status == 2:
            # Infeasible: the branch admits no stealthy successful attack.
            return None
        if status == 0 and x is not None:
            candidate = np.asarray(x[:n], dtype=float)
            if float(branch.row @ candidate) + branch.constant <= self.tolerance:
                return candidate
        # Unusual solver status (or tolerance miss): replicate the historical
        # sequence verbatim so answers stay bit-identical with it.
        return self._feasibility_then_margin(
            A_ub, b_ub, n_stealth, bounds, branch, budget, A_margin=A_margin
        )

    # ------------------------------------------------------------------
    def open_session(self, encoding: AttackEncoding) -> LPBackendSession:
        """Open the matrix-caching incremental session for ``encoding``."""
        return LPBackendSession(self, encoding)

    def solve(self, encoding: AttackEncoding, time_budget: float | None = None) -> BackendAnswer:
        """One-shot query: a session of length one over ``encoding``."""
        return self.open_session(encoding).solve(encoding.threshold, time_budget=time_budget)
