"""SMT attack-synthesis backend (the Z3 substitute path of the paper).

The whole Algorithm 1 assertion is translated into a single QF-LRA formula::

    AND(base constraints)  AND  OR(violation branches)

over one real variable per decision-vector component, and discharged to the
DPLL(T) solver in :mod:`repro.smt`.  Compared to the LP backend this handles
arbitrary Boolean structure (useful for the exact dead-zone semantics of
monitors) at the cost of speed.

Incrementality: :meth:`SMTAttackBackend.open_session` keeps one
:class:`~repro.smt.solver.Solver` per problem with the static clauses
(monitors, variable bounds, the violation disjunction) asserted once; each
round pushes the candidate threshold's stealth clauses, checks, and pops —
re-encoding nothing but the stealth atoms.  The one-shot
:meth:`SMTAttackBackend.solve` is a session of length one, so both paths
discharge the identical assertion sequence.

Note: to make that possible, the assertion order changed from the
pre-session releases (stealth clauses are now asserted *last*, after the
static clauses, instead of first).  CNF ordering steers the DPLL decision
heuristic, so on queries with several satisfying attacks this backend may
return a different (equally valid) model than v1 did; the bit-identity
guarantees in this codebase are between the session and per-call paths of
the *current* encoding, not across releases.
"""

from __future__ import annotations

from repro.obs.clock import Stopwatch

import numpy as np

from repro.core.encoding import AttackEncoding
from repro.core.unroll import AffineConstraint
from repro.detectors.threshold import ThresholdVector
from repro.falsification.base import AttackBackend, BackendAnswer, BackendSession
from repro.smt.expr import Atom, Formula, Or
from repro.smt.linear import LinearExpr
from repro.smt.solver import Solver
from repro.utils.results import SolveStatus


def _constraint_to_atom(constraint: AffineConstraint, names: list[str]) -> Atom:
    """Translate ``row·theta + constant (<|<=) 0`` into an SMT atom."""
    coefficients = {
        names[index]: float(value)
        for index, value in enumerate(constraint.row)
        if abs(value) > 1e-15
    }
    expression = LinearExpr(coefficients, float(constraint.constant))
    return Atom(expression=expression, strict=bool(constraint.strict))


def _bounds_to_formulas(
    bounds: list[tuple[float | None, float | None]], names: list[str]
) -> list[Formula]:
    formulas: list[Formula] = []
    for index, (low, high) in enumerate(bounds):
        if low is not None:
            formulas.append(Atom(expression=LinearExpr({names[index]: -1.0}, float(low)), strict=False))
        if high is not None:
            formulas.append(Atom(expression=LinearExpr({names[index]: 1.0}, -float(high)), strict=False))
    return formulas


class SMTBackendSession(BackendSession):
    """Per-problem SMT session: static clauses asserted once, stealth push/popped."""

    def __init__(self, backend: "SMTAttackBackend", encoding: AttackEncoding):
        super().__init__(backend, encoding)
        self._names = encoding.variable_names
        self._branches = encoding.violation_branches()
        self._solver = Solver(theory_check=backend.theory_check)
        for formula in backend.static_formulas(encoding):
            self._solver.add(formula)

    def solve(
        self,
        threshold: ThresholdVector | None = None,
        time_budget: float | None = None,
    ) -> BackendAnswer:
        start = Stopwatch()
        if not self._branches:
            return BackendAnswer(status=SolveStatus.UNSAT, diagnostics={"branches": 0})

        self._solver.push()
        try:
            for constraint in self.encoding.stealth_constraints(threshold):
                self._solver.add(_constraint_to_atom(constraint, self._names))
            result = self._solver.check(time_budget=time_budget)
        finally:
            self._solver.pop()

        diagnostics = dict(result.statistics)
        diagnostics.update({"backend": self.backend.name, "elapsed": start.elapsed()})

        if result.status is SolveStatus.SAT:
            theta = np.array([result.real_model.get(name, 0.0) for name in self._names])
            return BackendAnswer(status=SolveStatus.SAT, theta=theta, diagnostics=diagnostics)
        return BackendAnswer(status=result.status, diagnostics=diagnostics)


class SMTAttackBackend(AttackBackend):
    """DPLL(T)-based backend over the from-scratch QF-LRA solver."""

    name = "smt"
    concurrent_solves = False

    def __init__(self, theory_check: str = "eager"):
        self.theory_check = theory_check

    def static_formulas(self, encoding: AttackEncoding) -> list[Formula]:
        """Threshold-independent assertions: monitors, bounds, violation disjunction."""
        names = encoding.variable_names
        formulas: list[Formula] = []
        for constraint in encoding.static_constraints():
            formulas.append(_constraint_to_atom(constraint, names))
        formulas.extend(_bounds_to_formulas(encoding.variable_bounds(), names))
        branches = encoding.violation_branches()
        if not branches:
            return formulas
        branch_atoms = [_constraint_to_atom(branch, names) for branch in branches]
        formulas.append(Or(*branch_atoms))
        return formulas

    def build_formulas(self, encoding: AttackEncoding) -> list[Formula]:
        """The assertion set for one query (exposed for tests and diagnostics).

        Static clauses first, stealth clauses last — the exact assertion
        order a session produces, so one-shot and incremental queries hand
        the DPLL(T) core the same problem.
        """
        names = encoding.variable_names
        formulas = self.static_formulas(encoding)
        for constraint in encoding.stealth_constraints(encoding.threshold):
            formulas.append(_constraint_to_atom(constraint, names))
        return formulas

    def open_session(self, encoding: AttackEncoding) -> SMTBackendSession:
        """Open the clause-caching incremental session for ``encoding``."""
        return SMTBackendSession(self, encoding)

    def solve(self, encoding: AttackEncoding, time_budget: float | None = None) -> BackendAnswer:
        """One-shot query: a session of length one over ``encoding``."""
        return self.open_session(encoding).solve(encoding.threshold, time_budget=time_budget)
