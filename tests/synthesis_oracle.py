"""Reference Algorithm 1 paths for the synthesis equivalence layer.

The library calls Algorithm 1 through one
:class:`~repro.core.session.SynthesisSession` per problem, answers
verdict-only queries from verified witnesses when it can, solves the
stealth-margin LP first and hands each LP straight to HiGHS.  The classes
here are the independent references those fast paths are proven
bit-identical against:

* :class:`PerCallSession` — stands in for a session but runs a fresh
  one-shot :func:`~repro.core.attack_synthesis.synthesize_attack` per round,
  so every round rebuilds the full encoding, and its :meth:`~PerCallSession.decide`
  always solves.  Hand it to any synthesizer or relaxer through their
  ``session=`` parameter.
* :class:`TwoPhaseLPBackend` — the LP backend with the historical
  feasibility-then-margin two-LP sequence on every branch.
* :class:`LinprogLPBackend` — the LP backend with every LP solved by
  :func:`scipy.optimize.linprog` instead of the direct HiGHS hand-off.

Test modules under ``tests/`` import this as ``synthesis_oracle``; the
benchmarks import it as ``tests.synthesis_oracle``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.core.attack_synthesis import synthesize_attack
from repro.falsification.lp_backend import LPAttackBackend


class PerCallSession:
    """Session stand-in: one full encoding build per Algorithm 1 round."""

    def __init__(self, problem, backend="lp"):
        self.problem = problem
        self.backend = backend

    def solve(self, threshold=None, time_budget=None):
        """Run one-shot Algorithm 1 on the candidate ``threshold``."""
        return synthesize_attack(
            self.problem, threshold=threshold, backend=self.backend, time_budget=time_budget
        )

    def decide(self, threshold=None, time_budget=None):
        """Verdict query: always a fresh solve (no witness reuse)."""
        return self.solve(threshold, time_budget=time_budget)


class TwoPhaseLPBackend(LPAttackBackend):
    """LP backend that runs feasibility LP, then margin LP, on every branch."""

    def _solve_branch(self, A_ub, b_ub, n_stealth, bounds, branch, budget, A_margin=None):
        return self._feasibility_then_margin(
            A_ub, b_ub, n_stealth, bounds, branch, budget, A_margin=A_margin
        )


class LinprogLPBackend(LPAttackBackend):
    """LP backend that solves every LP through ``scipy.optimize.linprog``."""

    def _lp(self, cost, matrix, b_ub, bounds, time_limit):
        options = {} if time_limit is None else {"time_limit": time_limit}
        result = linprog(
            c=cost,
            A_ub=matrix,
            b_ub=b_ub,
            bounds=np.column_stack(bounds),
            method=self.method,
            options=options,
        )
        return result.status, result.x
