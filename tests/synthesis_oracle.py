"""Reference Algorithm 1 paths for the synthesis equivalence layer.

The library calls Algorithm 1 through one
:class:`~repro.core.session.SynthesisSession` per problem, and its LP
backend solves the stealth-margin LP first.  The two classes here are the
independent references those fast paths are proven bit-identical against:

* :class:`PerCallSession` — stands in for a session but runs a fresh
  one-shot :func:`~repro.core.attack_synthesis.synthesize_attack` per round,
  so every round rebuilds the full encoding.  Hand it to any synthesizer or
  relaxer through their ``session=`` parameter.
* :class:`TwoPhaseLPBackend` — the LP backend with the historical
  feasibility-then-margin two-LP sequence on every branch.

Test modules under ``tests/`` import this as ``synthesis_oracle``; the
benchmarks import it as ``tests.synthesis_oracle``.
"""

from __future__ import annotations

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


class TwoPhaseLPBackend(LPAttackBackend):
    """LP backend that runs feasibility LP, then margin LP, on every branch."""

    def _solve_branch(self, A_ub, b_ub, n_stealth, bounds, branch, A_margin=None):
        return self._feasibility_then_margin(
            A_ub, b_ub, n_stealth, bounds, branch, A_margin=A_margin
        )
