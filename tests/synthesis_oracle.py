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
* :func:`sequential_pipeline` — ``run_pipeline``'s synthesis, relaxation
  and FAR stages on one thread and one shared session, the reference for
  the forked sessions ``run_pipeline`` runs side by side.
* :func:`verify_no_attack` — one fresh one-shot Algorithm 1 call that
  re-checks a synthesized threshold outside the session that produced it.

Test modules under ``tests/`` import this as ``synthesis_oracle``; the
benchmarks import it as ``tests.synthesis_oracle``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.api.execute import RAW_FAR_SUFFIX, PipelineReport
from repro.core.attack_synthesis import synthesize_attack
from repro.core.session import SynthesisSession
from repro.falsification.lp_backend import LPAttackBackend
from repro.utils.results import SolveStatus


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
        return result.status, result.x, result.nit


def sequential_pipeline(problem, synthesis, far=None, backend=None):
    """Vulnerability check, synthesis, relaxation and FAR, one after another.

    Every algorithm and its relaxation pass run in ``synthesis.algorithms``
    order on the one session that answered the vulnerability check, so
    each loop starts from the memo and witness the previous one left.
    """
    solver = backend if backend is not None else synthesis.build_backend()
    session = SynthesisSession(problem, backend=solver)
    report = PipelineReport(vulnerability=session.solve(None))
    relaxer = synthesis.build_relaxer(backend=solver)
    for name in synthesis.algorithms:
        synthesizer = synthesis.build_synthesizer(name, backend=solver)
        result = synthesizer.synthesize(problem, session=session)
        report.synthesis[name] = result
        if relaxer is not None and result.threshold is not None:
            report.relaxation[name] = relaxer.relax(
                problem,
                result.threshold,
                verify_input=synthesis.relax.verify_input,
                session=session,
            )
    if far is not None and far.count > 0:
        detectors = {}
        for name, result in report.synthesis.items():
            deployed = report.deployed_threshold(name)
            if deployed is None:
                continue
            detectors[name] = deployed
            if name in report.relaxation and result.threshold is not None:
                detectors[name + RAW_FAR_SUFFIX] = result.threshold
        if detectors:
            report.far_study = far.build_evaluator(problem).evaluate(detectors)
    return report


def verify_no_attack(problem, threshold, backend="lp"):
    """Does ``threshold`` provably block every stealthy attack?  Fails on UNKNOWN."""
    result = synthesize_attack(problem, threshold=threshold, backend=backend)
    if result.found:
        return False
    assert result.status is SolveStatus.UNSAT, "verification inconclusive (solver returned UNKNOWN)"
    return True
