"""Algorithm 1 — attack-vector synthesis (``ATTVECSYN``).

Given the problem instance, a candidate threshold vector and a backend, decide
whether a false-data-injection attack exists that

* keeps every residue strictly below the threshold,
* satisfies all existing monitoring constraints, and
* makes the closed loop miss its performance criterion,

and if so return the concrete attack vector together with the deterministic
trace it induces (which the threshold-synthesis loops mine for residues).

This one-shot entry point is a :class:`~repro.core.session.SynthesisSession`
of length one; loops that query the same problem repeatedly should open a
session directly so the encoding and the backend's solver state are built
once instead of once per call.
"""

from __future__ import annotations

from repro.obs.clock import Stopwatch

from repro.core.problem import SynthesisProblem
from repro.core.session import AttackSynthesisResult, SynthesisSession
from repro.detectors.threshold import ThresholdVector

__all__ = ["AttackSynthesisResult", "synthesize_attack"]


def synthesize_attack(
    problem: SynthesisProblem,
    threshold: ThresholdVector | None = None,
    backend: str | object = "lp",
    time_budget: float | None = None,
    verify: bool = True,
    **backend_kwargs,
) -> AttackSynthesisResult:
    """Run Algorithm 1 on ``problem`` with the candidate ``threshold``.

    Parameters
    ----------
    problem:
        The synthesis problem instance ``<S, C, pfc>`` plus attacker model.
    threshold:
        Candidate residue thresholds; ``None`` (or an all-unset vector)
        models the system without a residue detector.
    backend:
        ``"lp"`` (default), ``"optimizer"`` or a backend instance.
    time_budget:
        Optional wall-clock budget in seconds for the backend (the paper used
        a 12-hour Z3 timeout; our instances need seconds).
    verify:
        Re-simulate the synthesized attack and check stealth / pfc violation
        on the concrete trace.
    """
    start = Stopwatch()
    session = SynthesisSession(problem, backend=backend, verify=verify, **backend_kwargs)
    result = session.solve(threshold, time_budget=time_budget)
    # One-shot elapsed covers the encoding build as well (historical semantics).
    result.elapsed = start.elapsed()
    return result
