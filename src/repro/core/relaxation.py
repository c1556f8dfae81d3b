"""Greedy threshold relaxation (false-alarm minimisation post-pass).

The counterexample-guided loops of Algorithms 2 and 3 drive thresholds *down*
until no stealthy attack remains; nothing in them pushes thresholds back *up*
where tightness is not actually needed, yet every unnecessary tightening
costs false alarms.  This module adds the natural dual pass: walk over the
sampling instants and try to raise each threshold as far as monotonicity
allows, keeping a raise only if Algorithm 1 re-verifies that no stealthy
successful attack exists against the relaxed vector.

Every accepted raise is individually certified by the solver, so the final
vector carries exactly the same security guarantee as its input while having
pointwise larger (hence lower-FAR) thresholds.  This implements the "FAR is
minimised" half of the paper's problem statement more aggressively than the
paper's own greedy loops and is used by the benchmark harness for the §IV
false-alarm study.

Certified raises alone cannot always un-saturate the false-alarm rate: on
the VSC case study, un-floored stepwise synthesis pins a ~0 threshold at the
horizon end, and the solver (correctly) rejects *every* raise there — an
attack that violates the performance criterion with an arbitrarily small
terminal residue exists, so FAR stays at 100 % no matter how the rest of
the vector is relaxed.  The ``floor`` knob makes the paper's residual-risk
trade explicit: before the greedy pass, every *set* threshold below
``floor`` is lifted to ``floor`` **without** certification.  The lifted
instants are reported in :attr:`RelaxationResult.floored_instants`, and
``certified`` is ``False`` whenever the floored vector itself admits a
stealthy attack — the formal no-stealthy-attack guarantee is knowingly
traded for false-alarm rate at exactly those instants, which is the
trade-off the paper's §IV FAR study quantifies.

Every check here needs only a verdict, so each goes through
:meth:`~repro.core.session.SynthesisSession.decide`: a rejected raise (or
an uncertified floor) is often already shown by a verified attack found
earlier in the session, and then costs no solve.  Every accepted raise is
still a backend UNSAT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import SynthesisProblem
from repro.core.session import SynthesisSession
from repro.core.synthesis_result import SynthesisRun
from repro.detectors.threshold import ThresholdVector
from repro.utils.results import SolveStatus, SynthesisRecord
from repro.utils.validation import ValidationError


@dataclass
class RelaxationResult:
    """Outcome of one relaxation pass.

    Attributes
    ----------
    threshold:
        The relaxed vector (pointwise >= the input everywhere).
    raised_instants:
        Instants whose greedy raise was solver-certified and kept.
    floored_instants:
        Instants lifted to the relaxer's ``floor`` *without* certification —
        the explicitly accepted residual-risk instants (empty when no floor
        was configured or nothing sat below it).
    rounds:
        Algorithm 1 certification calls issued.
    certified:
        True when the output vector is solver-certified to admit no stealthy
        successful attack.  False when the input failed its safety
        re-verification, or when the floored vector itself admits an attack
        (every further raise would too, so the greedy pass is skipped).
    history:
        One :class:`~repro.utils.results.SynthesisRecord` per decision.
    total_solver_time:
        Wall-clock seconds spent inside certification calls.
    """

    threshold: ThresholdVector
    raised_instants: list[int] = field(default_factory=list)
    floored_instants: list[int] = field(default_factory=list)
    rounds: int = 0
    certified: bool = True
    history: list[SynthesisRecord] = field(default_factory=list)
    total_solver_time: float = 0.0

    @classmethod
    def from_run(
        cls, run: SynthesisRun, threshold: ThresholdVector, certified: bool, floored=(), raised=()
    ) -> "RelaxationResult":
        """The pass's outcome, with ``run``'s rounds, history and solver time."""
        return cls(
            threshold=threshold,
            raised_instants=list(raised),
            floored_instants=list(floored),
            rounds=run.rounds,
            certified=certified,
            history=run.history,
            total_solver_time=run.solver_time,
        )


@dataclass
class ThresholdRelaxer:
    """Greedy, solver-certified relaxation of a safe threshold vector.

    Parameters
    ----------
    backend:
        Attack-synthesis backend used for the per-raise certification calls.
    time_budget_per_call:
        Optional wall-clock budget per certification call.
    preserve_monotonicity:
        When True (default) a threshold is never raised above its predecessor,
        so a monotonically decreasing input stays monotonically decreasing.
    raise_cap:
        Optional absolute ceiling on raised values (``None`` = no extra cap).
    floor:
        Optional uncertified lower bound applied *before* the greedy pass:
        every set threshold below ``floor`` is lifted to it and recorded in
        :attr:`RelaxationResult.floored_instants`.  This knowingly voids the
        formal guarantee at those instants (see the module docstring) — it is
        the paper's FAR-vs-residual-risk knob, applied as a cheap post-pass
        instead of a full floored re-synthesis.
    """

    backend: str | object = "lp"
    time_budget_per_call: float | None = None
    preserve_monotonicity: bool = True
    raise_cap: float | None = None
    floor: float | None = None

    def relax(
        self,
        problem: SynthesisProblem,
        threshold: ThresholdVector,
        verify_input: bool = True,
        session: SynthesisSession | None = None,
    ) -> RelaxationResult:
        """Raise thresholds greedily while preserving the no-stealthy-attack guarantee.

        Parameters
        ----------
        problem:
            The synthesis problem the vector was synthesized for.
        threshold:
            A (presumably safe) threshold vector; it is not modified.
        verify_input:
            When True, first re-verify that the input vector is indeed safe;
            if it is not, the input is returned unchanged with
            ``certified=False``.
        session:
            Optional shared :class:`~repro.core.session.SynthesisSession`;
            when omitted one is opened for the pass (one certification call
            per instant makes relaxation the heaviest per-problem consumer of
            Algorithm 1 after the synthesis loops themselves).
        """
        if (
            self.floor is not None
            and self.raise_cap is not None
            and self.floor > self.raise_cap
        ):
            raise ValidationError(
                f"floor ({self.floor}) must not exceed raise_cap ({self.raise_cap})"
            )
        run = SynthesisRun(problem, "relax", self.backend, session, self.time_budget_per_call)
        current = threshold.copy()
        if verify_input and run.decide(current).status is not SolveStatus.UNSAT:
            return RelaxationResult.from_run(run, current, certified=False)

        floored: list[int] = []
        if self.floor is not None:
            for k in range(current.length):
                if current.is_set(k) and current[k] < self.floor:
                    current.set_value(k, float(self.floor))
                    floored.append(k)
        if floored:
            # One check decides the whole pass: raising thresholds only
            # enlarges the attacker's stealth-feasible set, so if the floored
            # vector already admits a stealthy attack every greedy raise
            # would be rejected too — return it uncertified immediately.
            certified = run.decide(current).status is SolveStatus.UNSAT
            run.record(
                f"floor {len(floored)} instant(s) at {self.floor:.6g}: "
                f"{'certified' if certified else 'uncertified'}",
                current.copy(),
            )
            if not certified:
                return RelaxationResult.from_run(run, current, certified=False, floored=floored)

        raised: list[int] = []
        for k in range(current.length):
            candidate = self._candidate(current, k)
            if candidate is None or candidate <= current[k] + 1e-12:
                continue
            trial = current.copy()
            trial.set_value(k, candidate)
            accepted = run.decide(trial).status is SolveStatus.UNSAT
            run.record(
                f"raise Th[{k}] {current[k]:.6g} -> {candidate:.6g}: "
                f"{'accepted' if accepted else 'rejected'}",
                trial.copy() if accepted else None,
            )
            if accepted:
                current = trial
                raised.append(k)
        return RelaxationResult.from_run(
            run, current, certified=True, floored=floored, raised=raised
        )

    # ------------------------------------------------------------------
    def _candidate(self, threshold: ThresholdVector, k: int) -> float | None:
        """The value instant ``k`` would be raised to."""
        if not threshold.is_set(k):
            return None
        if self.preserve_monotonicity and k > 0:
            ceiling = threshold[k - 1]
        else:
            finite = threshold.values[np.isfinite(threshold.values)]
            ceiling = 10.0 * float(np.max(finite)) if finite.size else None
        if ceiling is None or not np.isfinite(ceiling):
            ceiling = self.raise_cap
        if ceiling is None:
            return None
        if self.raise_cap is not None:
            ceiling = min(ceiling, self.raise_cap)
        return float(ceiling)
