"""Simulation-based optimization falsifier (the incomplete second backend).

Searches the attack space directly by simulating the closed loop and
minimising a robustness objective:

``robustness = margin(pfc) + penalty(stealth violations) + penalty(mdc alarms)``

A negative robustness with zero penalties means a stealthy successful attack
was found.  The search combines random restarts with Nelder–Mead polishing
from :func:`scipy.optimize.minimize`, which is the classical S-TaLiRo /
Breach-style falsification recipe.  The backend can never prove absence of
attacks (it returns ``UNKNOWN`` instead of ``UNSAT``); it exists as an
ablation point and as an independent cross-check of the LP backend.

Under a :class:`~repro.core.session.SynthesisSession` this backend runs
through the default :class:`~repro.falsification.base.BackendSession`: each
round rebinds the shared encoding to the candidate threshold (skipping the
horizon unrolling and static constraint rebuilds) and re-derives only the
stealth penalty terms — the objective itself is restart-stateful per call by
design, so there is no further solver state to cache.
"""

from __future__ import annotations

from repro.obs.clock import Stopwatch

import numpy as np

from repro.core.encoding import AttackEncoding
from repro.falsification.base import AttackBackend, BackendAnswer
from repro.utils.results import SolveStatus
from repro.utils.rng import ensure_rng


class OptimizationFalsifier(AttackBackend):
    """Random-restart + Nelder–Mead falsification over the decision vector."""

    name = "optimizer"
    concurrent_solves = False

    def __init__(
        self,
        restarts: int = 10,
        iterations_per_restart: int = 200,
        seed: int | None = 0,
        penalty_weight: float = 100.0,
    ):
        self.restarts = int(restarts)
        self.iterations_per_restart = int(iterations_per_restart)
        self.seed = seed
        self.penalty_weight = float(penalty_weight)

    # ------------------------------------------------------------------
    def _objective(self, encoding: AttackEncoding):
        n = encoding.n_variables
        base = encoding.base_constraints()
        base_rows = np.array([c.row for c in base], dtype=float).reshape(-1, n)
        base_constants = np.array([c.constant for c in base], dtype=float)
        branches = encoding.violation_branches()
        branch_rows = np.array([b.row for b in branches], dtype=float).reshape(-1, n)
        branch_constants = np.array([b.constant for b in branches], dtype=float)

        def robustness(theta: np.ndarray) -> float:
            theta = np.asarray(theta, dtype=float)
            values = base_rows @ theta + base_constants
            penalty = float(values[values > 0].sum())
            # Distance to the closest pfc-violation branch (want <= 0).
            branch_values = branch_rows @ theta + branch_constants
            violation_margin = float(branch_values.min()) if branches else np.inf
            return violation_margin + self.penalty_weight * penalty

        return robustness

    def _initial_scale(self, encoding: AttackEncoding) -> float:
        bound = encoding.problem.attack_bound
        if bound is None:
            return 1.0
        bound_array = np.asarray(bound, dtype=float).reshape(-1)
        return float(np.max(bound_array))

    def solve(self, encoding: AttackEncoding, time_budget: float | None = None) -> BackendAnswer:
        from scipy import optimize

        start = Stopwatch()
        branches = encoding.violation_branches()
        if not branches:
            return BackendAnswer(status=SolveStatus.UNSAT, diagnostics={"branches": 0})

        rng = ensure_rng(self.seed)
        objective = self._objective(encoding)
        bounds = encoding.variable_bounds()
        scale = self._initial_scale(encoding)
        n = encoding.n_variables

        best_theta = None
        best_value = np.inf
        evaluations = 0
        for restart in range(self.restarts):
            if start.exceeded(time_budget):
                break
            theta0 = rng.uniform(-scale, scale, size=n)
            for index, (low, high) in enumerate(bounds):
                if low is not None:
                    theta0[index] = max(theta0[index], low)
                if high is not None:
                    theta0[index] = min(theta0[index], high)
            result = optimize.minimize(
                objective,
                theta0,
                method="Nelder-Mead",
                options={"maxiter": self.iterations_per_restart, "xatol": 1e-6, "fatol": 1e-9},
            )
            evaluations += int(result.nfev)
            if result.fun < best_value:
                best_value = float(result.fun)
                best_theta = np.asarray(result.x, dtype=float)
            if best_value <= 0.0 and encoding.theta_satisfies_base(best_theta):
                return BackendAnswer(
                    status=SolveStatus.SAT,
                    theta=best_theta,
                    diagnostics={
                        "backend": self.name,
                        "restarts_used": restart + 1,
                        "objective": best_value,
                        "evaluations": evaluations,
                        "elapsed": start.elapsed(),
                    },
                )

        return BackendAnswer(
            status=SolveStatus.UNKNOWN,
            diagnostics={
                "backend": self.name,
                "best_objective": best_value,
                "evaluations": evaluations,
                "elapsed": start.elapsed(),
            },
        )
