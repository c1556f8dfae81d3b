"""Attack-synthesis backends.

Two interchangeable backends answer the Algorithm 1 query "does a
stealthy-yet-successful attack exist?":

* :class:`~repro.falsification.lp_backend.LPAttackBackend` — enumerates the
  (few) ways of violating the performance criterion and solves one linear
  program per branch, handing each one straight to the HiGHS solver scipy
  ships (same options and status codes as :func:`scipy.optimize.linprog`,
  without its input handling).  Complete for the conservative monitor
  encoding and fast; the default and the one decision procedure (it alone
  answers UNSAT).
* :class:`~repro.falsification.optimizer.OptimizationFalsifier` — a
  best-effort randomized/descent falsifier that searches attack space by
  simulation only; incomplete (SAT or UNKNOWN), used for cross-checking
  and as an ablation.
"""

from repro.falsification.base import AttackBackend, BackendAnswer, get_backend
from repro.falsification.lp_backend import LPAttackBackend
from repro.falsification.optimizer import OptimizationFalsifier

__all__ = [
    "AttackBackend",
    "BackendAnswer",
    "LPAttackBackend",
    "OptimizationFalsifier",
    "get_backend",
]
