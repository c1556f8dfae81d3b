"""Attack-synthesis backends.

Three interchangeable decision procedures answer the Algorithm 1 query "does
a stealthy-yet-successful attack exist?":

* :class:`~repro.falsification.lp_backend.LPAttackBackend` — enumerates the
  (few) ways of violating the performance criterion and solves one linear
  program per branch, handing each one straight to the HiGHS solver scipy
  ships (same options and status codes as :func:`scipy.optimize.linprog`,
  without its input handling).  Complete for the conservative monitor
  encoding and fast; the default.
* :class:`~repro.falsification.smt_backend.SMTAttackBackend` — encodes the
  whole query as a QF-LRA formula and discharges it to the from-scratch
  DPLL(T) solver in :mod:`repro.smt` (the Z3 substitute).
* :class:`~repro.falsification.optimizer.OptimizationFalsifier` — a
  best-effort randomized/descent falsifier that searches attack space by
  simulation only; incomplete, used for cross-checking and as an ablation.
"""

from repro.falsification.base import AttackBackend, BackendAnswer
from repro.falsification.lp_backend import LPAttackBackend
from repro.falsification.smt_backend import SMTAttackBackend
from repro.falsification.optimizer import OptimizationFalsifier
from repro.falsification.registry import get_backend, available_backends

__all__ = [
    "AttackBackend",
    "BackendAnswer",
    "LPAttackBackend",
    "SMTAttackBackend",
    "OptimizationFalsifier",
    "get_backend",
    "available_backends",
]
