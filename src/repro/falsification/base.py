"""Common backend interface for attack synthesis.

Besides the one-shot :meth:`AttackBackend.solve` entry point, backends expose
:meth:`AttackBackend.open_session`: a per-problem :class:`BackendSession`
that answers a *sequence* of Algorithm 1 queries against the same problem
where only the candidate threshold changes between calls — the shape of every
counterexample-guided synthesis loop.  The base session simply rebinds the
shared encoding (already skipping the horizon unrolling and static constraint
rebuilds); the LP backend overrides it to additionally cache its assembled
constraint matrices.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.encoding import AttackEncoding
from repro.detectors.threshold import ThresholdVector
from repro.utils.results import SolveStatus


@dataclass
class BackendAnswer:
    """Raw answer of a backend to one Algorithm 1 query.

    Attributes
    ----------
    status:
        ``SAT`` (attack found), ``UNSAT`` (proved none exists under the
        backend's encoding) or ``UNKNOWN`` (budget exhausted / incomplete
        search gave up).
    theta:
        The satisfying decision vector when ``status`` is ``SAT``.
    diagnostics:
        Backend-specific statistics (solver iterations, branches explored,
        wall-clock time, ...).
    """

    status: SolveStatus
    theta: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def found_attack(self) -> bool:
        """True when a concrete witness was produced."""
        return self.status is SolveStatus.SAT and self.theta is not None


class BackendSession:
    """Incremental per-problem solving session.

    Holds whatever the backend can reuse across the rounds of one synthesis
    loop (the shared encoding at minimum) and answers one query per
    :meth:`solve` call.  Sessions are stateless *between* calls: the answer
    depends only on the threshold handed to that call, so interleaving
    queries from several synthesis algorithms over one session is safe.
    """

    def __init__(self, backend: "AttackBackend", encoding: AttackEncoding):
        self.backend = backend
        self.encoding = encoding

    def solve(
        self,
        threshold: ThresholdVector | None = None,
        time_budget: float | None = None,
    ) -> BackendAnswer:
        """Answer one Algorithm 1 query for ``threshold``.

        The default implementation rebinds the shared encoding and delegates
        to the backend's one-shot ``solve`` — already skipping the per-round
        unrolling and static-constraint rebuilds.
        """
        return self.backend.solve(
            self.encoding.with_threshold(threshold), time_budget=time_budget
        )


class AttackBackend(abc.ABC):
    """A decision procedure for the stealthy-attack existence query."""

    name: str = "backend"
    #: Whether sessions on different threads can solve at the same time.
    #: ``False`` for backends whose solves hold the GIL (pure-Python search):
    #: :func:`repro.api.execute.run_pipeline` then runs its algorithms one
    #: after another on one shared session.
    concurrent_solves: bool = True

    @abc.abstractmethod
    def solve(self, encoding: AttackEncoding, time_budget: float | None = None) -> BackendAnswer:
        """Answer the query described by ``encoding``."""

    def open_session(self, encoding: AttackEncoding) -> BackendSession:
        """Open an incremental session over ``encoding``'s static structure.

        Backends with cacheable solver-level state (the LP backend's assembled
        matrices) override this; the default session still reuses the
        encoding across rounds.
        """
        return BackendSession(self, encoding)
