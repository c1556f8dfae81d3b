"""Common result containers used across synthesis and detection modules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class SolveStatus(enum.Enum):
    """Outcome of a solver or synthesis query.

    The semantics mirror SMT conventions:

    * ``SAT`` — a witness (attack vector / model) was found.
    * ``UNSAT`` — proved that no witness exists.
    * ``UNKNOWN`` — resource budget exhausted before a verdict.
    """

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self is SolveStatus.SAT


@dataclass
class SynthesisRecord:
    """One round of a counterexample-guided synthesis loop.

    Attributes
    ----------
    round_index:
        One-based count of the run's Algorithm 1 calls up to and including
        the call this record acts on (pivot's first record, on the
        detector-free call, has 1).
    action:
        Human-readable description of the refinement applied in this round
        (e.g. ``"case-1a new threshold at k=12"``).
    threshold:
        Snapshot of the threshold vector *after* the refinement.
    attack:
        The counterexample attack that triggered the refinement, if any.
    solver_time:
        Wall-clock seconds spent inside the attack-synthesis call.
    extra:
        Backend-specific diagnostics.
    """

    round_index: int
    action: str
    threshold: Any = None
    attack: Any = None
    solver_time: float = 0.0
    extra: dict = field(default_factory=dict)
