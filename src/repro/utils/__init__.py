"""Shared utilities: linear-algebra helpers, validation and result containers.

These helpers are deliberately dependency-light (numpy + scipy only) and are
used by every other subpackage.  They are part of the public API because
downstream users building their own plant models need the same validation and
Riccati machinery the library uses internally.
"""

from repro.utils.linalg import (
    as_matrix,
    dare,
    is_positive_definite,
    is_positive_semidefinite,
)
from repro.utils.validation import (
    check_square,
    check_symmetric,
    check_finite,
    ValidationError,
)
from repro.utils.rng import ensure_rng
from repro.utils.results import SolveStatus, SynthesisRecord

__all__ = [
    "as_matrix",
    "dare",
    "is_positive_definite",
    "is_positive_semidefinite",
    "check_square",
    "check_symmetric",
    "check_finite",
    "ValidationError",
    "ensure_rng",
    "SolveStatus",
    "SynthesisRecord",
]
