"""State-space plant models.

The central class is :class:`StateSpace`, a discrete (or continuous) LTI model

.. math::

    x_{k+1} = A x_k + B u_k + w_k, \\qquad
    y_k     = C x_k + D u_k + v_k,

with optional process/measurement noise covariances ``Q_w`` and ``R_v``.  The
class is an immutable value object: all transformation methods return new
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.utils.linalg import as_matrix, is_positive_semidefinite
from repro.utils.validation import ValidationError, check_finite


@dataclass(frozen=True)
class StateSpace:
    """An LTI state-space model with optional Gaussian noise covariances.

    Parameters
    ----------
    A, B, C, D:
        System matrices.  ``D`` defaults to the zero matrix.
    Q_w:
        Process-noise covariance (``n x n``).  ``None`` means noiseless.
    R_v:
        Measurement-noise covariance (``m x m``).  ``None`` means noiseless.
    dt:
        Sampling period in seconds.  ``None`` marks a continuous-time model;
        a positive float marks a discrete-time model sampled every ``dt``
        seconds.
    name:
        Optional human-readable name used in reports.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None
    Q_w: np.ndarray | None = None
    R_v: np.ndarray | None = None
    dt: float | None = None
    name: str = "plant"
    state_names: tuple[str, ...] = field(default=())
    output_names: tuple[str, ...] = field(default=())
    input_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        C = as_matrix(self.C, "C")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValidationError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != n:
            raise ValidationError(f"B must have {n} rows, got {B.shape}")
        if C.shape[1] != n:
            raise ValidationError(f"C must have {n} columns, got {C.shape}")
        m = C.shape[0]
        p = B.shape[1]
        D = self.D
        if D is None:
            D = np.zeros((m, p))
        else:
            D = as_matrix(D, "D")
            if D.shape != (m, p):
                raise ValidationError(f"D must have shape {(m, p)}, got {D.shape}")
        Q_w = self.Q_w
        if Q_w is not None:
            Q_w = as_matrix(Q_w, "Q_w")
            if Q_w.shape != (n, n):
                raise ValidationError(f"Q_w must have shape {(n, n)}, got {Q_w.shape}")
            if not is_positive_semidefinite(Q_w):
                raise ValidationError("Q_w must be positive semidefinite")
        R_v = self.R_v
        if R_v is not None:
            R_v = as_matrix(R_v, "R_v")
            if R_v.shape != (m, m):
                raise ValidationError(f"R_v must have shape {(m, m)}, got {R_v.shape}")
            if not is_positive_semidefinite(R_v):
                raise ValidationError("R_v must be positive semidefinite")
        if self.dt is not None and self.dt <= 0:
            raise ValidationError("dt must be positive for discrete-time models")
        for matrix, label in ((A, "A"), (B, "B"), (C, "C"), (D, "D")):
            check_finite(label, matrix)

        state_names = self.state_names or tuple(f"x{i}" for i in range(n))
        output_names = self.output_names or tuple(f"y{i}" for i in range(m))
        input_names = self.input_names or tuple(f"u{i}" for i in range(p))
        if len(state_names) != n:
            raise ValidationError(f"expected {n} state names, got {len(state_names)}")
        if len(output_names) != m:
            raise ValidationError(f"expected {m} output names, got {len(output_names)}")
        if len(input_names) != p:
            raise ValidationError(f"expected {p} input names, got {len(input_names)}")

        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Q_w", Q_w)
        object.__setattr__(self, "R_v", R_v)
        object.__setattr__(self, "state_names", tuple(state_names))
        object.__setattr__(self, "output_names", tuple(output_names))
        object.__setattr__(self, "input_names", tuple(input_names))

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of state variables ``n``."""
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        """Number of control inputs ``p``."""
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        """Number of measured outputs ``m``."""
        return self.C.shape[0]

    @property
    def is_discrete(self) -> bool:
        """True when the model carries a sampling period."""
        return self.dt is not None

    @property
    def is_continuous(self) -> bool:
        """True when the model is continuous-time."""
        return self.dt is None

    @property
    def has_noise(self) -> bool:
        """True when either noise covariance is set and non-zero."""
        q_set = self.Q_w is not None and np.any(self.Q_w != 0)
        r_set = self.R_v is not None and np.any(self.R_v != 0)
        return bool(q_set or r_set)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def with_noise(self, Q_w: np.ndarray | None, R_v: np.ndarray | None) -> "StateSpace":
        """Return a copy with the given noise covariances."""
        return replace(self, Q_w=Q_w, R_v=R_v)

    def without_noise(self) -> "StateSpace":
        """Return a noiseless copy (used by the formal synthesis encodings)."""
        return replace(self, Q_w=None, R_v=None)

    def with_name(self, name: str) -> "StateSpace":
        """Return a copy with a different display name."""
        return replace(self, name=name)

    def process_noise_std(self) -> np.ndarray:
        """Per-state standard deviation implied by ``Q_w`` (zeros if unset)."""
        if self.Q_w is None:
            return np.zeros(self.n_states)
        return np.sqrt(np.clip(np.diag(self.Q_w), 0.0, None))

    def measurement_noise_std(self) -> np.ndarray:
        """Per-output standard deviation implied by ``R_v`` (zeros if unset)."""
        if self.R_v is None:
            return np.zeros(self.n_outputs)
        return np.sqrt(np.clip(np.diag(self.R_v), 0.0, None))

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def step_state(self, x: np.ndarray, u: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """Advance the state one sample: ``A x + B u + w``."""
        x = np.asarray(x, dtype=float).reshape(-1)
        u = np.asarray(u, dtype=float).reshape(-1)
        nxt = self.A @ x + self.B @ u
        if w is not None:
            nxt = nxt + np.asarray(w, dtype=float).reshape(-1)
        return nxt

    def output(self, x: np.ndarray, u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        """Measurement equation: ``C x + D u + v``."""
        x = np.asarray(x, dtype=float).reshape(-1)
        u = np.asarray(u, dtype=float).reshape(-1)
        y = self.C @ x + self.D @ u
        if v is not None:
            y = y + np.asarray(v, dtype=float).reshape(-1)
        return y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "discrete" if self.is_discrete else "continuous"
        return (
            f"StateSpace(name={self.name!r}, {kind}, n={self.n_states}, "
            f"p={self.n_inputs}, m={self.n_outputs}, dt={self.dt})"
        )
