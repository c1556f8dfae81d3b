"""Continuous-to-discrete conversion of state-space models.

Three discretisation schemes are provided:

* :func:`zoh` — exact zero-order-hold discretisation via the matrix
  exponential of the augmented ``[[A, B], [0, 0]]`` block matrix.
* :func:`euler` — forward-Euler approximation ``A_d = I + A dt``.
* :func:`tustin` — bilinear (trapezoidal) transform.

Noise covariances are mapped with the standard first-order approximations
``Q_d ≈ Q_c dt`` and ``R_d ≈ R_c / dt`` when present.
"""

from __future__ import annotations

import numpy as np

from repro.lti.model import StateSpace
from repro.utils.validation import ValidationError, check_positive


def _discrete_noise(model: StateSpace, dt: float) -> tuple[np.ndarray | None, np.ndarray | None]:
    """First-order mapping of continuous noise intensities to discrete covariances."""
    Q_d = None if model.Q_w is None else model.Q_w * dt
    R_d = None if model.R_v is None else model.R_v / dt
    return Q_d, R_d


def zoh(model: StateSpace, dt: float) -> StateSpace:
    """Exact zero-order-hold discretisation of a continuous-time model."""
    if model.is_discrete:
        raise ValidationError("model is already discrete; cannot apply ZOH again")
    dt = check_positive("dt", dt)
    n = model.n_states
    p = model.n_inputs
    augmented = np.zeros((n + p, n + p))
    augmented[:n, :n] = model.A * dt
    augmented[:n, n:] = model.B * dt
    from scipy import linalg as sla  # ~0.3 s to import: paid by the first ZOH

    expm = sla.expm(augmented)
    A_d = expm[:n, :n]
    B_d = expm[:n, n:]
    Q_d, R_d = _discrete_noise(model, dt)
    return StateSpace(
        A=A_d,
        B=B_d,
        C=model.C,
        D=model.D,
        Q_w=Q_d,
        R_v=R_d,
        dt=dt,
        name=model.name,
        state_names=model.state_names,
        output_names=model.output_names,
        input_names=model.input_names,
    )


def euler(model: StateSpace, dt: float) -> StateSpace:
    """Forward-Euler discretisation ``A_d = I + A dt``, ``B_d = B dt``."""
    if model.is_discrete:
        raise ValidationError("model is already discrete; cannot apply Euler again")
    dt = check_positive("dt", dt)
    n = model.n_states
    A_d = np.eye(n) + model.A * dt
    B_d = model.B * dt
    Q_d, R_d = _discrete_noise(model, dt)
    return StateSpace(
        A=A_d,
        B=B_d,
        C=model.C,
        D=model.D,
        Q_w=Q_d,
        R_v=R_d,
        dt=dt,
        name=model.name,
        state_names=model.state_names,
        output_names=model.output_names,
        input_names=model.input_names,
    )


def tustin(model: StateSpace, dt: float) -> StateSpace:
    """Bilinear (Tustin) discretisation.

    ``A_d = (I - A dt/2)^{-1} (I + A dt/2)``,
    ``B_d = (I - A dt/2)^{-1} B dt``.
    The output matrices are kept unchanged, which is the convention used for
    control design (as opposed to exact input/output equivalence).
    """
    if model.is_discrete:
        raise ValidationError("model is already discrete; cannot apply Tustin again")
    dt = check_positive("dt", dt)
    n = model.n_states
    identity = np.eye(n)
    left = identity - model.A * (dt / 2.0)
    try:
        left_inv = np.linalg.inv(left)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("Tustin transform is singular for this model/dt") from exc
    A_d = left_inv @ (identity + model.A * (dt / 2.0))
    B_d = left_inv @ (model.B * dt)
    Q_d, R_d = _discrete_noise(model, dt)
    return StateSpace(
        A=A_d,
        B=B_d,
        C=model.C,
        D=model.D,
        Q_w=Q_d,
        R_v=R_d,
        dt=dt,
        name=model.name,
        state_names=model.state_names,
        output_names=model.output_names,
        input_names=model.input_names,
    )


_METHODS = {"zoh": zoh, "euler": euler, "tustin": tustin}


def discretize(model: StateSpace, dt: float, method: str = "zoh") -> StateSpace:
    """Discretise ``model`` with sampling period ``dt`` using ``method``.

    Parameters
    ----------
    model:
        Continuous-time :class:`~repro.lti.model.StateSpace` model.
    dt:
        Sampling period in seconds.
    method:
        One of ``"zoh"``, ``"euler"`` or ``"tustin"``.
    """
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValidationError(
            f"unknown discretisation method {method!r}; expected one of {sorted(_METHODS)}"
        ) from None
    return fn(model, dt)
