"""Continuous-to-discrete conversion of state-space models.

:func:`discretize` is the exact zero-order-hold (ZOH) discretisation, via
the matrix exponential of the augmented ``[[A, B], [0, 0]]`` block matrix.
Noise covariances are mapped with the standard first-order approximations
``Q_d ≈ Q_c dt`` and ``R_d ≈ R_c / dt`` when present.
"""

from __future__ import annotations

import numpy as np

from repro.lti.model import StateSpace
from repro.utils.validation import ValidationError, check_positive


def discretize(model: StateSpace, dt: float) -> StateSpace:
    """Exact zero-order-hold discretisation of ``model`` with sampling period ``dt``."""
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
    return StateSpace(
        A=expm[:n, :n],
        B=expm[:n, n:],
        C=model.C,
        D=model.D,
        Q_w=None if model.Q_w is None else model.Q_w * dt,
        R_v=None if model.R_v is None else model.R_v / dt,
        dt=dt,
        name=model.name,
        state_names=model.state_names,
        output_names=model.output_names,
        input_names=model.input_names,
    )
