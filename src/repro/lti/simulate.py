"""Closed-loop simulation engine with noise and attack hooks.

The simulation follows exactly the update order used by the paper's
Algorithm 1 so that simulated traces and formally encoded traces are sample
for sample comparable:

.. code-block:: text

    x_1 given, xhat_1 = 0, u_1 = 0
    for k = 1 .. T:
        y_k      = C x_k + D u_k + a_k + v_k          (attacked measurement)
        yhat_k   = C xhat_k + D u_k
        z_k      = y_k - yhat_k                        (residue)
        x_{k+1}  = A x_k + B u_k + w_k
        xhat_{k+1} = A xhat_k + B u_k + L z_k          (Kalman update)
        u_{k+1}  = -K xhat_{k+1} + N r                 (state feedback + feedforward)

The engine is deliberately free of any detector logic: detectors and monitors
consume the returned :class:`SimulationTrace` offline, which keeps a single
source of truth for the closed-loop dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lti.model import StateSpace
from repro.utils.linalg import as_matrix
from repro.utils.rng import ensure_rng
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class ClosedLoopSystem:
    """A plant closed with a state-feedback controller and an observer.

    Parameters
    ----------
    plant:
        Discrete-time :class:`~repro.lti.model.StateSpace` model.
    K:
        State-feedback gain (``p x n``); the control law is ``u = -K xhat``.
    L:
        Observer (Kalman) gain (``n x m``).
    reference:
        Output-space reference ``r`` (length ``m``); combined with the
        feedforward gain ``N`` as ``u = -K xhat + N r``.  Defaults to zero.
    feedforward:
        Feedforward gain ``N`` (``p x m``).  Defaults to zero, matching the
        paper's pure regulation law ``u_k = -K xhat_k``.
    x_reference:
        State-space set point ``x_des`` used by performance criteria; purely
        informational for the simulator.
    name:
        Display name.
    """

    plant: StateSpace
    K: np.ndarray
    L: np.ndarray
    reference: np.ndarray | None = None
    feedforward: np.ndarray | None = None
    x_reference: np.ndarray | None = None
    name: str = "closed-loop"

    def __post_init__(self) -> None:
        if not self.plant.is_discrete:
            raise ValidationError("ClosedLoopSystem requires a discrete-time plant")
        n = self.plant.n_states
        m = self.plant.n_outputs
        p = self.plant.n_inputs
        K = as_matrix(self.K, "K")
        L = as_matrix(self.L, "L")
        if K.shape != (p, n):
            raise ValidationError(f"K must have shape {(p, n)}, got {K.shape}")
        if L.shape != (n, m):
            raise ValidationError(f"L must have shape {(n, m)}, got {L.shape}")
        reference = self.reference
        if reference is None:
            reference = np.zeros(m)
        else:
            reference = np.asarray(reference, dtype=float).reshape(-1)
            if reference.size != m:
                raise ValidationError(f"reference must have length {m}, got {reference.size}")
        feedforward = self.feedforward
        if feedforward is None:
            feedforward = np.zeros((p, m))
        else:
            feedforward = as_matrix(feedforward, "feedforward")
            if feedforward.shape != (p, m):
                raise ValidationError(
                    f"feedforward must have shape {(p, m)}, got {feedforward.shape}"
                )
        x_reference = self.x_reference
        if x_reference is not None:
            x_reference = np.asarray(x_reference, dtype=float).reshape(-1)
            if x_reference.size != n:
                raise ValidationError(
                    f"x_reference must have length {n}, got {x_reference.size}"
                )
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "feedforward", feedforward)
        object.__setattr__(self, "x_reference", x_reference)

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """State dimension of the underlying plant."""
        return self.plant.n_states

    @property
    def n_outputs(self) -> int:
        """Output dimension of the underlying plant."""
        return self.plant.n_outputs

    @property
    def n_inputs(self) -> int:
        """Input dimension of the underlying plant."""
        return self.plant.n_inputs

    @property
    def dt(self) -> float:
        """Sampling period of the underlying plant."""
        return float(self.plant.dt)

    def control(self, xhat: np.ndarray) -> np.ndarray:
        """Control law ``u = -K xhat + N r``."""
        xhat = np.asarray(xhat, dtype=float).reshape(-1)
        return -self.K @ xhat + self.feedforward @ self.reference

    def closed_loop_matrix(self) -> np.ndarray:
        """Closed-loop state matrix of the nominal (full-state) loop, ``A - B K``."""
        return self.plant.A - self.plant.B @ self.K

    def estimator_matrix(self) -> np.ndarray:
        """Estimator error dynamics matrix ``A - L C``."""
        return self.plant.A - self.L @ self.plant.C


@dataclass(frozen=True)
class SimulationOptions:
    """Knobs controlling a closed-loop simulation run.

    Attributes
    ----------
    horizon:
        Number of closed-loop iterations ``T``.
    with_noise:
        When True, process/measurement noise is drawn from the plant's
        covariances (unless explicit noise sequences are supplied).
    seed:
        Seed or generator for the noise streams.
    x0:
        Initial plant state (defaults to zero).
    xhat0:
        Initial estimator state (defaults to zero, as in the paper).
    """

    horizon: int
    with_noise: bool = False
    seed: int | np.random.Generator | None = None
    x0: np.ndarray | None = None
    xhat0: np.ndarray | None = None

    def __post_init__(self) -> None:
        if int(self.horizon) <= 0:
            raise ValidationError("horizon must be a positive integer")
        object.__setattr__(self, "horizon", int(self.horizon))


@dataclass
class SimulationTrace:
    """Time-indexed record of one closed-loop run.

    All arrays are indexed so that row ``k`` (0-based) corresponds to the
    paper's sampling instance ``k+1``.

    Attributes
    ----------
    states:
        Plant states ``x_1 .. x_{T+1}``; shape ``(T + 1, n)``.
    estimates:
        Estimator states ``xhat_1 .. xhat_{T+1}``; shape ``(T + 1, n)``.
    inputs:
        Control inputs ``u_1 .. u_{T+1}``; shape ``(T + 1, p)``.
    measurements:
        Attacked measurements ``y_k`` delivered to the estimator; ``(T, m)``.
    true_outputs:
        Un-attacked sensor outputs ``C x_k + D u_k + v_k``; ``(T, m)``.
    residues:
        Residue vectors ``z_k``; ``(T, m)``.
    attacks:
        Injected false data ``a_k``; ``(T, m)``.
    process_noise / measurement_noise:
        Realised noise samples; ``(T, n)`` and ``(T, m)``.
    """

    states: np.ndarray
    estimates: np.ndarray
    inputs: np.ndarray
    measurements: np.ndarray
    true_outputs: np.ndarray
    residues: np.ndarray
    attacks: np.ndarray
    process_noise: np.ndarray
    measurement_noise: np.ndarray
    dt: float = 1.0
    metadata: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        """Number of closed-loop iterations ``T``."""
        return self.residues.shape[0]

    def residue_norms(self, order: float | str = 2) -> np.ndarray:
        """Per-sample residue norms ``||z_k||`` of order 1, 2 (default) or ``"inf"``."""
        from repro.detectors.threshold import residue_norms  # imports this module

        if order not in (1, 2, "inf"):
            raise ValidationError(f"residue norm order must be 1, 2 or 'inf', got {order!r}")
        return residue_norms(self.residues, order)

    def state_deviation(self, x_reference: np.ndarray) -> np.ndarray:
        """Per-sample Euclidean distance of the plant state from ``x_reference``."""
        x_reference = np.asarray(x_reference, dtype=float).reshape(-1)
        return np.linalg.norm(self.states[:-1] - x_reference, axis=1)

    def output_trajectory(self, output_index: int = 0) -> np.ndarray:
        """True (un-attacked) trajectory of one output channel."""
        return self.true_outputs[:, output_index]

    def final_state(self) -> np.ndarray:
        """Plant state after the last iteration, ``x_{T+1}``."""
        return self.states[-1]

    def times(self) -> np.ndarray:
        """Physical time stamps of samples ``1..T`` in seconds."""
        return self.dt * np.arange(1, self.horizon + 1)

    def is_attacked(self) -> bool:
        """True when any non-zero false data was injected."""
        return bool(np.any(self.attacks != 0.0))


def _noise_samples(
    covariance: np.ndarray | None,
    dimension: int,
    horizon: int,
    rng: np.random.Generator,
    enabled: bool,
) -> np.ndarray:
    """Draw a ``(horizon, dimension)`` block of Gaussian noise (or zeros)."""
    if not enabled or covariance is None or not np.any(covariance):
        return np.zeros((horizon, dimension))
    return rng.multivariate_normal(np.zeros(dimension), covariance, size=horizon)


def simulate_closed_loop(
    system: ClosedLoopSystem,
    options: SimulationOptions,
    attack: np.ndarray | None = None,
    process_noise: np.ndarray | None = None,
    measurement_noise: np.ndarray | None = None,
) -> SimulationTrace:
    """Simulate ``system`` for ``options.horizon`` iterations.

    Parameters
    ----------
    system:
        The closed loop (plant + gains) to simulate.
    options:
        Horizon, noise switch, seed and initial conditions.
    attack:
        Optional false-data-injection sequence ``a_1..a_T`` of shape
        ``(T, m)``; added to the sensor measurements before they reach the
        estimator.  ``None`` means no attack.
    process_noise, measurement_noise:
        Optional explicit noise sequences (shape ``(T, n)`` / ``(T, m)``);
        when given they override the random draws regardless of
        ``options.with_noise``.

    Returns
    -------
    SimulationTrace
    """
    plant = system.plant
    T = options.horizon
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
    rng = ensure_rng(options.seed)

    if attack is None:
        attack = np.zeros((T, m))
    else:
        attack = np.asarray(attack, dtype=float)
        if attack.shape != (T, m):
            raise ValidationError(f"attack must have shape {(T, m)}, got {attack.shape}")

    if process_noise is None:
        process_noise = _noise_samples(plant.Q_w, n, T, rng, options.with_noise)
    else:
        process_noise = np.asarray(process_noise, dtype=float)
        if process_noise.shape != (T, n):
            raise ValidationError(
                f"process_noise must have shape {(T, n)}, got {process_noise.shape}"
            )
    if measurement_noise is None:
        measurement_noise = _noise_samples(plant.R_v, m, T, rng, options.with_noise)
    else:
        measurement_noise = np.asarray(measurement_noise, dtype=float)
        if measurement_noise.shape != (T, m):
            raise ValidationError(
                f"measurement_noise must have shape {(T, m)}, got {measurement_noise.shape}"
            )

    x = np.zeros(n) if options.x0 is None else np.asarray(options.x0, dtype=float).reshape(-1)
    xhat = (
        np.zeros(n)
        if options.xhat0 is None
        else np.asarray(options.xhat0, dtype=float).reshape(-1)
    )
    if x.size != n:
        raise ValidationError(f"x0 must have length {n}, got {x.size}")
    if xhat.size != n:
        raise ValidationError(f"xhat0 must have length {n}, got {xhat.size}")
    u = np.zeros(p)

    states = np.zeros((T + 1, n))
    estimates = np.zeros((T + 1, n))
    inputs = np.zeros((T + 1, p))
    measurements = np.zeros((T, m))
    true_outputs = np.zeros((T, m))
    residues = np.zeros((T, m))

    states[0] = x
    estimates[0] = xhat
    inputs[0] = u

    for k in range(T):
        v_k = measurement_noise[k]
        w_k = process_noise[k]
        y_true = plant.output(x, u, v_k)
        y_attacked = y_true + attack[k]
        y_estimate = plant.output(xhat, u)
        z = y_attacked - y_estimate

        true_outputs[k] = y_true
        measurements[k] = y_attacked
        residues[k] = z

        x = plant.step_state(x, u, w_k)
        xhat = plant.step_state(xhat, u) + system.L @ z
        u = system.control(xhat)

        states[k + 1] = x
        estimates[k + 1] = xhat
        inputs[k + 1] = u

    return SimulationTrace(
        states=states,
        estimates=estimates,
        inputs=inputs,
        measurements=measurements,
        true_outputs=true_outputs,
        residues=residues,
        attacks=attack.copy(),
        process_noise=process_noise.copy(),
        measurement_noise=measurement_noise.copy(),
        dt=system.dt,
        metadata={"system": system.name},
    )
