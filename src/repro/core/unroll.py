"""Affine unrolling of the attacked closed loop.

For the formal analysis the closed loop is noiseless and every signal is an
affine function of the decision vector ``theta`` consisting of

* the injected false data ``a_k[c]`` for every attackable channel ``c`` and
  every sampling instance ``k`` (0-based, ``k = 0 .. T-1``), and
* optionally the free components of the initial state when an initial *set*
  rather than a point is analysed.

Following the update order of the paper's Algorithm 1, the augmented state
``s_k = [x_k; xhat_k; u_k]`` evolves as

.. math::

    s_{k+1} = M s_k + G a_k + h, \\qquad
    M = \\begin{bmatrix} A & 0 & B \\\\ LC & A - LC & B \\\\
        -KLC & -K(A - LC) & -KB \\end{bmatrix},\\;
    G = \\begin{bmatrix} 0 \\\\ L \\\\ -KL \\end{bmatrix},\\;
    h = \\begin{bmatrix} 0 \\\\ 0 \\\\ N r \\end{bmatrix},

with residue ``z_k = C (x_k - xhat_k) + a_k`` and attacked measurement
``y_k = C x_k + D u_k + a_k``.  This module computes, for each sampling
instance, the matrices mapping ``theta`` to those signals, which the
attack-synthesis backends consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.fdi import AttackChannelMask, FDIAttack
from repro.lti.simulate import ClosedLoopSystem
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class AffineConstraint:
    """A constraint ``row · theta + constant <= 0`` (strict when ``strict``).

    ``kind`` tags the constraint's origin (``"stealth"``, ``"mdc"`` or
    ``"generic"``); the LP backend uses it to decide which constraints
    receive the stealth-margin slack when searching for maximally stealthy
    counterexamples.
    """

    row: np.ndarray
    constant: float
    strict: bool = False
    label: str = ""
    kind: str = "generic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", np.asarray(self.row, dtype=float).reshape(-1))
        object.__setattr__(self, "constant", float(self.constant))

    def violated_by(self, theta: np.ndarray, tol: float = 1e-7) -> bool:
        """Check the constraint on a concrete decision vector."""
        value = float(self.row @ theta) + self.constant
        return value >= 0.0 if self.strict else value > tol


@dataclass(frozen=True)
class AffineMap:
    """An affine map ``value = matrix @ theta + constant``."""

    matrix: np.ndarray
    constant: np.ndarray

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(theta, dtype=float).reshape(-1) + self.constant

    def row(self, index: int) -> tuple[np.ndarray, float]:
        """One output component as ``(row, constant)``."""
        return self.matrix[index], float(self.constant[index])


class ClosedLoopUnrolling:
    """Affine maps from the decision vector to every closed-loop signal.

    Parameters
    ----------
    system:
        The closed loop to unroll (its plant noise model is ignored — the
        formal analysis is deterministic).
    horizon:
        Number of closed-loop iterations ``T``.
    attack_mask:
        Channels the attacker controls; protected channels carry no decision
        variable (their injection is identically zero).
    x0:
        Nominal initial plant state ``x_1``.
    initial_box:
        Optional per-component ``(low, high)`` bounds; components whose
        bounds differ become decision variables constrained to the interval
        (the paper's "any initial state in V").
    """

    def __init__(
        self,
        system: ClosedLoopSystem,
        horizon: int,
        attack_mask: AttackChannelMask | None = None,
        x0: np.ndarray | None = None,
        initial_box: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        if int(horizon) <= 0:
            raise ValidationError("horizon must be positive")
        self.system = system
        self.horizon = int(horizon)
        plant = system.plant
        n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
        self.n_states, self.n_outputs, self.n_inputs = n, m, p

        if attack_mask is None:
            attack_mask = AttackChannelMask.all_channels(m)
        if attack_mask.n_outputs != m:
            raise ValidationError(
                f"attack mask covers {attack_mask.n_outputs} outputs, plant has {m}"
            )
        self.attack_mask = attack_mask

        if x0 is None:
            x0 = np.zeros(n)
        self.x0 = np.asarray(x0, dtype=float).reshape(-1)
        if self.x0.size != n:
            raise ValidationError(f"x0 must have length {n}, got {self.x0.size}")

        self.initial_box = initial_box
        self._free_initial_components: list[int] = []
        if initial_box is not None:
            low = np.asarray(initial_box[0], dtype=float).reshape(-1)
            high = np.asarray(initial_box[1], dtype=float).reshape(-1)
            if low.size != n or high.size != n:
                raise ValidationError("initial_box bounds must have length n")
            if np.any(low > high):
                raise ValidationError("initial_box must satisfy low <= high componentwise")
            self.initial_box = (low, high)
            self._free_initial_components = [int(i) for i in range(n) if high[i] > low[i]]

        # ------------------------------------------------------------------
        # Decision-variable layout: attack variables first, then free x0.
        # ------------------------------------------------------------------
        self._attack_channels = list(self.attack_mask.attackable)
        self._attack_var_count = self.horizon * len(self._attack_channels)
        self.n_variables = self._attack_var_count + len(self._free_initial_components)

        names: list[str] = []
        for k in range(self.horizon):
            for channel in self._attack_channels:
                names.append(f"a[{k}][{channel}]")
        for index in self._free_initial_components:
            names.append(f"x0[{index}]")
        self.variable_names = names

        self._build_maps()

    # ------------------------------------------------------------------
    def attack_variable_index(self, k: int, channel: int) -> int:
        """Position of ``a_k[channel]`` in the decision vector."""
        if channel not in self._attack_channels:
            raise ValidationError(f"channel {channel} is not attackable")
        return k * len(self._attack_channels) + self._attack_channels.index(channel)

    def initial_variable_index(self, component: int) -> int:
        """Position of free initial-state component ``x0[component]``."""
        if component not in self._free_initial_components:
            raise ValidationError(f"x0[{component}] is not a free variable")
        return self._attack_var_count + self._free_initial_components.index(component)

    def _attack_selector(self, k: int) -> np.ndarray:
        """Matrix mapping theta to the full m-dimensional injection at step k."""
        selector = np.zeros((self.n_outputs, self.n_variables))
        for channel in self._attack_channels:
            selector[channel, self.attack_variable_index(k, channel)] = 1.0
        return selector

    # ------------------------------------------------------------------
    def _build_maps(self) -> None:
        plant = self.system.plant
        n, m, p = self.n_states, self.n_outputs, self.n_inputs
        A, B, C, D = plant.A, plant.B, plant.C, plant.D
        K, L = self.system.K, self.system.L
        feedforward_term = self.system.feedforward @ self.system.reference

        dim = 2 * n + p
        M = np.zeros((dim, dim))
        M[:n, :n] = A
        M[:n, 2 * n :] = B
        M[n : 2 * n, :n] = L @ C
        M[n : 2 * n, n : 2 * n] = A - L @ C
        M[n : 2 * n, 2 * n :] = B
        M[2 * n :, :n] = -K @ L @ C
        M[2 * n :, n : 2 * n] = -K @ (A - L @ C)
        M[2 * n :, 2 * n :] = -K @ B

        G = np.zeros((dim, m))
        G[n : 2 * n, :] = L
        G[2 * n :, :] = -K @ L

        h = np.zeros(dim)
        h[2 * n :] = feedforward_term

        # Initial augmented state as an affine function of theta.
        S = np.zeros((dim, self.n_variables))
        s_const = np.zeros(dim)
        s_const[:n] = self.x0
        for component in self._free_initial_components:
            S[component, self.initial_variable_index(component)] = 1.0
            s_const[component] = 0.0

        # Output selection blocks.
        residue_block = np.hstack([C, -C, np.zeros((m, p))])
        measurement_block = np.hstack([C, np.zeros((m, n)), D])
        state_block = np.hstack([np.eye(n), np.zeros((n, n + p))])
        estimate_block = np.hstack([np.zeros((n, n)), np.eye(n), np.zeros((n, p))])
        input_block = np.hstack([np.zeros((p, 2 * n)), np.eye(p)])

        self._state_maps: list[AffineMap] = []
        self._estimate_maps: list[AffineMap] = []
        self._input_maps: list[AffineMap] = []
        self._residue_maps: list[AffineMap] = []
        self._measurement_maps: list[AffineMap] = []

        for k in range(self.horizon + 1):
            self._state_maps.append(AffineMap(state_block @ S, state_block @ s_const))
            self._estimate_maps.append(AffineMap(estimate_block @ S, estimate_block @ s_const))
            self._input_maps.append(AffineMap(input_block @ S, input_block @ s_const))
            if k < self.horizon:
                selector = self._attack_selector(k)
                self._residue_maps.append(
                    AffineMap(residue_block @ S + selector, residue_block @ s_const)
                )
                self._measurement_maps.append(
                    AffineMap(measurement_block @ S + selector, measurement_block @ s_const)
                )
                S = M @ S + G @ selector
                s_const = M @ s_const + h

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    def state_map(self, k: int) -> AffineMap:
        """Affine map to the plant state after ``k`` iterations (``k = 0 .. T``)."""
        return self._state_maps[k]

    def estimate_map(self, k: int) -> AffineMap:
        """Affine map to the estimator state after ``k`` iterations."""
        return self._estimate_maps[k]

    def input_map(self, k: int) -> AffineMap:
        """Affine map to the control input applied during iteration ``k``."""
        return self._input_maps[k]

    def residue_map(self, k: int) -> AffineMap:
        """Affine map to the residue ``z_{k+1}`` observed at iteration ``k`` (``k = 0 .. T-1``)."""
        return self._residue_maps[k]

    def measurement_map(self, k: int) -> AffineMap:
        """Affine map to the attacked measurement delivered at iteration ``k``."""
        return self._measurement_maps[k]

    # ------------------------------------------------------------------
    def attack_from_theta(self, theta: np.ndarray) -> FDIAttack:
        """Extract the ``(T, m)`` attack matrix encoded in a decision vector."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.n_variables:
            raise ValidationError(
                f"theta must have length {self.n_variables}, got {theta.size}"
            )
        values = np.zeros((self.horizon, self.n_outputs))
        for k in range(self.horizon):
            for channel in self._attack_channels:
                values[k, channel] = theta[self.attack_variable_index(k, channel)]
        return FDIAttack(values, mask=self.attack_mask)

    def initial_state_from_theta(self, theta: np.ndarray) -> np.ndarray:
        """Extract the initial plant state encoded in a decision vector."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        x0 = self.x0.copy()
        for component in self._free_initial_components:
            x0[component] = theta[self.initial_variable_index(component)]
        return x0

    def theta_from_attack(self, attack: FDIAttack, x0: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`attack_from_theta` (useful in tests)."""
        theta = np.zeros(self.n_variables)
        values = attack.values
        for k in range(min(self.horizon, values.shape[0])):
            for channel in self._attack_channels:
                theta[self.attack_variable_index(k, channel)] = values[k, channel]
        if x0 is not None:
            x0 = np.asarray(x0, dtype=float).reshape(-1)
            for component in self._free_initial_components:
                theta[self.initial_variable_index(component)] = x0[component]
        return theta

    # ------------------------------------------------------------------
    def variable_bounds(
        self,
        attack_bound: float | np.ndarray | None,
    ) -> list[tuple[float | None, float | None]]:
        """Per-variable ``(low, high)`` bounds for the LP backend.

        Attack variables get ``[-attack_bound, attack_bound]`` (per channel
        when an array is given); free initial-state variables get the
        initial-box bounds.
        """
        bounds: list[tuple[float | None, float | None]] = []
        if attack_bound is None:
            per_channel = {channel: None for channel in self._attack_channels}
        else:
            bound_array = np.asarray(attack_bound, dtype=float)
            if bound_array.ndim == 0:
                per_channel = {channel: float(bound_array) for channel in self._attack_channels}
            else:
                bound_array = bound_array.reshape(-1)
                if bound_array.size != self.n_outputs:
                    raise ValidationError(
                        f"attack_bound array must have length {self.n_outputs}"
                    )
                per_channel = {channel: float(bound_array[channel]) for channel in self._attack_channels}
        for _ in range(self.horizon):
            for channel in self._attack_channels:
                bound = per_channel[channel]
                bounds.append((None, None) if bound is None else (-bound, bound))
        if self.initial_box is not None:
            low, high = self.initial_box
            for component in self._free_initial_components:
                bounds.append((float(low[component]), float(high[component])))
        return bounds
