"""The threshold-synthesis problem instance ``<S, C, pfc>``.

Bundles everything Algorithm 1 needs: the closed-loop implementation (plant
model, controller gain, estimator gain), the performance criterion ``pfc``,
the pre-existing monitoring constraints ``mdc``, the analysis horizon ``T``,
the attacker model (attackable channels, per-sample injection bound) and the
initial condition (point or box).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.attacks.fdi import AttackChannelMask, FDIAttack
from repro.core.specs import PerformanceCriterion
from repro.core.unroll import ClosedLoopUnrolling
from repro.detectors.threshold import ThresholdVector, residue_norms
from repro.lti.simulate import (
    ClosedLoopSystem,
    SimulationOptions,
    SimulationTrace,
    simulate_closed_loop,
)
from repro.monitors.composite import CompositeMonitor
from repro.utils.validation import ValidationError, check_positive


@dataclass
class SynthesisProblem:
    """One instance of the paper's formal problem statement.

    Parameters
    ----------
    system:
        The closed-loop implementation under analysis.
    pfc:
        Performance criterion the controller must satisfy within ``horizon``
        iterations.
    horizon:
        Analysis window ``T`` (number of closed-loop iterations).
    mdc:
        Existing monitoring constraints (empty composite when the plant has
        none).
    x0:
        Initial plant state used by the formal model (defaults to zero).
    initial_box:
        Optional ``(low, high)`` component-wise box of initial states; when
        given, the attacker may also pick the initial state inside the box.
    attack_mask:
        Channels the attacker can falsify (default: all).
    attack_bound:
        Per-sample bound on the magnitude of the injected false data (scalar
        or per-channel array).  ``None`` leaves the injection unbounded,
        relying on ``mdc`` and the thresholds to constrain it.
    strictness:
        Margin used to turn the strict inequalities of the stealth condition
        into numerically robust constraints; also guarantees progress of the
        synthesis loops.
    residue_norm:
        Norm used by the detector: ``1``, ``2`` or ``"inf"`` (``"inf"``
        keeps the encoding affine).
    residue_weights:
        Optional per-channel residue scaling (normalised residues): the
        detector compares ``norm(z_k / weights)`` against the threshold.
        Use the per-channel noise standard deviations when the measurement
        channels have very different physical units.
    """

    system: ClosedLoopSystem
    pfc: PerformanceCriterion
    horizon: int
    mdc: CompositeMonitor = field(default_factory=CompositeMonitor.empty)
    x0: np.ndarray | None = None
    initial_box: tuple[np.ndarray, np.ndarray] | None = None
    attack_mask: AttackChannelMask | None = None
    attack_bound: float | np.ndarray | None = None
    strictness: float = 1e-4
    residue_norm: float | str = "inf"
    residue_weights: np.ndarray | None = None
    name: str = "synthesis-problem"

    def __post_init__(self) -> None:
        self.horizon = int(check_positive("horizon", self.horizon))
        n = self.system.plant.n_states
        m = self.system.plant.n_outputs
        if self.x0 is None:
            self.x0 = np.zeros(n)
        else:
            self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
            if self.x0.size != n:
                raise ValidationError(f"x0 must have length {n}")
        if self.attack_mask is None:
            self.attack_mask = AttackChannelMask.all_channels(m)
        if self.residue_weights is not None:
            self.residue_weights = np.asarray(self.residue_weights, dtype=float).reshape(-1)
            if self.residue_weights.size != m:
                raise ValidationError(f"residue_weights must have length {m}")
            if np.any(self.residue_weights <= 0):
                raise ValidationError("residue_weights must be strictly positive")
        if self.residue_norm not in (1, 2, "inf"):
            raise ValidationError(
                f"residue_norm must be 1, 2 or 'inf', got {self.residue_norm!r}"
            )
        if self.strictness < 0:
            raise ValidationError("strictness must be non-negative")
        required = self.pfc.required_horizon()
        if required is not None and required > self.horizon:
            raise ValidationError(
                f"pfc requires horizon >= {required}, problem horizon is {self.horizon}"
            )

    # ------------------------------------------------------------------
    @property
    def dt(self) -> float:
        """Sampling period of the plant."""
        return self.system.dt

    @property
    def n_outputs(self) -> int:
        """Number of measurement channels."""
        return self.system.plant.n_outputs

    def unrolling(self) -> ClosedLoopUnrolling:
        """Affine unrolling of the (noiseless) closed loop for this problem."""
        return ClosedLoopUnrolling(
            system=self.system,
            horizon=self.horizon,
            attack_mask=self.attack_mask,
            x0=self.x0,
            initial_box=self.initial_box,
        )

    def fresh_threshold(self) -> ThresholdVector:
        """An all-unset threshold vector of the problem's horizon."""
        return ThresholdVector.unset(
            self.horizon, norm=self.residue_norm, weights=self.residue_weights
        )

    def static_threshold(self, value: float) -> ThresholdVector:
        """A static threshold vector carrying the problem's norm and weights."""
        return ThresholdVector.static(
            value, self.horizon, norm=self.residue_norm, weights=self.residue_weights
        )

    # ------------------------------------------------------------------
    # simulation helpers
    # ------------------------------------------------------------------
    def simulate(
        self,
        attack: FDIAttack | np.ndarray | None = None,
        with_noise: bool = False,
        seed=None,
        x0: np.ndarray | None = None,
        measurement_noise: np.ndarray | None = None,
        process_noise: np.ndarray | None = None,
    ) -> SimulationTrace:
        """Simulate the closed loop over the problem horizon.

        With ``with_noise=False`` and no explicit noise this reproduces the
        deterministic formal model used by the solver encodings.
        """
        attack_values = None
        if attack is not None:
            attack_values = attack.values if isinstance(attack, FDIAttack) else np.asarray(attack)
        options = SimulationOptions(
            horizon=self.horizon,
            with_noise=with_noise,
            seed=seed,
            x0=self.x0 if x0 is None else x0,
        )
        return simulate_closed_loop(
            self.system,
            options,
            attack=attack_values,
            measurement_noise=measurement_noise,
            process_noise=process_noise,
        )

    # ------------------------------------------------------------------
    # verdicts on concrete traces
    # ------------------------------------------------------------------
    def pfc_satisfied(self, trace: SimulationTrace) -> bool:
        """Does the trace meet the performance criterion?"""
        return self.pfc.satisfied_on_trace(trace)

    def mdc_alarm(self, trace: SimulationTrace) -> bool:
        """Does any existing monitor alarm on the trace's measurements?"""
        if len(self.mdc) == 0:
            return False
        return bool(np.any(self.mdc.alarms(trace.measurements, self.dt)))

    def detector_alarm(self, trace: SimulationTrace, threshold: ThresholdVector) -> bool:
        """Does the residue-based detector with ``threshold`` alarm on the trace?"""
        return bool(np.any(threshold.alarms(trace.residues)))

    def is_successful_stealthy_attack(
        self,
        trace: SimulationTrace,
        threshold: ThresholdVector | None,
    ) -> bool:
        """Paper's success notion: ``pfc`` violated while every detector stays quiet."""
        if self.pfc_satisfied(trace):
            return False
        if self.mdc_alarm(trace):
            return False
        if threshold is not None and self.detector_alarm(trace, threshold):
            return False
        return True

    # ------------------------------------------------------------------
    def with_horizon(self, horizon: int) -> "SynthesisProblem":
        """Copy of the problem with a different analysis horizon."""
        return replace(self, horizon=int(horizon))

    def residue_norms(self, residues: np.ndarray) -> np.ndarray:
        """Residue norms under the problem's detector norm and channel weights."""
        return residue_norms(
            np.atleast_2d(np.asarray(residues, dtype=float)),
            self.residue_norm,
            self.residue_weights,
        )
