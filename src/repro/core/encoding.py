"""Constraint encoding shared by the attack-synthesis backends.

Algorithm 1 asks for an attack vector such that

* every residue stays strictly below its threshold (stealth w.r.t. the
  residue detector),
* every existing monitoring constraint ``mdc`` is satisfied (stealth w.r.t.
  the plant monitors), and
* the performance criterion ``pfc`` is violated.

For the noiseless LTI closed loop all involved signals are affine in the
decision vector, so the first two items become a conjunction of affine
constraints and the third a disjunction of affine constraints (one branch per
way of violating a ``pfc`` condition).  This module materialises exactly that
structure, and the LP backend enumerates the branches.

The encoding is split along the counterexample-guided synthesis loop's axis
of change: the horizon unrolling, the monitor (``mdc``) constraints and the
violation branches depend only on the problem and are built once; the stealth
constraints depend on the candidate threshold vector and are re-emitted per
round from a precomputed :class:`StealthTemplate` (fixed rows, per-round
constants).  :meth:`AttackEncoding.with_threshold` rebinds an encoding to a
new threshold in O(1) without touching the static blocks, which is what makes
:class:`~repro.core.session.SynthesisSession` cheap.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import SynthesisProblem
from repro.core.unroll import AffineConstraint, ClosedLoopUnrolling
from repro.detectors.threshold import ThresholdVector
from repro.utils.validation import ValidationError

# Count of full (static-block) encoding builds, for benchmarks and regression
# tests of the session engine: a synthesis loop routed through a session
# should register one build per problem, not one per round.
_FULL_BUILDS = 0


def encoding_build_count() -> int:
    """Number of full :class:`AttackEncoding` builds since interpreter start."""
    return _FULL_BUILDS


@dataclass(frozen=True)
class StealthTemplate:
    """Threshold-independent part of the stealth constraints.

    The stealth condition at instance ``k``, channel ``c`` is the pair
    ``±z_k[c] / w_c < Th[k]``; only the bound ``Th[k]`` changes between
    synthesis rounds.  The template stores, in exactly the emission order of
    the legacy per-round build (``k`` outer, channel inner, ``+`` row before
    ``-`` row), the scaled rows, scaled constants, per-row sample index and
    labels, so each round only subtracts the per-row bound.

    Attributes
    ----------
    rows:
        ``(2 * horizon * m, n_variables)`` stacked constraint rows.
    constants:
        ``(2 * horizon * m,)`` scaled affine constants (bound not applied).
    sample_index:
        ``(2 * horizon * m,)`` sampling instance of each row (for selecting
        the per-row threshold bound).
    labels:
        Constraint labels, aligned with ``rows``.
    """

    rows: np.ndarray
    constants: np.ndarray
    sample_index: np.ndarray
    labels: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        """Total number of template rows (finite and not)."""
        return self.rows.shape[0]

    def bounds_per_row(self, effective: np.ndarray) -> np.ndarray:
        """Per-row threshold bound for one effective threshold vector."""
        return effective[self.sample_index]

    def finite_mask(self, effective: np.ndarray) -> np.ndarray:
        """Rows whose instance carries a finite threshold (emitted rows)."""
        return np.isfinite(self.bounds_per_row(effective))


@dataclass
class AttackEncoding:
    """Affine-constraint view of one Algorithm 1 query.

    Attributes
    ----------
    problem:
        The synthesis problem being queried.
    threshold:
        Candidate threshold vector (``None`` disables the residue detector,
        matching the first call of the synthesis loops).
    unrolling:
        The affine closed-loop unrolling used to build every constraint.
    """

    problem: SynthesisProblem
    threshold: ThresholdVector | None = None
    unrolling: ClosedLoopUnrolling = None
    _static: list[AffineConstraint] = field(default_factory=list, repr=False)
    _branches: list[AffineConstraint] = field(default_factory=list, repr=False)
    _stealth_template: StealthTemplate | None = field(default=None, repr=False)
    _stealth: list[AffineConstraint] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.problem.residue_norm != "inf":
            raise ValidationError(
                "formal attack synthesis requires the infinity residue norm "
                "(problem.residue_norm='inf'); other norms are only supported "
                "for simulation-based evaluation"
            )
        if self.unrolling is None:
            self.unrolling = self.problem.unrolling()
        self._static = self._monitor_constraints()
        self._branches = self._build_violation_branches()
        self._stealth_template = self._build_stealth_template()
        self._stealth = None
        global _FULL_BUILDS
        _FULL_BUILDS += 1

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        """Number of decision variables."""
        return self.unrolling.n_variables

    def base_constraints(self) -> list[AffineConstraint]:
        """Stealth + monitor constraints that must all hold."""
        if self._stealth is None:
            self._stealth = self.stealth_constraints(self.threshold)
        return self._stealth + self._static

    def static_constraints(self) -> list[AffineConstraint]:
        """The threshold-independent conjunctive block (monitor constraints)."""
        return list(self._static)

    def violation_branches(self) -> list[AffineConstraint]:
        """One constraint per way of violating the performance criterion."""
        return list(self._branches)

    def variable_bounds(self) -> list[tuple[float | None, float | None]]:
        """Box bounds on the decision variables (attack bound + initial box)."""
        return self.unrolling.variable_bounds(self.problem.attack_bound)

    @property
    def stealth_template(self) -> StealthTemplate:
        """The precomputed threshold-independent stealth structure."""
        return self._stealth_template

    # ------------------------------------------------------------------
    def with_threshold(self, threshold: ThresholdVector | None) -> "AttackEncoding":
        """Rebind this encoding to a new candidate threshold in O(1).

        The clone shares the unrolling, the monitor constraints, the
        violation branches and the stealth template with ``self``; only the
        (lazily built) stealth constraint list differs.
        """
        clone = copy.copy(self)
        clone.threshold = threshold
        clone._stealth = None
        return clone

    # ------------------------------------------------------------------
    def _strictified(
        self, row: np.ndarray, constant: float, label: str, kind: str = "generic"
    ) -> AffineConstraint:
        """Encode a strict inequality ``row·theta + constant < 0`` robustly.

        With a positive strictness margin the constraint becomes the
        non-strict ``row·theta + constant + margin <= 0``.  With zero margin
        the strict flag is kept, and the LP backend decides the closure of
        the strict set (``<= 0``): its UNSAT stays sound, because the strict
        set lies inside that closure, but a SAT witness may sit on the
        boundary and then fail replay.
        """
        margin = float(self.problem.strictness)
        if margin > 0:
            return AffineConstraint(
                row=row, constant=constant + margin, strict=False, label=label, kind=kind
            )
        return AffineConstraint(row=row, constant=constant, strict=True, label=label, kind=kind)

    def _build_stealth_template(self) -> StealthTemplate:
        """Precompute rows/constants of ``|z_k[i]| / w_i < Th[k]`` for every instance."""
        horizon = self.problem.horizon
        m = self.problem.n_outputs
        weights = self.problem.residue_weights
        if weights is None:
            weights = np.ones(m)
        rows = np.zeros((2 * horizon * m, self.n_variables))
        constants = np.zeros(2 * horizon * m)
        sample_index = np.zeros(2 * horizon * m, dtype=int)
        labels: list[str] = []
        position = 0
        for k in range(horizon):
            residue = self.unrolling.residue_map(k)
            for channel in range(m):
                row, constant = residue.row(channel)
                scale = float(weights[channel])
                row = row / scale
                constant = constant / scale
                rows[position] = row
                constants[position] = constant
                sample_index[position] = k
                labels.append(f"stealth[z{channel}@{k}]<Th")
                position += 1
                rows[position] = -row
                constants[position] = -constant
                sample_index[position] = k
                labels.append(f"stealth[-z{channel}@{k}]<Th")
                position += 1
        return StealthTemplate(
            rows=rows,
            constants=constants,
            sample_index=sample_index,
            labels=tuple(labels),
        )

    def stealth_constraints(
        self, threshold: ThresholdVector | None
    ) -> list[AffineConstraint]:
        """``|z_k[i]| / w_i < Th[k]`` for every instance with a finite threshold.

        Built from the precomputed template; rows, constants, labels and
        emission order are identical to a from-scratch per-round build.
        """
        if threshold is None:
            return []
        template = self._stealth_template
        effective = threshold.effective(self.problem.horizon)
        bounds = template.bounds_per_row(effective)
        constraints: list[AffineConstraint] = []
        for index in np.flatnonzero(np.isfinite(bounds)):
            constraints.append(
                self._strictified(
                    template.rows[index],
                    template.constants[index] - bounds[index],
                    template.labels[index],
                    kind="stealth",
                )
            )
        return constraints

    def _monitor_constraints(self) -> list[AffineConstraint]:
        """All ``mdc`` conditions mapped onto the decision variables.

        The encoding requires the monitors to be satisfied at every sampling
        instance.  This is the conservative reading of dead-zone monitors
        (the attacker never violates them); see
        ``DeadZoneMonitor.stealth_windows`` for the exact semantics.
        """
        constraints: list[AffineConstraint] = []
        mdc = self.problem.mdc
        if len(mdc) == 0:
            return constraints
        dt = self.problem.dt
        for k in range(self.problem.horizon):
            for condition in mdc.conditions_at(k, dt):
                row = np.zeros(self.n_variables)
                constant = condition.constant
                for sample, channel, coefficient in condition.terms:
                    sample_row, sample_constant = self.unrolling.measurement_map(sample).row(channel)
                    row = row + coefficient * sample_row
                    constant += coefficient * sample_constant
                if condition.upper is not None:
                    constraints.append(
                        AffineConstraint(
                            row=row,
                            constant=constant - condition.upper,
                            strict=False,
                            label=f"mdc[{condition.label}]<=ub",
                            kind="mdc",
                        )
                    )
                if condition.lower is not None:
                    constraints.append(
                        AffineConstraint(
                            row=-row,
                            constant=condition.lower - constant,
                            strict=False,
                            label=f"mdc[{condition.label}]>=lb",
                            kind="mdc",
                        )
                    )
        return constraints

    def _build_violation_branches(self) -> list[AffineConstraint]:
        """Each branch asserts that one ``pfc`` condition fails (strictly)."""
        branches: list[AffineConstraint] = []
        for condition in self.problem.pfc.conditions(self.problem.horizon):
            row = np.zeros(self.n_variables)
            constant = condition.constant
            for sample, index, coefficient in condition.terms:
                sample_row, sample_constant = self.unrolling.state_map(sample).row(index)
                row = row + coefficient * sample_row
                constant += coefficient * sample_constant
            if condition.lower is not None:
                # Violation: value < lower.
                branches.append(
                    self._strictified(
                        row,
                        constant - condition.lower,
                        f"violate[{condition.label}]<lb",
                        kind="violation",
                    )
                )
            if condition.upper is not None:
                # Violation: value > upper.
                branches.append(
                    self._strictified(
                        -row,
                        condition.upper - constant,
                        f"violate[{condition.label}]>ub",
                        kind="violation",
                    )
                )
        return branches

    # ------------------------------------------------------------------
    def theta_satisfies_base(self, theta: np.ndarray) -> bool:
        """Check a candidate decision vector against all base constraints."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        return not any(constraint.violated_by(theta) for constraint in self.base_constraints())

    def theta_violates_pfc(self, theta: np.ndarray) -> bool:
        """Check whether a candidate decision vector triggers some violation branch."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        for branch in self._branches:
            value = float(branch.row @ theta) + branch.constant
            if value <= 0.0:
                return True
        return False
