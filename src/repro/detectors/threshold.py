"""Threshold specifications for residue-based detectors.

A threshold specification ``Th`` is a length-``l`` vector: ``Th[k]`` is the
residue bound applied at the ``(k+1)``-th sampling instance.  The paper's
synthesis algorithms produce *monotonically decreasing* variable thresholds;
this class records the vector, offers the structural predicates the
algorithms need (static / variable, monotone, staircase) and the mutation
helpers used by the synthesis loops (set a value while preserving
monotonicity, clamp successors, fill steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ValidationError, check_positive

#: Comparison slack of the alarm predicate ``||z_k|| >= Th[k]``.  The solver
#: encodings place residues *exactly* on the threshold boundary (up to LP/SMT
#: arithmetic), so the concrete-trace alarm check must not let a residue that
#: is numerically equal to the threshold slip under it.  Every alarm path —
#: offline (:meth:`ThresholdVector.alarms`, ``ResidueDetector``), the FAR
#: study and the online runtime cores — goes through :func:`alarm_comparison`
#: so the convention cannot drift between deployments.
ALARM_TOLERANCE = 1e-12


def alarm_comparison(norms: np.ndarray, thresholds: np.ndarray | float) -> np.ndarray:
    """The shared alarm predicate ``norms >= thresholds - ALARM_TOLERANCE``.

    ``norms`` may carry any batch shape (per-sample, per-instance, or a full
    ``(N, T)`` block) as long as it broadcasts against ``thresholds``.
    """
    return np.asarray(norms) >= np.asarray(thresholds) - ALARM_TOLERANCE


def residue_norms(
    residues: np.ndarray, norm: float | str, weights: np.ndarray | None = None
) -> np.ndarray:
    """Norms of residue vectors along the last (channel) axis.

    The one residue-norm expression of the library: offline detectors apply
    it to a ``(T, m)`` trace, the online cores to an ``(N, m)`` block or a
    whole ``(T, N, m)`` horizon.  ``weights`` divides each channel first
    (the normalised residue).  A single channel takes a shortcut that is
    bit-identical to the reductions it skips — ``|x|`` for the inf- and
    1-norms, ``sqrt(x*x)`` for the 2-norm.  Multi-channel 1-/2-norms reduce
    over a C-contiguous channel axis, so a strided view of a block sums in
    the same order as the contiguous per-step block it came from.
    """
    if weights is not None:
        residues = residues / weights
    if residues.shape[-1] == 1:
        channel = residues[..., 0]
        if norm == 2:
            squared = channel * channel
            return np.sqrt(squared, out=squared)
        return np.abs(channel)
    if norm == "inf":
        return np.max(np.abs(residues), axis=-1)
    return np.linalg.norm(np.ascontiguousarray(residues), ord=norm, axis=-1)


@dataclass
class ThresholdVector:
    """A per-sample residue threshold ``Th``.

    Attributes
    ----------
    values:
        Length-``l`` array of thresholds.  The sentinel value ``numpy.inf``
        means "no threshold at this instance yet" (the synthesis algorithms
        start from an all-unset vector, the paper's ``Th = NULL``).
    norm:
        Which residue norm the detector compares against the threshold:
        ``2`` (Euclidean) or ``"inf"`` (max absolute component).  The formal
        encodings use the infinity norm so that stealth is an affine
        condition; the default mirrors that.
    weights:
        Optional per-channel scaling: the detector compares
        ``norm(z_k / weights)`` against ``Th[k]``.  Setting the weights to the
        per-channel noise standard deviations yields the classical
        *normalised residue*, which keeps channels with very different
        physical units (e.g. rad/s vs m/s^2) comparable.
    """

    values: np.ndarray
    norm: float | str = "inf"
    weights: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size == 0:
            raise ValidationError("ThresholdVector must have at least one entry")
        if np.any(values < 0):
            raise ValidationError("thresholds must be non-negative")
        self.values = values
        if self.norm not in (1, 2, "inf"):
            raise ValidationError("norm must be 1, 2 or 'inf'")
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=float).reshape(-1)
            if np.any(weights <= 0):
                raise ValidationError("residue weights must be strictly positive")
            self.weights = weights

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def unset(
        cls, length: int, norm: float | str = "inf", weights: np.ndarray | None = None
    ) -> "ThresholdVector":
        """The all-unset vector (no detection at any instance)."""
        length = int(check_positive("length", length))
        return cls(np.full(length, np.inf), norm=norm, weights=weights)

    @classmethod
    def static(
        cls,
        value: float,
        length: int,
        norm: float | str = "inf",
        weights: np.ndarray | None = None,
    ) -> "ThresholdVector":
        """A constant (static) threshold of the given length."""
        length = int(check_positive("length", length))
        value = float(value)
        if value < 0:
            raise ValidationError("static threshold must be non-negative")
        return cls(np.full(length, value), norm=norm, weights=weights)

    # ------------------------------------------------------------------
    # structure predicates
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of sampling instances covered."""
        return self.values.size

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> float:
        return float(self.values[index])

    def is_set(self, index: int) -> bool:
        """True when a finite threshold has been placed at ``index``."""
        return bool(np.isfinite(self.values[index]))

    def set_indices(self) -> np.ndarray:
        """Indices carrying a finite threshold."""
        return np.flatnonzero(np.isfinite(self.values))

    @property
    def is_fully_set(self) -> bool:
        """True when every instance has a finite threshold."""
        return bool(np.all(np.isfinite(self.values)))

    @property
    def is_static(self) -> bool:
        """True when all finite entries share a single value (paper's static Th)."""
        finite = self.values[np.isfinite(self.values)]
        if finite.size == 0:
            return True
        return bool(np.allclose(finite, finite[0]))

    @property
    def is_variable(self) -> bool:
        """True when at least two finite entries differ."""
        return not self.is_static

    def is_monotone_decreasing(self, tol: float = 1e-9) -> bool:
        """True when the finite entries are non-increasing in time.

        Unset (infinite) entries are ignored: the paper's invariant concerns
        the thresholds actually placed so far.
        """
        finite_indices = self.set_indices()
        finite = self.values[finite_indices]
        return bool(np.all(np.diff(finite) <= tol))

    def is_staircase(self, tol: float = 1e-9) -> bool:
        """True when the vector is piecewise constant with decreasing steps."""
        if not self.is_fully_set:
            return False
        if not self.is_monotone_decreasing(tol):
            return False
        return True

    def step_edges(self, tol: float = 1e-9) -> list[int]:
        """Indices at which the threshold value changes (staircase step edges)."""
        if self.length <= 1:
            return []
        changes = np.flatnonzero(np.abs(np.diff(self.values)) > tol)
        return [int(i + 1) for i in changes]

    # ------------------------------------------------------------------
    # mutation helpers used by the synthesis algorithms
    # ------------------------------------------------------------------
    def copy(self) -> "ThresholdVector":
        """Deep copy (the synthesis loops snapshot the vector every round)."""
        weights = None if self.weights is None else self.weights.copy()
        return ThresholdVector(
            self.values.copy(), norm=self.norm, weights=weights, metadata=dict(self.metadata)
        )

    def with_value(self, index: int, value: float) -> "ThresholdVector":
        """Copy with ``values[index] = value`` (no monotonicity repair)."""
        updated = self.copy()
        updated.values[index] = float(value)
        return updated

    def set_value(self, index: int, value: float) -> None:
        """In-place ``values[index] = value``."""
        self.values[int(index)] = float(value)

    def clamp_successors(self, index: int) -> None:
        """Force every later finite entry down to ``values[index]`` (paper Case 1c)."""
        ceiling = self.values[index]
        for k in range(index + 1, self.length):
            if np.isfinite(self.values[k]) and self.values[k] > ceiling:
                self.values[k] = ceiling

    def monotone_cap(self, index: int, candidate: float) -> float:
        """Largest value ``<= candidate`` that keeps monotonicity w.r.t. earlier entries.

        Mirrors the paper's ``min(forall k < i with Th[k] set, Th[k], candidate)``
        used when inserting a new threshold at ``index``.
        """
        earlier = self.values[:index]
        finite_earlier = earlier[np.isfinite(earlier)]
        if finite_earlier.size == 0:
            return float(candidate)
        return float(min(float(np.min(finite_earlier)), candidate))

    def fill_step(self, start: int, end: int, value: float) -> None:
        """Set ``values[start:end + 1] = value`` (staircase step in Algorithm 3)."""
        if start > end:
            raise ValidationError("fill_step requires start <= end")
        self.values[int(start) : int(end) + 1] = float(value)

    # ------------------------------------------------------------------
    # detector semantics
    # ------------------------------------------------------------------
    def effective(self, length: int | None = None) -> np.ndarray:
        """The finite threshold vector to hand to an online detector.

        Unset entries become ``inf`` (no detection at that instance).  When
        ``length`` exceeds the stored length, the last value is held; when it
        is shorter, the vector is truncated.
        """
        if length is None or length == self.length:
            return self.values.copy()
        length = int(length)
        if length < self.length:
            return self.values[:length].copy()
        extension = np.full(length - self.length, self.values[-1])
        return np.concatenate([self.values, extension])

    def residue_norms(self, residues: np.ndarray) -> np.ndarray:
        """Per-sample (weighted) residue norms using this specification's norm.

        ``residues`` is ``(..., m)``; the norm runs over the channel axis.
        """
        residues = np.atleast_2d(np.asarray(residues, dtype=float))
        if self.weights is not None and residues.shape[-1] != self.weights.size:
            raise ValidationError(
                f"residues have {residues.shape[-1]} channels, weights expect {self.weights.size}"
            )
        return residue_norms(residues, self.norm, self.weights)

    def alarms(self, residues: np.ndarray) -> np.ndarray:
        """Alarm flags ``||z_k|| >= Th[k]`` on a concrete residue sequence."""
        norms = self.residue_norms(residues)
        thresholds = self.effective(norms.shape[0])
        return alarm_comparison(norms, thresholds)

    def admits(self, residues: np.ndarray) -> bool:
        """True when the residue sequence stays strictly below the thresholds everywhere."""
        return not bool(np.any(self.alarms(residues)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "static" if self.is_static else "variable"
        return f"ThresholdVector(length={self.length}, {kind}, norm={self.norm!r})"
