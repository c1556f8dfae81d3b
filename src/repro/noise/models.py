"""Stochastic noise models with a common sampling interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.registry import NOISE_MODELS
from repro.utils.rng import ensure_rng
from repro.utils.validation import ValidationError, check_symmetric


class NoiseModel(abc.ABC):
    """Abstract per-sample noise model over a fixed-dimension vector.

    A subclass implements :meth:`sample`; :meth:`sample_block` then draws a
    population row by row.  The built-in models override
    :meth:`sample_block` with one vectorized call.
    """

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Dimension of each sample."""

    @abc.abstractmethod
    def sample(self, horizon: int, rng=None) -> np.ndarray:
        """Draw a ``(horizon, dimension)`` block of noise samples."""

    def sample_block(self, count: int, horizon: int, rng=None) -> np.ndarray:
        """Draw ``count`` realisations as one ``(count, horizon, dimension)`` block.

        Row ``i`` is realisation ``i``.  Blocks are prefix-stable: from two
        equal generators, ``sample_block(k, T)`` is the first ``k`` rows of
        ``sample_block(N, T)``, so a contiguous range of instances is a
        slice of the block.
        """
        rng = ensure_rng(rng)
        block = np.empty((int(count), int(horizon), self.dimension))
        for row in block:
            row[...] = self.sample(horizon, rng)
        return block

    def sample_one(self, rng=None) -> np.ndarray:
        """Draw a single sample (length ``dimension``)."""
        return self.sample(1, rng)[0]


@NOISE_MODELS.register("zero")
@dataclass(frozen=True)
class ZeroNoise(NoiseModel):
    """Deterministic zero noise (placeholder for noiseless channels)."""

    size: int

    @property
    def dimension(self) -> int:
        return self.size

    def sample(self, horizon: int, rng=None) -> np.ndarray:
        return np.zeros((int(horizon), self.size))

    def sample_block(self, count: int, horizon: int, rng=None) -> np.ndarray:
        return np.zeros((int(count), int(horizon), self.size))


@NOISE_MODELS.register("gaussian")
@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """Zero-mean multivariate Gaussian noise with covariance ``covariance``."""

    covariance: np.ndarray

    def __post_init__(self) -> None:
        covariance = check_symmetric("covariance", self.covariance)
        object.__setattr__(self, "covariance", covariance)
        # One factorization per model, F with F^T F = covariance (the SVD
        # factor numpy's multivariate_normal uses; it handles singular
        # covariances).
        _, s, vt = np.linalg.svd(covariance)
        factor = np.sqrt(s)[:, None] * vt
        if not np.allclose(factor.T @ factor, covariance, rtol=1e-8, atol=1e-8):
            raise ValidationError("covariance must be positive semidefinite")
        object.__setattr__(self, "_factor", factor)

    @property
    def dimension(self) -> int:
        return self.covariance.shape[0]

    def sample(self, horizon: int, rng=None) -> np.ndarray:
        return self.sample_block(1, horizon, rng)[0]

    def sample_block(self, count: int, horizon: int, rng=None) -> np.ndarray:
        z = ensure_rng(rng).standard_normal((int(count), int(horizon), self.dimension))
        # z @ F accumulated row by row with elementwise ops, not a BLAS
        # product: a row's values then do not depend on the block's size.
        block = z[..., :1] * self._factor[0]
        for j in range(1, self.dimension):
            block += z[..., j : j + 1] * self._factor[j]
        return block

    @classmethod
    def from_std(cls, std) -> "GaussianNoise":
        """Build from per-channel standard deviations (diagonal covariance)."""
        std = np.asarray(std, dtype=float).reshape(-1)
        return cls(covariance=np.diag(std**2))


@NOISE_MODELS.register("bounded-uniform")
@dataclass(frozen=True)
class BoundedUniformNoise(NoiseModel):
    """Uniform noise on ``[-bound_i, +bound_i]`` per channel.

    This is the model used for the paper's FAR experiment: "each value sampled
    from a suitably small range such that pfc is maintained".
    """

    bounds: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.asarray(self.bounds, dtype=float).reshape(-1)
        if np.any(bounds < 0):
            raise ValidationError("bounds must be non-negative")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dimension(self) -> int:
        return self.bounds.size

    def sample(self, horizon: int, rng=None) -> np.ndarray:
        return self.sample_block(1, horizon, rng)[0]

    def sample_block(self, count: int, horizon: int, rng=None) -> np.ndarray:
        size = (int(count), int(horizon), self.dimension)
        # Bit for bit rng.uniform(-1, 1, size) (which computes -1 + 2u) at
        # about half its cost, and in place: no second block allocation.
        block = ensure_rng(rng).random(size)
        block *= 2.0
        block -= 1.0
        block *= self.bounds
        return block


@NOISE_MODELS.register("truncated-gaussian")
@dataclass(frozen=True)
class TruncatedGaussianNoise(NoiseModel):
    """Diagonal Gaussian noise clipped to ``[-bound_i, +bound_i]`` per channel.

    Keeps the Gaussian shape of realistic sensor noise while providing the
    hard bound that formal encodings need (the solver assumes noise never
    exceeds the bound).
    """

    std: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        std = np.asarray(self.std, dtype=float).reshape(-1)
        bounds = np.asarray(self.bounds, dtype=float).reshape(-1)
        if std.size != bounds.size:
            raise ValidationError("std and bounds must have the same length")
        if np.any(std < 0) or np.any(bounds < 0):
            raise ValidationError("std and bounds must be non-negative")
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "bounds", bounds)

    @property
    def dimension(self) -> int:
        return self.std.size

    def sample(self, horizon: int, rng=None) -> np.ndarray:
        return self.sample_block(1, horizon, rng)[0]

    def sample_block(self, count: int, horizon: int, rng=None) -> np.ndarray:
        size = (int(count), int(horizon), self.dimension)
        block = ensure_rng(rng).normal(0.0, 1.0, size=size)
        block *= self.std
        return np.clip(block, -self.bounds, self.bounds, out=block)
