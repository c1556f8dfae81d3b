"""Batch noise-sequence generation for Monte-Carlo studies.

:func:`draw_streams` is the block stream contract (version
:data:`repro.utils.rng.STREAM_VERSION`) shared by the fleet runtime and the
FAR study: one generator per run, drawing instance-major blocks in a fixed
order, so a fleet of ``N`` and a FAR population of ``N`` built from the
same seed see the same randomness.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.noise.models import GaussianNoise, NoiseModel
from repro.utils.rng import block_rng


class Streams(NamedTuple):
    """One population's draws, instance-major.

    ``measurement`` is ``(N, T, m)``; ``process`` is ``(N, T, n)`` or
    ``None`` when no process noise is drawn; ``x0_offsets`` is ``(N, n)``
    or ``None`` when initial states are not spread.
    """

    measurement: np.ndarray
    process: np.ndarray | None
    x0_offsets: np.ndarray | None


def draw_streams(
    seed,
    count: int,
    horizon: int,
    noise_model: NoiseModel,
    process_covariance: np.ndarray | None = None,
    x0_spread: np.ndarray | None = None,
) -> Streams:
    """Draw a population's noise under the block stream contract.

    One generator, :func:`~repro.utils.rng.block_rng` of ``seed``, draws in
    this order: the measurement-noise block ``(count, horizon, m)`` from
    ``noise_model``; then, when ``process_covariance`` has a nonzero entry,
    a zero-mean Gaussian process-noise block ``(count, horizon, n)``; then,
    when ``x0_spread`` is given, uniform ``[-1, 1]`` initial-state offsets
    ``(count, n)`` scaled by ``x0_spread``.  An absent or all-zero
    covariance draws nothing.
    """
    rng = block_rng(seed)
    measurement = noise_model.sample_block(count, horizon, rng)
    process = None
    if process_covariance is not None and np.any(process_covariance):
        process = GaussianNoise(covariance=process_covariance).sample_block(
            count, horizon, rng
        )
    offsets = None
    if x0_spread is not None:
        offsets = rng.uniform(-1.0, 1.0, size=(int(count), x0_spread.size)) * x0_spread
    return Streams(measurement, process, offsets)
