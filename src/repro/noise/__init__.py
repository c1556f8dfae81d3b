"""Noise models and generators.

The false-alarm-rate study of the paper draws "1000 random measurement noise
vectors of bounded length with each value sampled from a suitably small
range"; this package provides those bounded generators alongside the standard
Gaussian and truncated-Gaussian models used during simulation.
"""

from repro.noise.models import (
    NoiseModel,
    GaussianNoise,
    BoundedUniformNoise,
    TruncatedGaussianNoise,
    ZeroNoise,
)
from repro.noise.generators import Streams, draw_streams

__all__ = [
    "NoiseModel",
    "GaussianNoise",
    "BoundedUniformNoise",
    "TruncatedGaussianNoise",
    "ZeroNoise",
    "Streams",
    "draw_streams",
]
