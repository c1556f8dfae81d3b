"""Attack models for false-data injection on sensor channels.

The primary artefact is :class:`~repro.attacks.fdi.FDIAttack` — an arbitrary
per-sample additive falsification of the measurement vector, which is exactly
what Algorithm 1 synthesizes.  The catalogue of parametric templates
(bias, ramp, surge, geometric, replay) reproduces the attack families used in
the residue-detector literature the paper cites and drives the fleet's
scheduled attacks, the probe attack ladder and the examples.
"""

from repro.attacks.fdi import FDIAttack, AttackChannelMask
from repro.attacks.templates import (
    AttackTemplate,
    BiasAttack,
    RampAttack,
    SurgeAttack,
    GeometricAttack,
    ReplayAttack,
    NoAttack,
)

__all__ = [
    "FDIAttack",
    "AttackChannelMask",
    "AttackTemplate",
    "BiasAttack",
    "RampAttack",
    "SurgeAttack",
    "GeometricAttack",
    "ReplayAttack",
    "NoAttack",
]
