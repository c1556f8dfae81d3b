"""Backend registration and name resolution.

The built-in attack-synthesis backends register themselves into the shared
:data:`repro.registry.BACKENDS` registry here; :func:`get_backend` is the
resolution entry point used by :func:`repro.core.attack_synthesis.synthesize_attack`.
Downstream users add their own backends with::

    from repro.registry import BACKENDS

    @BACKENDS.register("my-solver")
    class MySolverBackend(AttackBackend):
        ...
"""

from __future__ import annotations

from repro.falsification.base import AttackBackend
from repro.falsification.lp_backend import LPAttackBackend
from repro.falsification.optimizer import OptimizationFalsifier
from repro.registry import BACKENDS, available_backends

BACKENDS.register("lp", LPAttackBackend)
BACKENDS.register("optimizer", OptimizationFalsifier)


def get_backend(name_or_backend, **kwargs) -> AttackBackend:
    """Resolve a backend instance from a name or pass through an instance.

    Parameters
    ----------
    name_or_backend:
        Either an :class:`AttackBackend` instance (returned unchanged) or a
        name registered in :data:`repro.registry.BACKENDS` (built-ins:
        ``"lp"``, ``"optimizer"``).  Unknown names raise a
        :class:`~repro.registry.RegistryError` listing the currently
        registered names.
    kwargs:
        Constructor arguments forwarded when a name is given.
    """
    if isinstance(name_or_backend, AttackBackend):
        return name_or_backend
    return BACKENDS.create(str(name_or_backend), **kwargs)


__all__ = ["get_backend", "available_backends", "BACKENDS"]
