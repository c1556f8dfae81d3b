"""The per-step reference engine, for measurements that need a legacy side.

The library registers one fleet engine, ``"fused"``; its float64 runs are
probe-gated against the reference stepper
(:class:`~repro.runtime.kernel.runner._BatchStepper`) and fall back to it.
:class:`LegacyEngine` hands the one stepping loop that reference stepper
unconditionally, so a ``run_fleet`` call can time it end to end.
:func:`legacy_engine` registers it under ``"legacy"`` for the duration of a
``with`` block and unregisters it afterwards.

Test modules under ``tests/`` import this as ``engine_oracle``; the
benchmarks import it as ``tests.engine_oracle``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.registry import ENGINES
from repro.runtime.kernel.runner import Stepping, _BatchStepper


class LegacyEngine:
    """The reference stepper, float64, one worker."""

    name = "legacy"

    def stepping(self, system, n_instances: int, registry=None) -> Stepping:
        """The reference stepper for every run."""
        return Stepping(_BatchStepper, np.float64, 1, {"name": self.name})


@contextmanager
def legacy_engine():
    """Register :class:`LegacyEngine` as ``"legacy"`` inside the block."""
    ENGINES.register("legacy", LegacyEngine)
    try:
        yield LegacyEngine
    finally:
        ENGINES.unregister("legacy")
