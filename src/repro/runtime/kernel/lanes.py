"""Detector lanes: the fleet detector bank run over whole-horizon stacks.

The fleet loop records the horizon's residues (and, when a plant monitor
needs them, measurements) as transposed ``(T, m, N)`` stacks.  A lane picks
the stack its core consumes and hands a ``(T, N, m)`` view of it to the
core's one detector pass, :meth:`~repro.runtime.batch.BatchDetector.run`.

Exactness contract: ``run`` uses the detector's own norm function
(:func:`~repro.detectors.threshold.residue_norms`) and advances the core's
own state, so lane alarms equal the per-step ``step`` calls bit for bit and
the core is left exactly where stepping would leave it.  Float32 stacks are
widened to float64 before the norms, so detector state and comparisons stay
float64.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.batch import BatchDetector


class DetectorLane:
    """One deployed core, fed from the fleet loop's transposed stacks."""

    def __init__(self, core: BatchDetector):
        self.core = core

    @property
    def consumes(self) -> str:
        """Which stack the lane reads: ``"residues"`` or ``"measurements"``."""
        return self.core.consumes

    def alarms(self, res: np.ndarray, measurements: np.ndarray | None) -> np.ndarray:
        """``(T, N)`` alarm flags over the whole horizon."""
        stack = res if self.core.consumes == "residues" else measurements
        return self.core.run(stack.transpose(0, 2, 1))


def build_lanes(cores: dict[str, BatchDetector]) -> dict[str, DetectorLane]:
    """One lane per deployed detector, in bank order."""
    return {label: DetectorLane(core) for label, core in cores.items()}


__all__ = ["DetectorLane", "build_lanes"]
