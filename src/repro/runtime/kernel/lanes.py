"""Detector lanes: the fleet detector bank run block by block.

The fleet loop keeps each block's residues (and, when a plant monitor
needs them, measurements) as transposed ``(b, m, N)`` stacks.  A lane picks
the stack its core consumes and hands a ``(b, N, m)`` view of it to the
core's detector pass, :meth:`~repro.runtime.batch.BatchDetector.run`, which
resumes from the core's own state, so consecutive blocks chain into the
whole horizon.

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
        """``(b, N)`` alarm flags over the ``b`` steps of the stacks."""
        stack = res if self.core.consumes == "residues" else measurements
        return self.core.run(stack.transpose(0, 2, 1))


def build_lanes(cores: dict[str, BatchDetector]) -> dict[str, DetectorLane]:
    """One lane per deployed detector, in bank order."""
    return {label: DetectorLane(core) for label, core in cores.items()}


__all__ = ["DetectorLane", "build_lanes"]
