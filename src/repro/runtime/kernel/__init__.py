"""``repro.runtime.kernel``: the fleet stepping loop and its engine.

The ``fused`` engine is a stepper factory (:mod:`~repro.runtime.kernel.runner`):
it hands the one stepping loop a single float64 block-matrix GEMM per fleet
step (:mod:`~repro.runtime.kernel.core`), over the whole fleet on one
thread.  The loop steps the horizon in blocks, and after each block every
deployed detector runs its vectorized pass over the block's residues
(:mod:`~repro.runtime.kernel.lanes`).

The fused path is *bit-identical* to the reference stepper
(``runner._BatchStepper``, its fallback when a per-system differential probe
rejects the BLAS), enforced by that probe and by the differential test layer
(``tests/test_runtime_kernel_equiv.py``,
``tests/test_runtime_kernel_property.py``).  See ``docs/runtime-kernel.md``
for the fusion layout and the equivalence-gate policy.
"""

from repro.runtime.kernel.core import FusedStepper, probe_fused_equivalence
from repro.runtime.kernel.lanes import build_lanes
from repro.runtime.kernel.runner import FusedEngine

__all__ = [
    "FusedStepper",
    "probe_fused_equivalence",
    "build_lanes",
    "FusedEngine",
]
