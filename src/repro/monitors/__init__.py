"""Plant-level monitoring constraints (the paper's ``mdc``).

These are the "already in place" sanity checks of an industrial ECU: range
and gradient monitors on individual sensors, relation monitors between
redundant sensors, all wrapped by a dead-zone counter so that only sustained
violations raise an alarm.  Each monitor can both

* evaluate concrete measurement traces (for simulation and FAR studies)
  and fleets online, through one check written over a row axis
  (:meth:`~repro.monitors.base.Monitor.check`), and
* describe itself as affine conditions over measurement symbols (consumed by
  the formal attack-synthesis encodings).
"""

from repro.monitors.base import (
    LinearCondition,
    Monitor,
    MonitorReport,
)
from repro.monitors.range_monitor import RangeMonitor
from repro.monitors.gradient_monitor import GradientMonitor
from repro.monitors.relation_monitor import RelationMonitor
from repro.monitors.deadzone import DeadZoneMonitor
from repro.monitors.composite import CompositeMonitor

__all__ = [
    "LinearCondition",
    "Monitor",
    "MonitorReport",
    "RangeMonitor",
    "GradientMonitor",
    "RelationMonitor",
    "DeadZoneMonitor",
    "CompositeMonitor",
]
