"""How many CPUs this process may use, for sizing worker pools."""

from __future__ import annotations

import os


def default_workers() -> int:
    """Worker count bounded by this process's CPU *affinity*, not the machine.

    ``len(os.sched_getaffinity(0))`` respects container/cgroup CPU limits
    (a CI runner pinned to 2 cores reports 2, not the host's 64); platforms
    without ``sched_getaffinity`` fall back to ``os.cpu_count()``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


__all__ = ["default_workers"]
