"""Monitor abstractions and the affine-condition intermediate representation.

A monitor is *satisfied* at a sampling instance when the measurement passes
its sanity check; it is *violated* otherwise.  Alarms are a separate concept:
plain monitors alarm on any violation, while a
:class:`~repro.monitors.deadzone.DeadZoneMonitor` alarms only after a run of
consecutive violations.

To let the attack-synthesis backends reason about monitors without coupling
them to a particular solver, every monitor can describe "satisfied at sample
``k``" as a conjunction of :class:`LinearCondition` objects — affine
inequalities over measurement symbols ``y[k][channel]``.
"""

from __future__ import annotations

import abc
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class LinearCondition:
    """An affine double inequality over measurement symbols.

    Represents ``lower <= sum(coeff * y[sample][channel]) + constant <= upper``
    where the sum ranges over ``terms``.  Either bound may be ``None``
    (meaning unbounded on that side).

    Attributes
    ----------
    terms:
        Tuple of ``(sample_index, channel_index, coefficient)`` triples.
        ``sample_index`` is 0-based within the analysis horizon.
    constant:
        Constant offset added to the linear combination.
    lower, upper:
        Optional bounds.
    label:
        Human-readable description used in reports and solver diagnostics.
    """

    terms: tuple[tuple[int, int, float], ...]
    constant: float = 0.0
    lower: float | None = None
    upper: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ValidationError("LinearCondition needs at least one bound")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValidationError("LinearCondition lower bound exceeds upper bound")
        terms = tuple((int(k), int(c), float(w)) for k, c, w in self.terms)
        object.__setattr__(self, "terms", terms)

    def evaluate(self, measurements: np.ndarray) -> bool:
        """Check the condition on a concrete ``(T, m)`` measurement matrix."""
        value = self.constant
        for sample, channel, coefficient in self.terms:
            value += coefficient * float(measurements[sample, channel])
        if self.lower is not None and value < self.lower - 1e-12:
            return False
        if self.upper is not None and value > self.upper + 1e-12:
            return False
        return True

    def value(self, measurements: np.ndarray) -> float:
        """The affine expression's value on a concrete measurement matrix."""
        value = self.constant
        for sample, channel, coefficient in self.terms:
            value += coefficient * float(measurements[sample, channel])
        return value


@dataclass
class MonitorReport:
    """Evaluation of a monitor over a whole trace.

    Attributes
    ----------
    satisfied:
        Boolean array, ``satisfied[k]`` True when the check passes at sample ``k``.
    alarms:
        Boolean array, ``alarms[k]`` True when the monitor raises an alarm at
        sample ``k`` (dead-zone semantics applied where relevant).
    name:
        Monitor name.
    details:
        Free-form per-monitor diagnostics.
    """

    satisfied: np.ndarray
    alarms: np.ndarray
    name: str = ""
    details: dict = field(default_factory=dict)

    @property
    def any_alarm(self) -> bool:
        """True when at least one sample raised an alarm."""
        return bool(np.any(self.alarms))

    @property
    def violation_count(self) -> int:
        """Number of samples at which the underlying check failed."""
        return int(np.sum(~self.satisfied))


class Monitor(abc.ABC):
    """Base class for measurement sanity monitors.

    A monitor defines its check once, in :meth:`check`, over a row axis:
    offline :meth:`satisfied` passes a trace's samples as rows, the fleet's
    :class:`~repro.runtime.batch.BatchMonitor` passes its instances.  A
    monitor that defines only :meth:`satisfied` still works online: the
    default :meth:`check` evaluates it on a two-sample window per row.  The
    dead-zone and composite combinators forward both methods, so such a
    member is still evaluated on the whole trace offline.
    """

    name: str = "monitor"

    def check(
        self,
        current: np.ndarray,
        previous: np.ndarray | None,
        dt: float,
        valid: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-row "check passes" for the ``(R, m)`` samples ``current``.

        Row ``i`` of ``previous`` is the sample before row ``i`` of
        ``current``; ``previous`` is ``None`` when no row has one, and
        ``valid`` flags the rows of ``previous`` that do (``None``: all).  A
        row without an earlier sample is checked like the first sample of a
        trace.

        This default evaluates :meth:`satisfied` on a two-sample window per
        row, exact for any monitor with at most one sample of lookback.
        """
        if type(self).satisfied is Monitor.satisfied:
            raise NotImplementedError(f"{type(self).__name__} defines neither check nor satisfied")
        result = np.zeros(current.shape[0], dtype=bool)
        for i in range(current.shape[0]):
            if previous is None or (valid is not None and not valid[i]):
                window = current[i : i + 1]
            else:
                window = np.vstack([previous[i], current[i]])
            result[i] = bool(self.satisfied(window, dt)[-1])
        return result

    def satisfied(self, measurements: np.ndarray, dt: float) -> np.ndarray:
        """Boolean array of per-sample check results on a ``(T, m)`` trace.

        The trace's samples are the rows of :meth:`check`; the sample before
        each is its previous row (the first sample has none).
        """
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        previous = np.concatenate((measurements[:1], measurements[:-1]))
        valid = np.ones(measurements.shape[0], dtype=bool)
        valid[:1] = False
        return self.check(measurements, previous, dt, valid)

    @abc.abstractmethod
    def conditions_at(self, k: int, dt: float) -> list[LinearCondition]:
        """Affine conditions equivalent to "satisfied at sample ``k``".

        Conditions may reference earlier samples (gradient monitors reference
        ``k - 1``); for ``k == 0`` such monitors return an empty list, meaning
        the check is vacuously satisfied at the first sample.
        """

    def _alarm_walk(self, violated, starts: Iterator, ends: list) -> np.ndarray:
        """The alarm rule of this monitor tree, fed per-monitor violations.

        The one alarm walk of the library.  ``violated(monitor)`` gives a
        monitor's violation flags over a block of rows: offline
        ``~satisfied`` over a trace's samples, online ``~check`` over a
        fleet's ``(T, N)`` instance-steps.  A plain monitor alarms where it
        is violated; a :class:`~repro.monitors.deadzone.DeadZoneMonitor`
        where its inner monitor's violation run reaches the dead zone; a
        :class:`~repro.monitors.composite.CompositeMonitor` on the OR of its
        members.  Each dead zone, in tree order, takes the run length carried
        into the block from ``starts`` and appends its run lengths to
        ``ends``.
        """
        return violated(self)

    def alarms(self, measurements: np.ndarray, dt: float) -> np.ndarray:
        """Per-sample alarm flags of a ``(T, m)`` trace (see :meth:`_alarm_walk`)."""
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        return self._alarm_walk(
            lambda monitor: ~monitor.satisfied(measurements, dt), itertools.repeat(0), []
        )

    def report(self, measurements: np.ndarray, dt: float) -> MonitorReport:
        """Full evaluation of the monitor on one trace."""
        measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
        satisfied = self.satisfied(measurements, dt)
        return MonitorReport(
            satisfied=satisfied,
            alarms=self.alarms(measurements, dt),
            name=self.name,
        )

    def raises_alarm(self, measurements: np.ndarray, dt: float) -> bool:
        """True when the monitor alarms anywhere on the trace."""
        return bool(np.any(self.alarms(measurements, dt)))
