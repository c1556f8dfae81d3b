"""Reference alarm bookkeeping for the fleet equivalence layer.

:class:`~repro.runtime.report.AlarmTally` derives a fleet run's counts,
first indices and step-ordered alarm stream from one alarm index per
detector.  :func:`step_ordered_oracle` is the independent reference it is
proven against: the per-step bookkeeping loop the fleet engines ran before
the tally existed, with eager ``list[AlarmEvent]`` batches.  The alarm-tally
property tests compare the tally with it directly, and the ``fleet_oracle``
fixture in ``conftest.py`` takes its stats, events and alarm-counter
progression from it, so no fleet reference goes through the tally.

:func:`cusum_oracle` and :func:`run_length_oracle` are the per-sample Python
loops the offline CUSUM statistic and dead-zone alarm once ran, kept as
references for the one vectorized form of each rule
(``tests/test_alarm_rules.py``).

Test modules under ``tests/`` import this as ``alarm_oracle``.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.events import AlarmEvent


def step_ordered_oracle(
    alarm_stacks, attacked_mask, attack_start, sinks=(), counter=None, scraper=None
):
    """The per-step bookkeeping loop the fleet engines used to run.

    Builds one eager ``list[AlarmEvent]`` per (step, detector) with at least
    one alarm and emits it to every sink, increments ``counter`` by each
    such batch's size and calls ``scraper.maybe_scrape()`` after each step;
    returns the per-detector counts, benign alarm-steps, first-alarm and
    first-detection arrays.
    """
    labels = list(alarm_stacks)
    T = next(iter(alarm_stacks.values())).shape[0] if labels else 0
    N = attacked_mask.size
    first_alarm = {label: np.full(N, -1, dtype=int) for label in labels}
    first_detection = {label: np.full(N, -1, dtype=int) for label in labels}
    alarm_counts = {label: 0 for label in labels}
    benign_alarm_steps = {label: 0 for label in labels}
    benign_mask = ~attacked_mask
    for k in range(T):
        for label in labels:
            alarms = alarm_stacks[label][k]
            fired = int(np.count_nonzero(alarms))
            if not fired:
                continue
            alarm_counts[label] += fired
            if counter is not None:
                counter.inc(fired, detector=label)
            benign_alarm_steps[label] += int(np.count_nonzero(alarms & benign_mask))
            newly = alarms & (first_alarm[label] < 0)
            first_alarm[label][newly] = k
            detected = (
                alarms
                & attacked_mask
                & (k >= attack_start)
                & (first_detection[label] < 0)
            )
            first_detection[label][detected] = k
            if sinks:
                events = [
                    AlarmEvent(int(i), k, label, first=bool(newly[i]))
                    for i in np.flatnonzero(alarms)
                ]
                for sink in sinks:
                    sink.emit(events)
        if scraper is not None:
            scraper.maybe_scrape()
    return alarm_counts, benign_alarm_steps, first_alarm, first_detection


class AlarmProgression:
    """Counter and scraper stand-in: running per-detector alarm totals.

    Pass it as both ``counter`` and ``scraper``: :attr:`seen` then holds,
    after each step, what a scraper of ``fleet_alarms_total`` would read —
    detector label → running total, for detectors that alarmed so far.
    """

    def __init__(self):
        self.totals: dict[str, float] = {}
        self.seen: list[dict[str, float]] = []

    def inc(self, amount, detector):
        self.totals[detector] = self.totals.get(detector, 0.0) + float(amount)

    def maybe_scrape(self):
        self.seen.append(dict(self.totals))
        return True


def cusum_oracle(norms, bias: float, start=0.0) -> np.ndarray:
    """The per-sample CUSUM accumulator, one column of ``norms`` at a time.

    ``S_k = max(0, S_{k-1} + norms[k] - bias)`` from ``S_{-1} = start`` (a
    scalar or one value per column), as the offline detector's Python loop
    computed it.  ``norms`` is ``(T,)`` or ``(T, R)``.
    """
    norms = np.asarray(norms, dtype=float)
    columns = norms if norms.ndim == 2 else norms[:, None]
    starts = np.broadcast_to(np.asarray(start, dtype=float), columns.shape[1:])
    statistics = np.zeros_like(columns)
    for r in range(columns.shape[1]):
        accumulator = float(starts[r])
        for k, value in enumerate(columns[:, r]):
            accumulator = max(0.0, accumulator + value - bias)
            statistics[k, r] = accumulator
    return statistics.reshape(norms.shape)


def run_length_oracle(violated, start=0) -> np.ndarray:
    """Consecutive-violation run lengths, one column of ``violated`` at a time.

    The dead-zone monitor's loop: the run grows by one on a violated sample
    and drops to zero on a passing one, from ``start`` (a scalar or one run
    length per column).  A dead zone of ``n`` samples alarms where the run
    reaches ``n``.
    """
    violated = np.asarray(violated, dtype=bool)
    columns = violated if violated.ndim == 2 else violated[:, None]
    starts = np.broadcast_to(np.asarray(start, dtype=int), columns.shape[1:])
    runs = np.zeros(columns.shape, dtype=int)
    for r in range(columns.shape[1]):
        run_length = int(starts[r])
        for k in range(columns.shape[0]):
            run_length = run_length + 1 if columns[k, r] else 0
            runs[k, r] = run_length
    return runs.reshape(violated.shape)
