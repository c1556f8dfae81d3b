"""The fleet-wide ring buffer behind the service's per-instance streams.

A :class:`~repro.serve.service.MonitorService` keeps every attached
instance's pending samples in one :class:`RingBuffer`: one FIFO per row
(one row per attached instance, in attach order), each a
:class:`collections.deque` of the row's pending floats, back to back.
Producers push vectors one row at a time, as they arrive; the service
drains whole lockstep rounds with :meth:`RingBuffer.pop_round`, which
pops ``width`` floats off every row into the ``(rows, width)`` float64
block the batched detector step consumes.  A push is one ``extend``, with
no cursor to keep in step, and leaves no object behind for the cyclic
garbage collector, which does not track floats.

Overflow is the caller's policy decision: :meth:`RingBuffer.push` refuses
when the row is full (returns ``False``), :meth:`RingBuffer.drop_oldest`
makes room by discarding the row's oldest pending sample.  The service maps
its configured ``overflow`` policy (``"drop-oldest"``, ``"drop-newest"``,
``"error"``) onto these primitives and counts every dropped sample.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.utils.validation import ValidationError, check_positive


class RingBuffer:
    """One fixed-capacity FIFO of fixed-width float vectors per row.

    Parameters
    ----------
    capacity:
        Maximum number of pending vectors per row.
    width:
        Vector width (the service's sample width).
    rows:
        Initial number of rows (grow more with :meth:`grow`).

    Attributes
    ----------
    ready:
        Number of rows holding at least one pending vector; a round can be
        popped when it equals :attr:`rows`.
    """

    def __init__(self, capacity: int, width: int, rows: int = 0):
        self.capacity = int(check_positive("capacity", capacity))
        self.width = int(check_positive("width", width))
        self._limit = self.capacity * self.width  # floats a full row holds
        self._rows = [deque() for _ in range(int(rows))]
        self.ready = 0

    @property
    def rows(self) -> int:
        """Number of rows (attached streams)."""
        return len(self._rows)

    def pending(self) -> list[int]:
        """Pending vector count of every row, in row order."""
        return [len(queue) // self.width for queue in self._rows]

    def push(self, row: int, sample) -> bool:
        """Append a float copy of one vector to ``row``; ``False`` (storing nothing) when full.

        A vector of the wrong width raises even on a full row, so a caller
        that answers ``False`` by dropping the oldest vector never evicts a
        valid one for a sample it would then refuse.
        """
        if len(sample) != self.width:
            raise ValidationError(
                f"sample has {len(sample)} channels, the stream expects {self.width}"
            )
        return self._push(row, list(map(float, sample)))

    def _push(self, row: int, values: list) -> bool:
        """:meth:`push` for a list of exactly ``width`` floats the ring may keep."""
        queue = self._rows[row]
        if len(queue) >= self._limit:
            return False
        if not queue:
            self.ready += 1
        queue.extend(values)
        return True

    def drop_oldest(self, row: int) -> None:
        """Discard ``row``'s oldest pending vector (no-op on an empty row)."""
        queue = self._rows[row]
        if queue:
            for _ in range(self.width):
                queue.popleft()
            if not queue:
                self.ready -= 1

    def pop_round(self) -> np.ndarray:
        """Remove and return every row's oldest vector as a float64 ``(rows, width)`` block."""
        if self.ready < self.rows:
            raise ValidationError(
                f"pop from an empty ring buffer ({self.rows - self.ready} "
                f"of {self.rows} rows have no pending vector)"
            )
        rows = self._rows
        # One pass per channel: the k-th pass pops channel k of every row.
        block = np.empty((len(rows), self.width))
        for channel in range(self.width):
            block[:, channel] = np.fromiter(map(deque.popleft, rows), float, len(rows))
        self.ready = sum(map(bool, rows))
        return block

    def grow(self, count: int = 1) -> None:
        """Append ``count`` empty rows."""
        count = int(check_positive("count", count))
        self._rows += [deque() for _ in range(count)]

    def compact(self, keep) -> None:
        """Keep only the given rows, in the given order (pending vectors included)."""
        keep = np.asarray(keep, dtype=np.intp).reshape(-1).tolist()
        self._rows = [self._rows[row] for row in keep]
        self.ready = sum(map(bool, self._rows))


__all__ = ["RingBuffer"]
