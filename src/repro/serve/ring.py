"""The fleet-wide ring buffer behind the service's per-instance streams.

A :class:`~repro.serve.service.MonitorService` keeps every attached
instance's pending samples in one :class:`RingBuffer`: a preallocated
``(rows, capacity, width)`` float array with one FIFO per row (one row per
attached instance, in attach order).  Producers push vectors one row at a
time, as they arrive; the service drains whole lockstep rounds with
:meth:`RingBuffer.pop_round`, one fancy-index read that yields the
``(rows, width)`` block the batched detector step consumes.  A push never
allocates, so per-sample ingest stays cheap at service rates.

The per-row write cursors and pending counts are Python lists, because a
per-sample push reads and writes one entry of each and a list entry is
several times cheaper to touch than a numpy scalar.  For the same reason a
push writes its values one by one through a flat ``memoryview`` of the
array: at a few channels that costs about half of one numpy row assignment.
The read cursors are an integer array, because only
:meth:`~RingBuffer.pop_round` (every row at once) and
:meth:`~RingBuffer.drop_oldest` (rare) move them.

Overflow is the caller's policy decision: :meth:`RingBuffer.push` refuses
when the row is full (returns ``False``), :meth:`RingBuffer.drop_oldest`
makes room by discarding the row's oldest pending sample.  The service maps
its configured ``overflow`` policy (``"drop-oldest"``, ``"drop-newest"``,
``"error"``) onto these primitives and counts every dropped sample.
"""

from __future__ import annotations

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
        rows = int(rows)
        self._set_data(np.zeros((rows, self.capacity, self.width)))
        self._head = np.zeros(rows, dtype=np.intp)  # slot of each row's oldest vector
        self._tail = [0] * rows  # slot each row's next push writes
        self._count = [0] * rows
        self.ready = 0

    def _set_data(self, data: np.ndarray) -> None:
        # Every caller passes a fresh C-contiguous array, so the flat
        # reshape is a view and the pushes land in ``data``.
        self._data = data
        self._flat = memoryview(data.reshape(-1))

    @property
    def rows(self) -> int:
        """Number of rows (attached streams)."""
        return len(self._count)

    def pending(self) -> list[int]:
        """Pending vector count of every row, in row order."""
        return list(self._count)

    def push(self, row: int, sample) -> bool:
        """Append one vector to ``row``; returns ``False`` (storing nothing) when full.

        A vector of the wrong width raises even on a full row, so a caller
        that answers ``False`` by dropping the oldest vector never evicts a
        valid one for a sample it would then refuse.
        """
        if len(sample) != self.width:
            raise ValidationError(
                f"sample has {len(sample)} channels, the stream expects {self.width}"
            )
        count = self._count[row]
        if count >= self.capacity:
            return False
        slot = self._tail[row]
        flat, cell = self._flat, (row * self.capacity + slot) * self.width
        for value in sample:
            flat[cell] = value
            cell += 1
        self._tail[row] = slot + 1 if slot + 1 < self.capacity else 0
        self._count[row] = count + 1
        if not count:
            self.ready += 1
        return True

    def drop_oldest(self, row: int) -> None:
        """Discard ``row``'s oldest pending vector (no-op on an empty row)."""
        count = self._count[row]
        if count:
            self._head[row] = (self._head[row] + 1) % self.capacity
            self._count[row] = count - 1
            if count == 1:
                self.ready -= 1

    def pop_round(self) -> np.ndarray:
        """Remove and return every row's oldest vector as a ``(rows, width)`` block."""
        if self.ready < self.rows:
            raise ValidationError(
                f"pop from an empty ring buffer ({self.rows - self.ready} "
                f"of {self.rows} rows have no pending vector)"
            )
        block = self._data[np.arange(self.rows), self._head]
        self._head += 1
        self._head %= self.capacity
        self._count = [count - 1 for count in self._count]
        self.ready = self.rows - self._count.count(0)
        return block

    def grow(self, count: int = 1) -> None:
        """Append ``count`` empty rows."""
        count = int(check_positive("count", count))
        self._set_data(
            np.concatenate([self._data, np.zeros((count, self.capacity, self.width))])
        )
        self._head = np.concatenate([self._head, np.zeros(count, dtype=np.intp)])
        self._tail += [0] * count
        self._count += [0] * count

    def compact(self, keep) -> None:
        """Keep only the given rows, in the given order (pending vectors included)."""
        keep = np.asarray(keep, dtype=np.intp).reshape(-1)
        self._set_data(self._data[keep])
        self._head = self._head[keep]
        rows = keep.tolist()
        self._tail = [self._tail[row] for row in rows]
        self._count = [self._count[row] for row in rows]
        self.ready = len(rows) - self._count.count(0)


__all__ = ["RingBuffer"]
