"""The library's one file contract: append-only JSON Lines and atomic rewrites.

Every stream the library appends to is written through :class:`JsonlWriter`
and, except the result store's log, read back through :func:`read_jsonl`:
a record is complete when its newline is written, a reopened stream repairs
a torn tail before it appends, and a read drops a torn trailing line and
raises on interior damage (``docs/architecture.md``, "Files on disk").
Whole-file outputs are replaced atomically by :func:`replace_text`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.utils.validation import ValidationError


class JsonlWriter:
    """Appends records to a JSON Lines file, opened on the first append.

    ``path`` is ``None`` for a stream its owner keeps in memory only.
    ``flush_every`` flushes every this-many :meth:`append` calls (``0``:
    at :meth:`close`).
    """

    def __init__(self, path: str | Path | None, flush_every: int = 1):
        self.path = None if path is None else Path(path)
        self.flush_every = int(flush_every)
        if self.flush_every < 0:
            raise ValidationError("flush_every must be non-negative")
        self._handle = None
        self._since_flush = 0

    def append(self, text: str) -> None:
        """Append ``text``: one or more records, each ending in its newline."""
        handle = self._handle
        if handle is None:
            _repair_tail(self.path)
            handle = self._handle = self.path.open("a", encoding="utf-8")
        handle.write(text)
        self._since_flush += 1
        if self.flush_every and self._since_flush >= self.flush_every:
            handle.flush()
            self._since_flush = 0

    def close(self) -> None:
        """Flush and close the file; the next append reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _repair_tail(path: Path) -> None:
    """Give an unterminated last line its newline if it parses, else cut it off."""
    if not path.exists():
        return
    with path.open("r+b") as handle:
        end = start = handle.seek(0, os.SEEK_END)
        tail, size = b"", 4096
        while start and b"\n" not in tail:  # read back to the last newline
            start = max(end - size, 0)
            size *= 2
            handle.seek(start)
            tail = handle.read()
        if tail.endswith(b"\n") or not tail:
            return
        cut = tail.rfind(b"\n") + 1
        try:
            json.loads(tail[cut:])
        except ValueError:
            handle.truncate(start + cut)
        else:
            handle.write(b"\n")


def read_jsonl(path: str | Path) -> list:
    """Every record of a JSON Lines file, in order, blank lines skipped.

    A torn trailing line is dropped; a damaged line with a record after it
    raises :class:`json.JSONDecodeError` naming the line.
    """
    records, damaged = [], None
    with Path(path).open("rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            if damaged is not None:
                at, text, error = damaged
                raise json.JSONDecodeError(
                    f"corrupt interior line {at} of {path}: {getattr(error, 'msg', error)}",
                    text.decode("utf-8", "replace"),
                    getattr(error, "pos", 0),
                )
            try:
                records.append(json.loads(line))
            except ValueError as error:
                damaged = (number, line, error)
    return records


def replace_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (a temp file, then a rename)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


__all__ = ["JsonlWriter", "read_jsonl", "replace_text"]
