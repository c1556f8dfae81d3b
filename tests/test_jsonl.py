"""The crash-recovery contract of every stream the library appends to.

Rules (``repro.utils.jsonl``): a record is complete when its newline is
written; a reopened stream repairs a torn tail before it appends; a read
drops a torn trailing line and raises on interior damage.  The property
below kills each of the five appenders mid-record at a drawn byte offset,
reopens the stream, appends more records and reads it back.
"""

import json
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.store import ResultStore, StoreCorruptionWarning
from repro.obs.trace import Tracer
from repro.obs.watch.history import BenchHistory, BenchRecord
from repro.runtime.events import AlarmEvent, JSONLSink
from repro.serve.log import ServiceLog
from repro.utils.jsonl import JsonlWriter, read_jsonl, replace_text


class _Sink:
    file = "alarms.jsonl"

    def append(self, path, ids):
        with JSONLSink(path) as sink:
            for i in ids:
                sink.emit([AlarmEvent(0, i, "a")])

    def read(self, path):
        return [event.step for event in JSONLSink.read(path)]


class _Log:
    file = "service.jsonl"

    def append(self, path, ids):
        with ServiceLog(path) as log:
            for i in ids:
                log.append("round", step=i)

    def read(self, path):
        return [event.step for event in ServiceLog.read(path)]


class _Trace:
    file = "trace.jsonl"

    def append(self, path, ids):
        with Tracer(enabled=True, path=path) as tracer:
            for i in ids:
                with tracer.span(f"s{i}"):
                    pass

    def read(self, path):
        return [int(record.name[1:]) for record in Tracer.read(path)]


class _History:
    file = "history.jsonl"

    def append(self, path, ids):
        records = [BenchRecord("t", float(i), metrics={"elapsed": 0.5 * i}) for i in ids]
        BenchHistory(records).append_jsonl(path)

    def read(self, path):
        history = BenchHistory()
        history.load_jsonl(path)
        return [int(record.timestamp) for record in history]


class _Store:
    """The store's file is ``results.jsonl``; opening the store is its read."""

    file = "store/results.jsonl"

    def append(self, path, ids):
        store = self._open(path.parent)
        for i in ids:
            store.put(f"k{i}", {}, {"v": i})

    def read(self, path):
        # Opening repairs the file, so read a copy.
        copy = Path(tempfile.mkdtemp(dir=path.parent.parent))
        shutil.copy(path, copy / "results.jsonl")
        return [int(key[1:]) for key in self._open(copy).keys()]

    @staticmethod
    def _open(directory):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StoreCorruptionWarning)
            return ResultStore(directory)


APPENDERS = {
    "sink": _Sink(),
    "log": _Log(),
    "trace": _Trace(),
    "history": _History(),
    "store": _Store(),
}


@pytest.mark.parametrize("name", sorted(APPENDERS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), k=st.integers(1, 3), kept=st.floats(0, 1, exclude_max=True))
def test_reopened_stream_keeps_every_record_after_a_torn_tail(name, n, k, kept):
    appender = APPENDERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / appender.file
        path.parent.mkdir(parents=True, exist_ok=True)
        appender.append(path, range(n))
        raw = path.read_bytes()
        last = raw.rstrip(b"\n").rfind(b"\n") + 1
        # Killed mid-record: anything from nothing up to all but the newline
        # (a fraction, since a span's line length varies with its timings).
        cut = last + int(kept * (len(raw) - last))
        path.write_bytes(raw[:cut])
        before = appender.read(path)
        fresh = [100 + j for j in range(k)]
        appender.append(path, fresh)
        assert appender.read(path) == before + fresh


class TestWriter:
    def test_unterminated_record_that_parses_gets_its_newline(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}')
        with JsonlWriter(path) as journal:
            journal.append('{"a": 3}\n')
        assert path.read_text() == '{"a": 1}\n{"a": 2}\n{"a": 3}\n'

    def test_torn_record_is_truncated_away(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\n{"a": ')
        with JsonlWriter(path) as journal:
            journal.append('{"a": 3}\n')
        assert path.read_text() == '{"a": 1}\n{"a": 3}\n'

    def test_torn_only_record_is_truncated_to_empty(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a"')
        with JsonlWriter(path) as journal:
            journal.append('{"a": 3}\n')
        assert path.read_text() == '{"a": 3}\n'

    def test_intact_file_is_appended_byte_for_byte(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\nnot json\n')  # a terminated line is never repaired
        with JsonlWriter(path) as journal:
            journal.append('{"a": 3}\n')
        assert path.read_text() == '{"a": 1}\nnot json\n{"a": 3}\n'

    def test_torn_tail_longer_than_one_read_chunk(self, tmp_path):
        path = tmp_path / "s.jsonl"
        long = json.dumps({"x": "y" * 200_000})
        path.write_text('{"a": 1}\n' + long[:-1])
        with JsonlWriter(path) as journal:
            journal.append('{"a": 3}\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 3}]

    def test_flush_every_counts_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        journal = JsonlWriter(path, flush_every=2)
        journal.append('{"a": 1}\n')
        assert read_jsonl(path) == []
        journal.append('{"a": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]
        journal.close()


class TestReader:
    def test_blank_lines_skipped_and_torn_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n{"a": \n\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_interior_damage_raises_naming_the_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\n{"a": \n{"a": 2}\n')
        with pytest.raises(json.JSONDecodeError, match="interior line 2"):
            read_jsonl(path)


def test_replace_text_swaps_the_whole_file(tmp_path):
    path = tmp_path / "snapshot.txt"
    path.write_text("old")
    assert replace_text(path, "new") == path
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot.txt"]
