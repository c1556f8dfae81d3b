"""Tests for repro.obs.trace: span nesting, JSONL durability, renderings."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs import SpanRecord, Tracer, get_tracer, span, use_tracer
from repro.utils.validation import ValidationError


def test_spans_nest_and_record_tree_structure():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", run="1"):
        with tracer.span("inner-a"):
            pass
        with tracer.span("inner-b"):
            with tracer.span("leaf"):
                pass
    # Records land at span *close*: children precede their parent.
    names = [record.name for record in tracer.records]
    assert names == ["inner-a", "leaf", "inner-b", "outer"]
    by_name = {record.name: record for record in tracer.records}
    assert by_name["outer"].parent_id is None
    assert by_name["outer"].depth == 0
    assert by_name["outer"].labels == {"run": "1"}
    assert by_name["inner-a"].parent_id == by_name["outer"].span_id
    assert by_name["leaf"].parent_id == by_name["inner-b"].span_id
    assert by_name["leaf"].depth == 2
    assert all(record.wall_s >= 0.0 for record in tracer.records)


def test_span_ids_assigned_at_open():
    tracer = Tracer(enabled=True)
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    by_name = {record.name: record for record in tracer.records}
    assert by_name["parent"].span_id < by_name["child"].span_id


def test_labels_coerced_to_strings():
    tracer = Tracer(enabled=True)
    with tracer.span("s", round=3, ratio=0.5):
        pass
    assert tracer.records[0].labels == {"round": "3", "ratio": "0.5"}


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("invisible") as record:
        assert record is None
    assert tracer.records == []


def test_span_that_raises_still_lands_in_trace():
    tracer = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    assert [record.name for record in tracer.records] == ["failing"]


def test_threads_build_independent_branches():
    tracer = Tracer(enabled=True)
    seen = []

    def work(tag: str):
        with tracer.span(f"root-{tag}"):
            with tracer.span(f"leaf-{tag}"):
                seen.append(tag)

    threads = [threading.Thread(target=work, args=(t,)) for t in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    by_name = {record.name: record for record in tracer.records}
    assert by_name["root-a"].parent_id is None
    assert by_name["root-b"].parent_id is None
    assert by_name["leaf-a"].parent_id == by_name["root-a"].span_id
    assert by_name["leaf-b"].parent_id == by_name["root-b"].span_id


def test_current_is_the_innermost_open_span_of_this_thread():
    tracer = Tracer(enabled=True)
    assert tracer.current() is None
    with tracer.span("outer") as outer:
        assert tracer.current() is outer
        with tracer.span("inner") as inner:
            assert tracer.current() is inner
        seen = []
        thread = threading.Thread(target=lambda: seen.append(tracer.current()))
        thread.start()
        thread.join(timeout=10)
        assert seen == [None]
    assert tracer.current() is None
    assert Tracer(enabled=False).current() is None


def test_adopted_parent_nests_worker_spans():
    tracer = Tracer(enabled=True)

    def work(parent, tag: str):
        with tracer.adopt(parent):
            with tracer.span(f"worker-{tag}"):
                with tracer.span(f"leaf-{tag}"):
                    pass
        assert tracer.current() is None

    with tracer.span("root"):
        with tracer.span("caller") as caller:
            threads = [
                threading.Thread(target=work, args=(tracer.current(), tag))
                for tag in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    by_name = {record.name: record for record in tracer.records}
    for tag in ("a", "b"):
        worker = by_name[f"worker-{tag}"]
        assert worker.parent_id == caller.span_id
        assert worker.depth == caller.depth + 1 == 2
        assert by_name[f"leaf-{tag}"].parent_id == worker.span_id
        assert by_name[f"leaf-{tag}"].depth == 3
    assert "root;caller;worker-a;leaf-a" in tracer.flamegraph()


def test_concurrent_adopted_spans_keep_unique_ids_and_every_record():
    """Many threads recording under one adopted parent lose no span."""
    tracer = Tracer(enabled=True)
    threads_n, spans = 4, 2_000

    def work(parent):
        with tracer.adopt(parent):
            for _ in range(spans):
                with tracer.span("leaf"):
                    pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span("caller") as caller:
            threads = [
                threading.Thread(target=work, args=(caller,)) for _ in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    leaves = [record for record in tracer.records if record.name == "leaf"]
    assert len(leaves) == threads_n * spans
    assert len({record.span_id for record in tracer.records}) == len(tracer.records)
    assert all(record.parent_id == caller.span_id for record in leaves)


def test_adopting_none_keeps_worker_spans_as_roots():
    tracer = Tracer(enabled=True)
    with tracer.adopt(None):
        with tracer.span("alone"):
            pass
    assert tracer.records[0].parent_id is None


def test_renderings_accept_children_that_overlap_past_their_parent():
    # Two concurrent 0.8 s children under a 1.0 s parent: inclusive totals
    # are reported as recorded, children summing past the parent.
    tracer = Tracer(enabled=True)
    tracer.records.extend(
        [
            SpanRecord(span_id=1, parent_id=0, name="solve", depth=1, wall_s=0.8),
            SpanRecord(span_id=2, parent_id=0, name="solve", depth=1, wall_s=0.8),
            SpanRecord(span_id=0, parent_id=None, name="call", wall_s=1.0),
        ]
    )
    assert tracer.flamegraph().splitlines() == [
        "call;solve 1.600000 2",
        "call 1.000000 1",
    ]
    lines = tracer.tree().splitlines()
    assert lines[1].startswith("- call: 1.0000s wall")
    assert sum(line.startswith("  - solve: 0.8000s wall") for line in lines) == 2


# ----------------------------------------------------------------------
# JSONL durability
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(enabled=True, path=path) as tracer:
        with tracer.span("outer", system="dcmotor"):
            with tracer.span("inner"):
                pass
    loaded = Tracer.read(path)
    assert [record.to_dict() for record in loaded] == [
        record.to_dict() for record in tracer.records
    ]


def test_read_drops_truncated_trailing_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(enabled=True, path=path) as tracer:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    # Simulate a process killed mid-append.
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"span_id": 2, "parent_id": null, "na')
    loaded = Tracer.read(path)
    assert [record.name for record in loaded] == ["a", "b"]


def test_read_raises_on_interior_corruption(tmp_path):
    path = tmp_path / "trace.jsonl"
    record = SpanRecord(span_id=0, parent_id=None, name="ok")
    path.write_text(
        "not json at all\n" + json.dumps(record.to_dict()) + "\n", encoding="utf-8"
    )
    with pytest.raises(json.JSONDecodeError):
        Tracer.read(path)


def test_flush_every_zero_defers_to_close(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(enabled=True, path=path, flush_every=0)
    with tracer.span("buffered"):
        pass
    tracer.close()
    assert [record.name for record in Tracer.read(path)] == ["buffered"]
    with pytest.raises(ValidationError):
        Tracer(flush_every=-1)


def test_span_record_dict_round_trip():
    record = SpanRecord(
        span_id=3,
        parent_id=1,
        name="synthesis.solve",
        labels={"backend": "lp"},
        depth=2,
        start_s=0.25,
        wall_s=0.5,
        cpu_s=0.4,
    )
    assert SpanRecord.from_dict(record.to_dict()) == record


# ----------------------------------------------------------------------
# Renderings
# ----------------------------------------------------------------------
def _sample_tracer() -> Tracer:
    tracer = Tracer(enabled=True)
    for _ in range(3):
        with tracer.span("round"):
            with tracer.span("solve", backend="lp"):
                pass
    return tracer


def test_tree_rendering_indents_by_depth():
    tree = _sample_tracer().tree()
    lines = tree.splitlines()
    assert lines[0] == "span tree (wall s / cpu s)"
    assert sum(line.startswith("- round:") for line in lines) == 3
    assert sum(line.startswith("  - solve {backend=lp}:") for line in lines) == 3


def test_flamegraph_folds_repeated_paths():
    lines = _sample_tracer().flamegraph().splitlines()
    assert len(lines) == 2
    paths = {line.split(" ")[0]: line for line in lines}
    assert set(paths) == {"round", "round;solve"}
    # Each folded line carries "<path> <total_wall> <count>"; both aggregate 3.
    assert all(line.split(" ")[2] == "3" for line in lines)
    # Sorted by descending total wall: the parent path dominates its child.
    assert lines[0].startswith("round ")


def test_flamegraph_multi_branch_orders_by_descending_total_wall():
    # Hand-built records pin wall times so the ordering is deterministic:
    # the root dominates, then the single heavy child, then the folded pair.
    tracer = Tracer(enabled=True)
    tracer.records.extend(
        [
            SpanRecord(span_id=0, parent_id=None, name="root", wall_s=1.0),
            SpanRecord(span_id=1, parent_id=0, name="explore", depth=1, wall_s=0.2),
            SpanRecord(span_id=2, parent_id=0, name="explore", depth=1, wall_s=0.2),
            SpanRecord(span_id=3, parent_id=0, name="solve", depth=1, wall_s=0.5),
        ]
    )
    assert tracer.flamegraph().splitlines() == [
        "root 1.000000 1",
        "root;solve 0.500000 1",
        "root;explore 0.400000 2",
    ]


def test_flamegraph_exact_folded_line_format():
    # Each line must be machine-parseable: "<semicolon path> <wall.6f> <count>".
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner", backend="lp"):
            pass
    for line in tracer.flamegraph().splitlines():
        path, wall, count = line.split(" ")
        assert path in ("outer", "outer;inner")
        assert float(wall) >= 0.0 and "." in wall and len(wall.split(".")[1]) == 6
        assert count == "1"


def test_flamegraph_of_empty_tracer_is_empty():
    assert Tracer(enabled=True).flamegraph() == ""


def test_clear_drops_memory_but_not_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(enabled=True, path=path) as tracer:
        with tracer.span("kept-on-disk"):
            pass
        tracer.clear()
        assert tracer.records == []
    assert len(Tracer.read(path)) == 1


# ----------------------------------------------------------------------
# Module-level default
# ----------------------------------------------------------------------
def test_default_tracer_disabled_and_use_tracer_scopes():
    assert get_tracer().enabled is False  # suite runs without REPRO_TRACE
    with span("not-recorded") as record:
        assert record is None
    scoped = Tracer(enabled=True)
    with use_tracer(scoped):
        assert get_tracer() is scoped
        with span("recorded", layer="test"):
            pass
    assert get_tracer() is not scoped
    assert [record.name for record in scoped.records] == ["recorded"]
