"""Tests for repro.explore.store: content addressing, persistence, recovery."""

import json

import pytest

from repro.explore import ResultStore, StoreCorruptionWarning, canonical_config_key
from repro.utils.validation import ValidationError


class TestCanonicalKey:
    def test_key_ignores_dict_ordering(self):
        assert canonical_config_key({"a": 1, "b": [1, 2]}) == canonical_config_key(
            {"b": [1, 2], "a": 1}
        )

    def test_key_distinguishes_values(self):
        assert canonical_config_key({"a": 1}) != canonical_config_key({"a": 2})
        assert canonical_config_key({"a": 1}) != canonical_config_key({"a": 1.5})

    def test_non_canonicalizable_rejected(self):
        with pytest.raises(ValidationError):
            canonical_config_key({"a": float("nan")})
        with pytest.raises(ValidationError):
            canonical_config_key({"a": object()})


class TestResultStore:
    def test_put_get_roundtrip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        row = {"status": "sat", "false_alarm_rate": 0.25, "metrics": {"m": 1.0}}
        assert store.put("k1", {"cfg": 1}, row)
        assert store.get("missing") is None
        assert store.get("k1") == row
        assert (store.hits, store.misses) == (1, 1)
        assert "k1" in store and len(store) == 1

    def test_returned_rows_are_copies(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put("k", {}, {"metrics": {"a": 1}})
        store.get("k")["metrics"]["a"] = 999
        assert store.get("k")["metrics"]["a"] == 1

    def test_first_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.put("k", {}, {"v": 1})
        assert not store.put("k", {}, {"v": 2})
        assert store.get("k") == {"v": 1}

    def test_persistence_across_opens(self, tmp_path):
        path = tmp_path / "s"
        store = ResultStore(path)
        store.put("k1", {"c": 1}, {"v": 1})
        store.put("k2", {"c": 2}, {"v": 2})
        reopened = ResultStore(path)
        assert len(reopened) == 2
        assert reopened.get("k2") == {"v": 2}

    def test_partial_trailing_write_is_truncated_and_recovered(self, tmp_path):
        path = tmp_path / "s"
        store = ResultStore(path)
        store.put("k1", {}, {"v": 1})
        store.put("k2", {}, {"v": 2})
        # Simulate a crash mid-append: a record cut off without newline.
        with (path / "results.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k3", "row": {"v"')
        with pytest.warns(StoreCorruptionWarning):
            recovered = ResultStore(path)
        assert sorted(recovered.keys()) == ["k1", "k2"]
        # The truncated tail is gone: the next append starts a clean record.
        recovered.put("k3", {}, {"v": 3})
        reread = ResultStore(path)
        assert sorted(reread.keys()) == ["k1", "k2", "k3"]
        assert reread.get("k3") == {"v": 3}

    def test_unterminated_valid_json_tail_truncated(self, tmp_path):
        """Even a fully-written record is partial without its newline —
        keeping it would fuse it with the next append."""
        path = tmp_path / "s"
        store = ResultStore(path)
        store.put("k1", {}, {"v": 1})
        with (path / "results.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "k2", "config": {}, "row": {"v": 2}}))
        with pytest.warns(StoreCorruptionWarning):
            recovered = ResultStore(path)
        assert recovered.keys() == ["k1"]
        recovered.put("k2", {}, {"v": 2})
        reread = ResultStore(path)
        assert sorted(reread.keys()) == ["k1", "k2"]
        assert reread.get("k2") == {"v": 2}

    def test_interior_corruption_skipped(self, tmp_path):
        path = tmp_path / "s"
        store = ResultStore(path)
        store.put("k1", {}, {"v": 1})
        store.put("k2", {}, {"v": 2})
        lines = (path / "results.jsonl").read_text().splitlines()
        lines[0] = "this is not json"
        (path / "results.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.warns(StoreCorruptionWarning):
            recovered = ResultStore(path)
        assert recovered.keys() == ["k2"]

    def test_store_directory_holds_only_the_results_log(self, tmp_path):
        path = tmp_path / "s"
        store = ResultStore(path)
        store.put("k1", {}, {"v": 1})
        store.put("k2", {}, {"v": 2})
        reopened = ResultStore(path)
        assert reopened.keys() == ["k1", "k2"]
        assert [p.name for p in path.iterdir()] == ["results.jsonl"]
