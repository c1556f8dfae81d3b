"""Persistent content-addressed result store for design-space exploration.

The store maps a *stable hash of the canonical config dict* of an experiment
point to the JSON row that point produced, so that re-running an exploration
— or any ``BatchRunner`` call opted in via a ``store=`` kwarg — never
recomputes an already-solved point and can resume after an interruption.
This is the library's one result cache: every key is derived from an
:class:`~repro.api.config.ExperimentUnit` by :func:`split_unit_keys`.

Layout (one directory per store)::

    <path>/results.jsonl   one JSON object per line: {"key", "config", "row"}
    <path>/index.json      {"version", "count", "size", "keys": {key: offset}}

``results.jsonl`` is the single source of truth and is strictly append-only;
``index.json`` is a rebuildable sidecar mapping every key to its record's
byte offset — the store itself replays the log on open (rows live in
memory), so the index exists for external tooling and future partial
readers to seek records without a full replay, and as cheap staleness
metadata (``size``/``count``).  On open the JSONL log is replayed line by
line:

* a truncated/corrupt *trailing* line (the signature of a crash mid-append)
  is dropped and the file truncated back to the last good record;
* a corrupt *interior* line is skipped (its key simply re-computes);
* a missing or stale ``index.json`` is rebuilt from the replay.

Cache-key stability guarantees
------------------------------
Keys are SHA-256 over the canonical JSON form of the config dict (sorted
keys, no whitespace, ``allow_nan=False``).  Configs are plain data produced
by ``to_dict()`` methods, so a key is stable across processes, Python
versions and machines as long as the config is value-identical.  Anything
that changes the computation (case study, horizon, backend, algorithm,
synthesis knobs, FAR population, probe settings) must therefore be *in* the
config; anything that does not (e.g. a Pareto feasibility budget) must stay
out, so equal computations share one entry.

Synthesis / evaluation key split
--------------------------------
An experiment unit's content address is the *pair* of two SHA-256 halves
(:func:`split_unit_keys`):

* the **synthesis key** hashes the fields that determine the solver work —
  problem (case study + options, horizon), synthesizer, backend, synthesis
  knobs (``max_rounds``, ``min_threshold``) and the relax stage;
* the **evaluation key** hashes the fields that only post-process the
  synthesized detector — the FAR population (count/seed/noise scale/...)
  and the online probe settings — plus the noise stream contract's
  :data:`~repro.utils.rng.STREAM_VERSION`, so FAR and probe rows drawn
  under another contract are recomputed while synthesis records are reused.

The full row is stored under ``"<synthesis>:<evaluation>"``
(:func:`unit_store_key`), and the reusable synthesis outcome additionally
under ``"synthesis:<synthesis>"`` (:func:`synthesis_store_key`).  Units
that differ only in their evaluation half — e.g. the same point re-explored
across noise scales or FAR budgets — therefore find their synthesis record
on disk and re-run only the cheap evaluation, with zero solver calls.
Every :class:`~repro.api.config.ExperimentUnit` field must be classified
into exactly one half; an unclassified field raises, so a future field
cannot silently corrupt the cache.

The first write for a key wins: a ``put`` for an existing key is a no-op,
which keeps rows served from the store bit-identical to the first fresh
computation for the lifetime of the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from repro.utils.rng import STREAM_VERSION
from repro.utils.validation import ValidationError

_INDEX_VERSION = 1
_INDEX_FLUSH_EVERY = 64


def canonical_config_key(config: dict) -> str:
    """Stable SHA-256 hex key of a JSON-compatible config dict.

    Raises :class:`ValidationError` when ``config`` is not canonicalizable
    (non-JSON values, NaN/Infinity) — a loud failure beats a silently
    unstable cache key.
    """
    try:
        text = json.dumps(
            config, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"config is not canonicalizable for content addressing: {exc}"
        ) from exc
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: :class:`~repro.api.config.ExperimentUnit` fields whose values change the
#: solver work (the synthesis half of the content address).
SYNTHESIS_KEY_FIELDS = (
    "case_study",
    "case_study_options",
    "backend",
    "algorithm",
    "max_rounds",
    "min_threshold",
    "relax",
)

#: Unit fields that only post-process an already-synthesized detector (the
#: evaluation half of the content address).
EVALUATION_KEY_FIELDS = ("far", "probe")


def split_unit_keys(config: dict) -> tuple[str, str]:
    """The ``(synthesis_key, evaluation_key)`` halves of a unit config.

    ``config`` is an :class:`~repro.api.config.ExperimentUnit` ``to_dict()``
    payload.  Fields belonging to neither half raise
    :class:`ValidationError`: a new unit field must be explicitly classified
    as changing the synthesis or only the evaluation before it can be
    content-addressed, otherwise value-distinct computations could silently
    share a cache entry.
    """
    unknown = set(config) - set(SYNTHESIS_KEY_FIELDS) - set(EVALUATION_KEY_FIELDS)
    if unknown:
        raise ValidationError(
            f"unit config fields {sorted(unknown)} are not classified as "
            "synthesis or evaluation fields; add them to "
            "SYNTHESIS_KEY_FIELDS or EVALUATION_KEY_FIELDS in repro.explore.store"
        )
    synthesis = canonical_config_key({k: config.get(k) for k in SYNTHESIS_KEY_FIELDS})
    evaluation_fields = {k: config.get(k) for k in EVALUATION_KEY_FIELDS}
    evaluation = canonical_config_key({**evaluation_fields, "streams": STREAM_VERSION})
    return synthesis, evaluation


def unit_store_key(config: dict) -> str:
    """Full content address of a unit: ``"<synthesis_key>:<evaluation_key>"``."""
    synthesis, evaluation = split_unit_keys(config)
    return f"{synthesis}:{evaluation}"


def synthesis_store_key(config: dict) -> str:
    """Store key of a unit's reusable synthesis record: ``"synthesis:<key>"``."""
    return "synthesis:" + split_unit_keys(config)[0]


class StoreCorruptionWarning(UserWarning):
    """Emitted when opening a store requires dropping unreadable records."""


class ResultStore:
    """Persistent content-addressed map from config keys to result rows.

    Parameters
    ----------
    path:
        Directory holding ``results.jsonl`` and ``index.json``; created on
        first use.

    Notes
    -----
    All rows are held in memory (they are small JSON dicts); the JSONL log
    is append-only and flushed per record, so a run interrupted at any point
    loses at most the record being written — which the next open detects and
    truncates.  ``hits`` / ``misses`` count :meth:`get` outcomes since open,
    so callers can report cache effectiveness.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.results_path = self.path / "results.jsonl"
        self.index_path = self.path / "index.json"
        self._rows: dict[str, dict] = {}
        self._offsets: dict[str, int] = {}
        self._dirty = 0
        self.hits = 0
        self.misses = 0
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not self.results_path.exists():
            self._write_index()
            return
        dropped = 0
        good_end = 0
        with self.results_path.open("rb") as handle:
            offset = 0
            for line in handle:
                next_offset = offset + len(line)
                try:
                    # A record not terminated by its newline is the partial
                    # write of an interrupted append — even when the bytes
                    # happen to parse as JSON, the next append would fuse
                    # with it, so it must be truncated, not kept.
                    if not line.endswith(b"\n"):
                        raise ValueError("unterminated record")
                    record = json.loads(line.decode("utf-8"))
                    key = record["key"]
                    row = record["row"]
                    if not isinstance(key, str) or not isinstance(row, dict):
                        raise ValueError("malformed record")
                except (ValueError, KeyError, UnicodeDecodeError):
                    dropped += 1
                    offset = next_offset
                    continue
                if key not in self._rows:  # first write wins
                    self._rows[key] = row
                    self._offsets[key] = offset
                good_end = next_offset
                offset = next_offset
        size = self.results_path.stat().st_size
        if dropped:
            warnings.warn(
                f"result store {self.path}: dropped {dropped} unreadable record(s); "
                f"{len(self._rows)} recovered",
                StoreCorruptionWarning,
                stacklevel=3,
            )
        if good_end < size:
            # Truncate a partially-written tail so the next append starts
            # from a clean record boundary.
            with self.results_path.open("r+b") as handle:
                handle.truncate(good_end)
        if not self._index_current():
            self._write_index()

    # ------------------------------------------------------------------
    def _index_current(self) -> bool:
        """Whether the on-disk index matches the replayed log (skip rewrite)."""
        try:
            index = json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            return False
        size = self.results_path.stat().st_size if self.results_path.exists() else 0
        return (
            index.get("version") == _INDEX_VERSION
            and index.get("size") == size
            and index.get("keys") == self._offsets
        )

    def _write_index(self) -> None:
        payload = {
            "version": _INDEX_VERSION,
            "count": len(self._rows),
            "size": self.results_path.stat().st_size if self.results_path.exists() else 0,
            "keys": self._offsets,
        }
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.index_path)
        self._dirty = 0

    def flush(self) -> None:
        """Persist the index sidecar (the JSONL log is always up to date)."""
        if self._dirty:
            self._write_index()

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The stored row for ``key`` (a copy), or ``None`` on a miss."""
        row = self.peek(key)
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def peek(self, key: str) -> dict | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        Used for cache-*adjacent* lookups (the synthesis-half records behind
        :func:`synthesis_store_key`) whose outcome must not distort the
        row-level cache-effectiveness statistics callers report.
        """
        row = self._rows.get(key)
        return None if row is None else json.loads(json.dumps(row))

    def put(self, key: str, config: dict, row: dict) -> bool:
        """Append one record; returns False (no-op) when ``key`` exists."""
        if key in self._rows:
            return False
        record = {"key": key, "config": config, "row": row}
        line = json.dumps(record, sort_keys=True) + "\n"
        offset = self.results_path.stat().st_size if self.results_path.exists() else 0
        with self.results_path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
        self._rows[key] = json.loads(json.dumps(row))
        self._offsets[key] = offset
        self._dirty += 1
        if self._dirty >= _INDEX_FLUSH_EVERY:
            self._write_index()
        return True

    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Every stored key (unsorted-input insertion order)."""
        return list(self._rows)

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.path)!r}, entries={len(self)})"


def as_store(store) -> ResultStore | None:
    """Coerce a ``store=`` argument: None, a path, or a ResultStore."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
