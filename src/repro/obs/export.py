"""Exporters: Prometheus text exposition, JSON snapshots, periodic scraping.

A :class:`repro.obs.metrics.MetricsRegistry` is process-local state; this
module turns it into files other tools read:

* :func:`prometheus_text` renders the standard text exposition format —
  ``# HELP``/``# TYPE`` headers, labelled sample lines, cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count`` for histograms.
  :func:`parse_prometheus_text` inverts it exactly: parsing the exposition
  of a registry reproduces its :meth:`snapshot` bit for bit (tested), so
  the text format is a lossless transport, not just a display.
* :func:`write_json_snapshot` / :func:`read_json_snapshot` persist the raw
  snapshot dict (atomic write via temp file + rename, so a scraper never
  reads a half-written file).
* :class:`PeriodicScraper` is the hook long-running loops call once per
  round: it rewrites the exposition file at most every ``interval_s``
  seconds, turning any loop into a Prometheus scrape target backed by a
  plain file.
* :func:`text_report` is the human-facing dump for notebooks and CLI runs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.utils.jsonl import replace_text
from repro.utils.validation import ValidationError


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(labels: dict, extra: list | None = None) -> str:
    pairs = [(str(k), str(v)) for k, v in sorted(labels.items())]
    if extra:
        pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _resolve_snapshot(registry_or_snapshot) -> dict:
    if registry_or_snapshot is None:
        registry_or_snapshot = get_registry()
    if isinstance(registry_or_snapshot, MetricsRegistry):
        return registry_or_snapshot.snapshot()
    if isinstance(registry_or_snapshot, dict):
        return registry_or_snapshot
    raise ValidationError(
        "expected a MetricsRegistry or a snapshot dict, "
        f"got {type(registry_or_snapshot).__name__}"
    )


def prometheus_text(registry_or_snapshot=None) -> str:
    """Render a registry (or snapshot) in Prometheus text exposition format.

    Counters and gauges become one sample line per label set; histograms
    become cumulative ``<name>_bucket{le="..."}`` series (the overflow
    bucket is ``le="+Inf"``) plus ``<name>_sum`` and ``<name>_count``.
    Instruments keep their registered names verbatim — the repo's
    convention is to name counters ``*_total`` at registration, so the
    exposition needs no suffix rewriting and stays invertible.

    A histogram with *zero* observations still emits one explicit
    unlabelled all-zero bucket series (plus ``_sum 0`` / ``_count 0``) so
    its bucket bounds survive the round trip;
    :func:`parse_prometheus_text` recognises and drops that synthetic
    series, keeping the exposition exactly invertible.
    """
    snap = _resolve_snapshot(registry_or_snapshot)
    lines = []
    for name in sorted(snap.get("counters", {})):
        entry = snap["counters"][name]
        lines.append(f"# HELP {name} {entry.get('help', '')}".rstrip())
        lines.append(f"# TYPE {name} counter")
        for cell in entry["values"]:
            lines.append(f"{name}{_label_str(cell['labels'])} {_format_number(cell['value'])}")
    for name in sorted(snap.get("gauges", {})):
        entry = snap["gauges"][name]
        lines.append(f"# HELP {name} {entry.get('help', '')}".rstrip())
        lines.append(f"# TYPE {name} gauge")
        for cell in entry["values"]:
            lines.append(f"{name}{_label_str(cell['labels'])} {_format_number(cell['value'])}")
    for name in sorted(snap.get("histograms", {})):
        entry = snap["histograms"][name]
        bounds = entry["buckets"]
        lines.append(f"# HELP {name} {entry.get('help', '')}".rstrip())
        lines.append(f"# TYPE {name} histogram")
        for cell in entry["values"]:
            cumulative = 0
            for bound, count in zip(bounds, cell["counts"]):
                cumulative += count
                label = _label_str(cell["labels"], extra=[("le", _format_number(bound))])
                lines.append(f"{name}_bucket{label} {cumulative}")
            cumulative += cell["counts"][-1]
            label = _label_str(cell["labels"], extra=[("le", "+Inf")])
            lines.append(f"{name}_bucket{label} {cumulative}")
            lines.append(f"{name}_sum{_label_str(cell['labels'])} {_format_number(cell['sum'])}")
            lines.append(f"{name}_count{_label_str(cell['labels'])} {cell['count']}")
        if not entry["values"]:
            # Zero observations: emit an explicit all-zero unlabelled series so
            # the bucket bounds survive parse_prometheus_text (which drops it).
            for bound in bounds:
                label = _label_str({}, extra=[("le", _format_number(bound))])
                lines.append(f"{name}_bucket{label} 0")
            lines.append(f'{name}_bucket{{le="+Inf"}} 0')
            lines.append(f"{name}_sum 0")
            lines.append(f"{name}_count 0")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_labels(body: str) -> dict:
    labels = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip()
        if body[eq + 1] != '"':
            raise ValidationError(f"malformed label value near {body[eq:]!r}")
        j = eq + 2
        raw = []
        while j < len(body):
            ch = body[j]
            if ch == "\\":
                raw.append(body[j : j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        labels[key] = _unescape_label("".join(raw))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def _parse_value(token: str) -> float:
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    return float(token)


def _split_sample(line: str) -> tuple[str, dict, float]:
    if "{" in line:
        name, rest = line.split("{", 1)
        body, value_part = rest.rsplit("}", 1)
        return name, _parse_labels(body), _parse_value(value_part.strip())
    name, value_part = line.split(None, 1)
    return name, {}, _parse_value(value_part.strip())


def parse_prometheus_text(text: str) -> dict:
    """Parse text exposition back into a registry snapshot dict.

    This is the exact inverse of :func:`prometheus_text` for expositions it
    produced: cumulative bucket series are differenced back to per-bucket
    counts and the ``+Inf`` bucket becomes the overflow cell, so
    ``parse_prometheus_text(prometheus_text(reg)) == reg.snapshot()``
    with no caveat: the explicit all-zero unlabelled series a
    zero-observation histogram emits is recognised as the bounds carrier
    (its bounds are kept, the synthetic cell is not appended to
    ``values``).  Live registries never produce a real all-zero cell —
    histogram cells only come into existence on ``observe()`` — so the
    synthetic series is unambiguous.
    """
    snap = {"counters": {}, "gauges": {}, "histograms": {}}
    kinds = {}
    # First pass: HELP/TYPE headers declare every instrument, populated or not.
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# HELP "):
            _, _, rest = line.split(" ", 2)
            name, _, help_text = rest.partition(" ")
            kinds.setdefault(name, {})["help"] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.split(" ", 2)
            name, _, kind = rest.partition(" ")
            kinds.setdefault(name, {})["kind"] = kind.strip()
    for name, meta in kinds.items():
        kind = meta.get("kind")
        help_text = meta.get("help", "")
        if kind == "counter":
            snap["counters"][name] = {"help": help_text, "values": []}
        elif kind == "gauge":
            snap["gauges"][name] = {"help": help_text, "values": []}
        elif kind == "histogram":
            snap["histograms"][name] = {"help": help_text, "buckets": [], "values": []}
    # Second pass: sample lines.  Histogram cells accumulate bucket bounds and
    # cumulative counts per label set, differenced at the end.
    hist_cells: dict[str, dict] = {name: {} for name in snap["histograms"]}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = _split_sample(line)
        base = None
        for candidate in snap["histograms"]:
            if name in (f"{candidate}_bucket", f"{candidate}_sum", f"{candidate}_count"):
                base = candidate
                break
        if base is not None:
            cell_labels = {k: v for k, v in labels.items() if not (name.endswith("_bucket") and k == "le")}
            key = tuple(sorted(cell_labels.items()))
            cell = hist_cells[base].setdefault(
                key, {"labels": cell_labels, "bounds": [], "cumulative": [], "sum": 0.0, "count": 0}
            )
            if name.endswith("_bucket"):
                bound = labels["le"]
                cell["bounds"].append(bound)
                cell["cumulative"].append(value)
            elif name.endswith("_sum"):
                cell["sum"] = value
            else:
                cell["count"] = int(value)
        elif name in snap["counters"]:
            snap["counters"][name]["values"].append({"labels": labels, "value": value})
        elif name in snap["gauges"]:
            snap["gauges"][name]["values"].append({"labels": labels, "value": value})
        else:
            raise ValidationError(f"sample line for undeclared metric: {line!r}")
    for name, cells in hist_cells.items():
        for _, cell in sorted(cells.items()):
            finite = [b for b in cell["bounds"] if b != "+Inf"]
            bounds = [float(b) for b in finite]
            if not snap["histograms"][name]["buckets"]:
                snap["histograms"][name]["buckets"] = bounds
            counts = []
            previous = 0.0
            for cumulative in cell["cumulative"]:
                counts.append(int(cumulative - previous))
                previous = cumulative
            if (
                not cell["labels"]
                and cell["count"] == 0
                and cell["sum"] == 0.0
                and not any(counts)
            ):
                # The synthetic bounds carrier of a zero-observation
                # histogram: keep its bounds, don't materialise a cell.
                continue
            snap["histograms"][name]["values"].append(
                {
                    "labels": cell["labels"],
                    "counts": counts,
                    "sum": cell["sum"],
                    "count": cell["count"],
                }
            )
    return snap


def write_json_snapshot(path: str | Path, registry_or_snapshot=None) -> Path:
    """Write a snapshot as JSON, atomically (temp file + rename)."""
    snap = _resolve_snapshot(registry_or_snapshot)
    return replace_text(path, json.dumps(snap, indent=2, sort_keys=True) + "\n")


def read_json_snapshot(path: str | Path) -> dict:
    """Load a snapshot written by :func:`write_json_snapshot`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


class PeriodicScraper:
    """Rewrites an exposition file at most every ``interval_s`` seconds.

    Long-running loops (``MonitorService`` rounds, explorer iterations) call
    :meth:`maybe_scrape` once per iteration; the file is refreshed only when
    the interval has elapsed, so the hook is cheap enough for hot loops.
    Call :meth:`scrape` directly for an unconditional flush (e.g. at
    shutdown).  ``fmt`` selects Prometheus text exposition (default) or the
    raw JSON snapshot.
    """

    def __init__(
        self,
        path: str | Path,
        registry: MetricsRegistry | None = None,
        interval_s: float = 10.0,
        fmt: str = "prometheus",
    ):
        if fmt not in ("prometheus", "json"):
            raise ValidationError(f"fmt must be 'prometheus' or 'json', got {fmt!r}")
        if interval_s < 0:
            raise ValidationError("interval_s must be non-negative")
        self.path = Path(path)
        self.registry = registry
        self.interval_s = float(interval_s)
        self.fmt = fmt
        self.scrapes = 0
        self._last_scrape: float | None = None

    def scrape(self) -> Path:
        """Write the exposition file now, unconditionally."""
        self._write()
        return self.path

    def maybe_scrape(self, now: float | None = None) -> bool:
        """Scrape if ``interval_s`` has elapsed since the last one.

        Returns whether a scrape happened.  ``now`` (a ``time.monotonic``
        value) is injectable for tests.
        """
        current = time.monotonic() if now is None else now
        if self._last_scrape is not None and current - self._last_scrape < self.interval_s:
            return False
        self._write(current)
        return True

    def _write(self, now: float | None = None) -> None:
        if self.fmt == "json":
            write_json_snapshot(self.path, self.registry)
        else:
            replace_text(self.path, prometheus_text(self.registry))
        self.scrapes += 1
        self._last_scrape = time.monotonic() if now is None else now


def text_report(registry_or_snapshot=None) -> str:
    """Human-readable metrics dump for notebooks and CLI output."""
    snap = _resolve_snapshot(registry_or_snapshot)
    lines = ["metrics report"]
    for kind in ("counters", "gauges"):
        for name in sorted(snap.get(kind, {})):
            entry = snap[kind][name]
            if not entry["values"]:
                continue
            lines.append(f"  {name} ({kind[:-1]})")
            for cell in entry["values"]:
                label = _label_str(cell["labels"]) or "{}"
                lines.append(f"    {label} = {_format_number(cell['value'])}")
    for name in sorted(snap.get("histograms", {})):
        entry = snap["histograms"][name]
        if not entry["values"]:
            continue
        lines.append(f"  {name} (histogram)")
        for cell in entry["values"]:
            label = _label_str(cell["labels"]) or "{}"
            mean = cell["sum"] / cell["count"] if cell["count"] else float("nan")
            lines.append(
                f"    {label}: count={cell['count']} sum={cell['sum']:.6f} mean={mean:.6f}"
            )
    return "\n".join(lines)


__all__ = [
    "PeriodicScraper",
    "parse_prometheus_text",
    "prometheus_text",
    "read_json_snapshot",
    "text_report",
    "write_json_snapshot",
]
