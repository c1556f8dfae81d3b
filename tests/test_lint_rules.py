"""Per-rule fixture tests for ``repro.lint``.

Each REP rule gets at least one planted-violation snippet (the rule must
fire) and one clean snippet (the rule must stay quiet), plus tests for the
suppression-pragma grammar: a justified pragma is accepted and suppresses,
a bare ``# repro: noqa`` or a justification-less pragma is itself a
``REP000`` finding, and a pragma whose excused finding no longer exists is
reported as unused.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import known_codes, parse_pragmas, run_lint
from repro.lint.cli import main as lint_main


def lint_snippet(tmp_path: Path, source: str, name: str = "mod.py", select=None):
    """Write ``source`` under ``tmp_path`` and lint it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return run_lint([tmp_path], select=select)


def codes_of(result) -> list[str]:
    """Codes of the unsuppressed findings, in report order."""
    return [finding.code for finding in result.unsuppressed]


# ----------------------------------------------------------------------
# REP001 — wall-clock confinement
# ----------------------------------------------------------------------


def test_rep001_flags_wall_clock_reads(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import time\n"
        "from time import perf_counter\n"
        "import datetime\n"
        "a = time.time()\n"
        "b = perf_counter()\n"
        "c = datetime.datetime.now()\n",
        select=["REP001"],
    )
    assert codes_of(result) == ["REP001", "REP001", "REP001"]
    messages = "\n".join(f.message for f in result.unsuppressed)
    assert "time.time" in messages
    assert "time.perf_counter" in messages
    assert "datetime.now" in messages


def test_rep001_clean_stopwatch_snippet(tmp_path):
    result = lint_snippet(
        tmp_path,
        "from repro.obs.clock import Stopwatch\n"
        "def timed():\n"
        "    watch = Stopwatch()\n"
        "    return watch.elapsed()\n",
        select=["REP001"],
    )
    assert codes_of(result) == []


def test_rep001_exempts_repro_obs_and_benchmarks(tmp_path):
    for relative in ("repro/__init__.py", "repro/obs/__init__.py"):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('"""pkg."""\n', encoding="utf-8")
    result = lint_snippet(
        tmp_path,
        "import time\nSTARTED = time.time()\n",
        name="repro/obs/clockish.py",
        select=["REP001"],
    )
    assert codes_of(result) == []

    result = lint_snippet(
        tmp_path,
        "import time\nSTARTED = time.monotonic()\n",
        name="benchmarks/bench_thing.py",
        select=["REP001"],
    )
    assert codes_of(result) == []


# ----------------------------------------------------------------------
# REP002 — no legacy global NumPy RNG
# ----------------------------------------------------------------------


def test_rep002_flags_legacy_and_unseeded_rng(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "np.random.seed(0)\n"
        "x = np.random.normal(size=3)\n"
        "rng = np.random.default_rng()\n",
        select=["REP002"],
    )
    assert codes_of(result) == ["REP002", "REP002", "REP002"]


def test_rep002_clean_seeded_generator(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "rng = np.random.default_rng(1234)\n"
        "x = rng.normal(size=3)\n",
        select=["REP002"],
    )
    assert codes_of(result) == []


# ----------------------------------------------------------------------
# REP003 — exception hygiene
# ----------------------------------------------------------------------


def test_rep003_flags_bare_and_broad_except(tmp_path):
    result = lint_snippet(
        tmp_path,
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except Exception:\n"
        "    pass\n",
        select=["REP003"],
    )
    assert codes_of(result) == ["REP003", "REP003"]


def test_rep003_clean_specific_except(tmp_path):
    result = lint_snippet(
        tmp_path,
        "try:\n"
        "    pass\n"
        "except (ValueError, KeyError) as error:\n"
        "    raise RuntimeError('no') from error\n",
        select=["REP003"],
    )
    assert codes_of(result) == []


# ----------------------------------------------------------------------
# REP004 — registry integrity
# ----------------------------------------------------------------------


def _write_package(tmp_path: Path, files: dict[str, str]) -> None:
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


def test_rep004_flags_duplicate_registration(tmp_path):
    _write_package(
        tmp_path,
        {
            "pkg/__init__.py": (
                '"""pkg."""\nfrom .mod_a import DetA\nfrom .mod_b import DetB\n'
            ),
            "pkg/mod_a.py": (
                "from repro.registry import DETECTORS\n"
                "@DETECTORS.register('dup')\n"
                "class DetA:\n"
                "    pass\n"
            ),
            "pkg/mod_b.py": (
                "from repro.registry import DETECTORS\n"
                "@DETECTORS.register('dup')\n"
                "class DetB:\n"
                "    pass\n"
            ),
        },
    )
    result = run_lint([tmp_path], select=["REP004"])
    assert codes_of(result) == ["REP004"]
    assert "registered more than once" in result.unsuppressed[0].message


def test_rep004_flags_unreachable_module(tmp_path):
    _write_package(
        tmp_path,
        {
            "pkg/__init__.py": '"""pkg — never imports mod_hidden."""\n',
            "pkg/mod_hidden.py": (
                "from repro.registry import BACKENDS\n"
                "@BACKENDS.register('ghost')\n"
                "class Ghost:\n"
                "    pass\n"
            ),
        },
    )
    result = run_lint([tmp_path], select=["REP004"])
    assert codes_of(result) == ["REP004"]
    assert "never imports it" in result.unsuppressed[0].message


def test_rep004_clean_unique_and_reachable(tmp_path):
    _write_package(
        tmp_path,
        {
            "pkg/__init__.py": '"""pkg."""\nfrom .mod_a import Solo\n',
            "pkg/mod_a.py": (
                "from repro.registry import SYNTHESIZERS\n"
                "@SYNTHESIZERS.register('solo')\n"
                "class Solo:\n"
                "    pass\n"
            ),
        },
    )
    result = run_lint([tmp_path], select=["REP004"])
    assert codes_of(result) == []


def test_rep004_sees_module_level_register_calls(tmp_path):
    _write_package(
        tmp_path,
        {
            "pkg/__init__.py": '"""pkg."""\nfrom .mod_a import A\nfrom .mod_b import B\n',
            "pkg/mod_a.py": (
                "from repro.registry import BACKENDS\n"
                "class A:\n"
                "    pass\n"
                "BACKENDS.register('twin', A)\n"
            ),
            "pkg/mod_b.py": (
                "from repro.registry import BACKENDS\n"
                "class B:\n"
                "    pass\n"
                "BACKENDS.register('twin', B)\n"
            ),
        },
    )
    result = run_lint([tmp_path], select=["REP004"])
    assert codes_of(result) == ["REP004"]


# ----------------------------------------------------------------------
# REP005 — config round-trip
# ----------------------------------------------------------------------


def test_rep005_flags_one_way_to_json(tmp_path):
    result = lint_snippet(
        tmp_path,
        "class Config:\n"
        "    def to_json(self):\n"
        "        return '{}'\n",
        select=["REP005"],
    )
    assert codes_of(result) == ["REP005"]
    assert "no from_json counterpart" in result.unsuppressed[0].message


def test_rep005_flags_to_dict_dropping_a_field(tmp_path):
    result = lint_snippet(
        tmp_path,
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Config:\n"
        "    horizon: int\n"
        "    seed: int\n"
        "    def to_dict(self):\n"
        "        return {'horizon': self.horizon}\n"
        "    @classmethod\n"
        "    def from_dict(cls, data):\n"
        "        return cls(**data)\n",
        select=["REP005"],
    )
    assert codes_of(result) == ["REP005"]
    assert "seed" in result.unsuppressed[0].message


def test_rep005_clean_round_trip(tmp_path):
    result = lint_snippet(
        tmp_path,
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Config:\n"
        "    horizon: int\n"
        "    seed: int\n"
        "    def to_dict(self):\n"
        "        return {'horizon': self.horizon, 'seed': self.seed, 'kind': 'cfg'}\n"
        "    @classmethod\n"
        "    def from_dict(cls, data):\n"
        "        return cls(horizon=data['horizon'], seed=data['seed'])\n"
        "    def to_json(self):\n"
        "        return '{}'\n"
        "    @classmethod\n"
        "    def from_json(cls, text):\n"
        "        return cls(0, 0)\n",
        select=["REP005"],
    )
    assert codes_of(result) == []


# ----------------------------------------------------------------------
# REP006 — metric conventions
# ----------------------------------------------------------------------


def test_rep006_flags_bad_names_and_buckets(tmp_path):
    result = lint_snippet(
        tmp_path,
        "def instruments(registry):\n"
        "    a = registry.counter('events')\n"
        "    b = registry.gauge('queue_depth_total')\n"
        "    c = registry.histogram('latency_s', 'help', buckets=(0.1, 0.1, 1.0))\n",
        select=["REP006"],
    )
    assert codes_of(result) == ["REP006", "REP006", "REP006"]


def test_rep006_clean_instruments(tmp_path):
    result = lint_snippet(
        tmp_path,
        "def instruments(registry):\n"
        "    a = registry.counter('events_total')\n"
        "    b = registry.gauge('queue_depth')\n"
        "    c = registry.histogram('latency_s', 'help', buckets=(0.1, 0.5, 1.0))\n",
        select=["REP006"],
    )
    assert codes_of(result) == []


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------


def test_justified_pragma_suppresses_finding(tmp_path):
    result = lint_snippet(
        tmp_path,
        "try:\n"
        "    pass\n"
        "except Exception:  # repro: noqa REP003 — fixture exercises suppression\n"
        "    pass\n",
    )
    assert codes_of(result) == []
    assert [f.code for f in result.suppressed] == ["REP003"]
    assert result.suppressed[0].justification == "fixture exercises suppression"
    assert result.exit_code == 0


def test_bare_noqa_is_rejected(tmp_path):
    result = lint_snippet(
        tmp_path,
        "try:\n"
        "    pass\n"
        "except Exception:  # repro: noqa\n"
        "    pass\n",
    )
    # The blanket pragma suppresses nothing, so both the REP000 pragma
    # finding and the underlying REP003 finding gate the run.
    assert sorted(codes_of(result)) == ["REP000", "REP003"]
    assert result.exit_code == 1


def test_pragma_without_justification_is_rejected(tmp_path):
    result = lint_snippet(
        tmp_path,
        "try:\n"
        "    pass\n"
        "except Exception:  # repro: noqa REP003\n"
        "    pass\n",
    )
    assert sorted(codes_of(result)) == ["REP000", "REP003"]
    rep000 = next(f for f in result.unsuppressed if f.code == "REP000")
    assert "justification" in rep000.message


def test_unknown_code_in_pragma_is_rejected(tmp_path):
    result = lint_snippet(
        tmp_path,
        "x = 1  # repro: noqa REP999 — no such rule\n",
    )
    assert codes_of(result) == ["REP000"]
    assert "unknown rule code" in result.unsuppressed[0].message


def test_unused_pragma_is_reported(tmp_path):
    result = lint_snippet(
        tmp_path,
        "x = 1  # repro: noqa REP003 — nothing here raises\n",
    )
    assert codes_of(result) == ["REP000"]
    assert "unused suppression" in result.unsuppressed[0].message


def test_parse_pragmas_ignores_strings_and_docstrings(tmp_path):
    source = (
        '"""Docs showing `# repro: noqa REP003` are not pragmas."""\n'
        "text = '# repro: noqa REP001'\n"
        "y = 2  # repro: noqa REP006 — a real comment pragma\n"
    )
    pragmas, findings = parse_pragmas(source, tmp_path / "mod.py", known_codes())
    assert findings == []
    assert list(pragmas) == [3]
    assert pragmas[3].codes == ("REP006",)
    assert pragmas[3].justification == "a real comment pragma"


def test_multi_code_pragma_covers_each_named_code(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import time\n"
        "try:\n"
        "    pass\n"
        "except Exception:  # repro: noqa REP003, REP001 — fixture: joint suppression\n"
        "    t = time.time()\n",
    )
    # REP003 sits on the pragma line and is suppressed; the REP001 read on
    # the *next* line is not (pragmas are same-line only), and the pragma's
    # REP001 code is therefore unused.
    assert sorted(codes_of(result)) == ["REP000", "REP001"]
    assert [f.code for f in result.suppressed] == ["REP003"]


def test_syntax_error_is_a_rep000_finding(tmp_path):
    result = lint_snippet(tmp_path, "def broken(:\n    pass\n")
    assert codes_of(result) == ["REP000"]
    assert "syntax" in result.unsuppressed[0].message.lower()


# ----------------------------------------------------------------------
# CLI and reports
# ----------------------------------------------------------------------


def test_cli_json_output_and_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    status = lint_main([str(bad), "--format", "json", "--output", str(report_path)])
    assert status == 1
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["summary"]["unsuppressed"] == 1
    assert payload["findings"][0]["code"] == "REP003"
    assert "1 unsuppressed finding(s)" in capsys.readouterr().err


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n", encoding="utf-8")
    status = lint_main([str(good)])
    assert status == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_rejects_unknown_select_code(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n", encoding="utf-8")
    status = lint_main([str(good), "--select", "REP777"])
    assert status == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for code in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006"):
        assert code in output
