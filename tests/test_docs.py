"""Documentation gates: docstring presence and markdown link integrity.

Mirrors the CI docs job locally (which runs ruff's pydocstyle D100/D101
rules and this file): every module and class in the documented subsystems
(``repro.api``, ``repro.core``, ``repro.detectors``, ``repro.explore``,
``repro.falsification``, ``repro.lint``, ``repro.monitors``, ``repro.obs``,
``repro.runtime``, ``repro.serve``) carries a docstring, the headline
classes of this PR document their semantics, and every relative link and
anchor in ``README.md`` / ``docs/*.md`` resolves.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: Packages whose modules and classes are documentation-gated.
DOCUMENTED_PACKAGES = (
    "api",
    "core",
    "detectors",
    "explore",
    "falsification",
    "lint",
    "monitors",
    "obs",
    "runtime",
    "serve",
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = re.compile(r"^[a-z][a-z0-9+.-]*:")  # http:, https:, mailto:, ...
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def _documented_modules() -> list[Path]:
    files = []
    for package in DOCUMENTED_PACKAGES:
        # rglob so subpackages (e.g. repro.obs.watch) are gated too.
        files.extend(sorted((SRC / package).rglob("*.py")))
    assert files, "documented packages not found"
    return files


def _doc_pages() -> list[Path]:
    pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    assert len(pages) >= 3, "expected README.md plus the docs/ suite"
    return pages


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _anchors(page: Path) -> set[str]:
    anchors = set()
    in_fence = False
    for line in page.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence and line.startswith("#"):
            anchors.add(_github_slug(line.lstrip("#")))
    return anchors


class TestDocstrings:
    @pytest.mark.parametrize("path", _documented_modules(), ids=lambda p: p.stem)
    def test_every_module_has_a_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.relative_to(REPO_ROOT)} lacks a module docstring"

    @pytest.mark.parametrize("path", _documented_modules(), ids=lambda p: p.stem)
    def test_every_class_has_a_docstring(self, path):
        tree = ast.parse(path.read_text())
        undocumented = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and not ast.get_docstring(node)
        ]
        assert not undocumented, (
            f"{path.relative_to(REPO_ROOT)} has undocumented classes: {undocumented}"
        )

    def test_headline_classes_document_their_semantics(self):
        from repro.api.config import RelaxConfig
        from repro.core.session import SynthesisSession
        from repro.explore import store

        assert "floor" in RelaxConfig.__doc__ and "residual-risk" in RelaxConfig.__doc__
        assert "once" in SynthesisSession.__doc__       # one encoding per problem
        # The store module documents its key derivation, split included.
        assert "synthesis key" in store.__doc__ and "evaluation key" in store.__doc__
        assert store.ResultStore.__doc__

    def test_kernel_documents_its_equivalence_contract(self):
        from repro.runtime.kernel import core, lanes

        # The fused stepper's docs must state the gate, not just the layout:
        # bit-identity is probed empirically, and the signed-zero caveat of
        # the skipped feed-through add is spelled out.
        assert "bit-identical" in core.__doc__
        assert "probe" in core.probe_fused_equivalence.__doc__
        assert "Signed-zero" in core.__doc__
        assert "Exactness contract" in lanes.__doc__


class TestMarkdownLinks:
    @pytest.mark.parametrize("page", _doc_pages(), ids=lambda p: p.name)
    def test_relative_links_and_anchors_resolve(self, page):
        broken = []
        for target in _LINK.findall(page.read_text()):
            if _EXTERNAL.match(target):
                continue
            path_part, _, anchor = target.partition("#")
            resolved = page if not path_part else (page.parent / path_part).resolve()
            if not resolved.exists():
                broken.append(target)
                continue
            if anchor and resolved.suffix == ".md" and anchor not in _anchors(resolved):
                broken.append(target)
        assert not broken, f"{page.name} has broken links/anchors: {broken}"

    def test_markdown_files_named_in_docstrings_exist(self):
        # A docstring under src/ or benchmarks/ names a page relative to the
        # repository root (``docs/serving.md``, ``PAPER.md``).
        named, missing = set(), set()
        for path in [*SRC.rglob("*.py"), *(REPO_ROOT / "benchmarks").rglob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(
                    node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for name in _MD_NAME.findall(ast.get_docstring(node) or ""):
                    named.add(name)
                    if not (REPO_ROOT / name).is_file():
                        missing.add(f"{path.relative_to(REPO_ROOT)}: {name}")
        assert "docs/architecture.md" in named
        assert not missing, f"docstrings name missing pages: {sorted(missing)}"

    def test_readme_links_into_the_docs_suite(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/architecture.md" in readme
        assert "docs/exploration.md" in readme
        assert "docs/observability.md" in readme
        assert "docs/runtime-kernel.md" in readme

    def test_observability_doc_covers_the_obs_contract(self):
        page = (REPO_ROOT / "docs" / "observability.md").read_text()
        # The two load-bearing guarantees the subsystem is built around.
        assert "parse_prometheus_text(prometheus_text(" in page
        assert "REPRO_METRICS" in page and "REPRO_TRACE" in page
        assert "snapshot" in page and "merge" in page

    def test_observability_table_lists_every_registered_metric(self):
        # Every instrument name registered under src/repro — a string
        # literal passed to .counter/.gauge/.histogram — is in the table.
        page = (REPO_ROOT / "docs" / "observability.md").read_text()
        table = page.split("## What each layer records", 1)[1].split("\n## ", 1)[0]
        listed = set(re.findall(r"`([a-z_]+)(?:\{[^`]*)?`", table))
        registered = set()
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    registered.add(node.args[0].value)
        assert "fleet_alarms_total" in registered, "the scan found no registrations"
        missing = sorted(registered - listed)
        assert not missing, f"docs/observability.md does not list {missing}"
