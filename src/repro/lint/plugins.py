"""Plugin-registry rule: REP004 — registrations are unique and reachable.

The library's eight string-resolved extension points (``BACKENDS``,
``SYNTHESIZERS``, ``DETECTORS``, ``NOISE_MODELS``, ``CASE_STUDIES``,
``ATTACK_TEMPLATES``, ``SAMPLERS``, ``ENGINES`` in :mod:`repro.registry`)
populate themselves when their defining modules are imported, through the
one registration spelling ``<REGISTRY>.register(name, ...)`` (call or
decorator).  Two invariants keep that working:

* **Uniqueness** — one name, one registration site.  A duplicate name
  would either raise :class:`~repro.registry.RegistryError` at import time
  or (with ``overwrite=True``) silently shadow a built-in.
* **Reachability** — the module containing a registration must be imported
  by its package's ``__init__.py``; otherwise the plugin exists only for
  callers that happen to import the module directly, and registry lookups
  that rely on the package import miss it.

This is a cross-file rule: registrations are collected per file in
``check`` and reconciled once in ``finish``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.lint.base import FileContext, Finding, LintRule, ProjectContext

#: Registry variables in :mod:`repro.registry`, by conventional name.
REGISTRY_VARS = frozenset(
    {
        "BACKENDS",
        "SYNTHESIZERS",
        "DETECTORS",
        "NOISE_MODELS",
        "CASE_STUDIES",
        "ATTACK_TEMPLATES",
        "SAMPLERS",
        "ENGINES",
    }
)

@dataclass(frozen=True)
class Registration:
    """One statically visible ``<registry>.register(<name>)`` site."""

    registry: str
    plugin: str
    module: str
    path: Path
    line: int
    column: int


def _registration_target(call: ast.Call) -> str | None:
    """The registry a ``<REGISTRY>.register`` call targets, else ``None``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "register"
        and isinstance(func.value, ast.Name)
        and func.value.id in REGISTRY_VARS
    ):
        return func.value.id
    return None


def _plugin_name(call: ast.Call) -> str | None:
    """The constant plugin name of a register call (``None`` when dynamic)."""
    if not call.args:
        return None
    name = call.args[0]
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return name.value
    return None


class RegistryRule(LintRule):
    """REP004: plugin names are unique and their modules package-reachable."""

    code = "REP004"
    name = "registry-integrity"
    description = (
        "Every <REGISTRY>.register(...) plugin lives in a module imported by its "
        "package __init__, and registry names are unique across the tree."
    )

    def __init__(self) -> None:
        self._registrations: list[Registration] = []

    # ------------------------------------------------------------------
    def check(self, ctx: FileContext) -> list[Finding]:
        """Collect every statically visible registration in ``ctx``."""
        calls: list[ast.Call] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.extend(
                    decorator
                    for decorator in node.decorator_list
                    if isinstance(decorator, ast.Call)
                )
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                calls.append(node.value)
        for call in calls:
            registry = _registration_target(call)
            if registry is None:
                continue
            plugin = _plugin_name(call)
            if plugin is None:
                continue
            self._registrations.append(
                Registration(
                    registry=registry,
                    plugin=plugin,
                    module=ctx.module,
                    path=ctx.path,
                    line=call.lineno,
                    column=call.col_offset,
                )
            )
        return []

    # ------------------------------------------------------------------
    def finish(self, project: ProjectContext) -> list[Finding]:
        """Reconcile collected registrations: uniqueness, then reachability."""
        findings: list[Finding] = []

        by_name: dict[tuple[str, str], list[Registration]] = {}
        for registration in self._registrations:
            by_name.setdefault(
                (registration.registry, registration.plugin), []
            ).append(registration)
        for (registry, plugin), sites in sorted(by_name.items()):
            if len(sites) < 2:
                continue
            sites = sorted(sites, key=lambda s: (str(s.path), s.line))
            first = sites[0]
            for extra in sites[1:]:
                findings.append(
                    Finding(
                        code=self.code,
                        message=(
                            f"{registry} name {plugin!r} is registered more than "
                            f"once (first at {first.path}:{first.line}) — registry "
                            "names must be unique"
                        ),
                        path=str(extra.path),
                        line=extra.line,
                        column=extra.column,
                    )
                )

        for registration in self._registrations:
            problem = self._reachability_problem(registration, project)
            if problem is not None:
                findings.append(
                    Finding(
                        code=self.code,
                        message=problem,
                        path=str(registration.path),
                        line=registration.line,
                        column=registration.column,
                    )
                )
        return findings

    # ------------------------------------------------------------------
    def _reachability_problem(
        self, registration: Registration, project: ProjectContext
    ) -> str | None:
        """Why ``registration``'s module is unreachable (``None`` when fine)."""
        module = registration.module
        if registration.path.name == "__init__.py":
            return None  # registered in the package itself
        init_path = registration.path.parent / "__init__.py"
        if not init_path.exists():
            return (
                f"{registration.registry}.register({registration.plugin!r}) sits in "
                f"{module}, which is not inside a package — nothing imports it"
            )
        context = project.by_path(init_path.resolve())
        if context is not None:
            tree = context.tree
        else:
            try:
                tree = ast.parse(init_path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                return None  # the walker/CI reports the broken __init__ itself
        last_segment = module.rpartition(".")[2]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(alias.name == module for alias in node.names):
                    return None
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == module:
                    return None
                if node.level == 1 and node.module == last_segment:
                    return None
                if node.level == 0 and node.module == registration.module.rpartition(".")[0]:
                    # ``from repro.pkg import mod``
                    if any(alias.name == last_segment for alias in node.names):
                        return None
        return (
            f"{registration.registry}.register({registration.plugin!r}) sits in "
            f"{module}, but {init_path} never imports it — the plugin is "
            "invisible until the module is imported by hand"
        )
