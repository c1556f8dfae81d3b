"""Shared plugin registries for every pluggable component of the library.

Historically each extension point had its own ad-hoc name table (the backend
dict in :mod:`repro.falsification.registry`, a hard-coded algorithm tuple,
the hard-wired ``build_*_case_study`` imports).
This module replaces them with one mechanism: a :class:`Registry` per
component kind, populated by ``@register`` decorators at class/function
definition time, with dynamic error messages and introspection helpers.

Eight registries ship with the library:

==================  =============================================  =========================
registry            built-in names                                 registered object
==================  =============================================  =========================
``BACKENDS``        ``lp``, ``optimizer``                          attack-synthesis backend
``SYNTHESIZERS``    ``pivot``, ``stepwise``, ``static``            threshold synthesizer
``DETECTORS``       ``residue``, ``chi-square``, ``cusum``,        residue detector (the
                    ``online-residue``, ``online-chi-square``,     ``online-*`` names resolve
                    ``online-cusum``                               to the same classes)
``NOISE_MODELS``    ``zero``, ``gaussian``, ``bounded-uniform``,   noise model
                    ``truncated-gaussian``
``CASE_STUDIES``    ``vsc``, ``trajectory``, ``dcmotor``,          case-study builder
                    ``quadtank``, ``cruise``, ``pendulum``
``ATTACK_TEMPLATES``  ``none``, ``bias``, ``ramp``, ``surge``,     parametric attack template
                    ``geometric``, ``replay``
``SAMPLERS``        ``grid``, ``adaptive-bisection``               design-space sampler
``ENGINES``         ``fused``                                      fleet execution engine
==================  =============================================  =========================

Downstream users extend any of them::

    from repro.registry import CASE_STUDIES

    @CASE_STUDIES.register("my-plant")
    def build_my_plant(horizon: int = 20) -> CaseStudy:
        ...

and every string-accepting entry point (``ExperimentSpec``, ``run_pipeline``,
``get_backend``, ...) resolves the new name immediately.

Built-in entries register themselves when their defining module is imported;
each registry lazily imports its built-in modules on first lookup so the
registries are complete even when only ``repro.registry`` has been imported.
"""

from __future__ import annotations

import importlib
from collections.abc import Iterator

from repro.utils.validation import ValidationError


class RegistryError(ValidationError):
    """Raised on unknown-name lookups and conflicting registrations."""


class Registry:
    """A named mapping from string keys to factories (classes or functions).

    Parameters
    ----------
    kind:
        Human-readable component kind used in error messages (``"backend"``).
    builtin_modules:
        Modules imported lazily on first lookup; importing them must register
        the built-in entries (via :meth:`register` decorators at module top
        level).
    """

    def __init__(self, kind: str, builtin_modules: tuple[str, ...] = ()):
        self.kind = kind
        self._entries: dict[str, object] = {}
        self._builtin_modules = tuple(builtin_modules)
        self._populated = not self._builtin_modules

    # ------------------------------------------------------------------
    def _ensure_populated(self) -> None:
        if self._populated:
            return
        self._populated = True
        for module in self._builtin_modules:
            importlib.import_module(module)

    # ------------------------------------------------------------------
    def register(self, name: str, obj: object | None = None, *, overwrite: bool = False):
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Re-registering the *same* object under the same name is a no-op;
        registering a different object raises :class:`RegistryError` unless
        ``overwrite=True``.
        """
        if obj is None:

            def decorator(target):
                self.register(name, target, overwrite=overwrite)
                return target

            return decorator

        if not isinstance(name, str) or not name:
            raise RegistryError(f"{self.kind} name must be a non-empty string, got {name!r}")
        existing = self._entries.get(name)
        if existing is not None and existing is not obj and not overwrite:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered ({existing!r}); "
                "pass overwrite=True to replace it"
            )
        self._entries[name] = obj
        return obj

    def unregister(self, name: str) -> object:
        """Remove and return the entry under ``name`` (raises when unknown)."""
        self._ensure_populated()
        if name not in self._entries:
            raise RegistryError(f"unknown {self.kind} {name!r}; nothing to unregister")
        return self._entries.pop(name)

    # ------------------------------------------------------------------
    def get(self, name: str) -> object:
        """The factory registered under ``name``."""
        self._ensure_populated()
        try:
            return self._entries[name]
        except KeyError:
            available = ", ".join(self.available()) or "(none)"
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {available}"
            ) from None

    def create(self, name: str, **kwargs):
        """Instantiate/call the factory registered under ``name``."""
        return self.get(name)(**kwargs)

    def available(self) -> list[str]:
        """Sorted names of every registered entry."""
        self._ensure_populated()
        return sorted(self._entries)

    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        self._ensure_populated()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.available()!r})"


# ----------------------------------------------------------------------
# The library's extension points.
# ----------------------------------------------------------------------
BACKENDS = Registry("backend", ("repro.falsification.registry",))
SYNTHESIZERS = Registry(
    "synthesizer",
    ("repro.core.pivot", "repro.core.stepwise", "repro.core.static_synthesis"),
)
DETECTORS = Registry(
    "detector",
    (
        "repro.detectors.residue",
        "repro.detectors.chi_square",
        "repro.detectors.cusum",
    ),
)
NOISE_MODELS = Registry("noise model", ("repro.noise.models",))
CASE_STUDIES = Registry("case study", ("repro.systems",))
ATTACK_TEMPLATES = Registry("attack template", ("repro.attacks.templates",))
SAMPLERS = Registry("sampler", ("repro.explore.space",))
ENGINES = Registry("engine", ("repro.runtime.kernel.runner",))

REGISTRIES: dict[str, Registry] = {
    "backend": BACKENDS,
    "synthesizer": SYNTHESIZERS,
    "detector": DETECTORS,
    "noise_model": NOISE_MODELS,
    "case_study": CASE_STUDIES,
    "attack_template": ATTACK_TEMPLATES,
    "sampler": SAMPLERS,
    "engine": ENGINES,
}


def get_registry(kind: str) -> Registry:
    """Look up one of the library registries by kind name."""
    try:
        return REGISTRIES[kind]
    except KeyError:
        available = ", ".join(sorted(REGISTRIES))
        raise RegistryError(f"unknown registry kind {kind!r}; available: {available}") from None


def register(kind: str, name: str, obj: object | None = None, *, overwrite: bool = False):
    """Generic registration decorator: ``@register("backend", "my-solver")``."""
    return get_registry(kind).register(name, obj, overwrite=overwrite)


# ----------------------------------------------------------------------
# Introspection helpers (one per registry) and factory conveniences.
# ----------------------------------------------------------------------
def available_backends() -> list[str]:
    """Names of the registered attack-synthesis backends."""
    return BACKENDS.available()


def available_synthesizers() -> list[str]:
    """Names of the registered threshold-synthesis algorithms."""
    return SYNTHESIZERS.available()


def available_detectors() -> list[str]:
    """Names of the registered residue-detector classes."""
    return DETECTORS.available()


def available_noise_models() -> list[str]:
    """Names of the registered noise models."""
    return NOISE_MODELS.available()


def available_case_studies() -> list[str]:
    """Names of the registered case-study builders."""
    return CASE_STUDIES.available()


def available_attack_templates() -> list[str]:
    """Names of the registered parametric attack templates."""
    return ATTACK_TEMPLATES.available()


def available_samplers() -> list[str]:
    """Names of the registered design-space samplers."""
    return SAMPLERS.available()


def available_engines() -> list[str]:
    """Names of the registered fleet execution engines."""
    return ENGINES.available()


def register_sampler(name: str, obj: object | None = None, *, overwrite: bool = False):
    """Register a design-space sampler: ``@register_sampler("my-sampler")``."""
    return SAMPLERS.register(name, obj, overwrite=overwrite)


def get_case_study(name: str, **kwargs):
    """Build the case study registered under ``name`` (kwargs go to its builder)."""
    return CASE_STUDIES.create(name, **kwargs)


def get_noise_model(name: str, **kwargs):
    """Instantiate the noise model registered under ``name``."""
    return NOISE_MODELS.create(name, **kwargs)


def get_detector(name: str, **kwargs):
    """Instantiate the detector class registered under ``name``."""
    return DETECTORS.create(name, **kwargs)


def get_synthesizer(name: str, **kwargs):
    """Instantiate the synthesizer registered under ``name``."""
    return SYNTHESIZERS.create(name, **kwargs)


def get_attack_template(name: str, **kwargs):
    """Instantiate the attack template registered under ``name``."""
    return ATTACK_TEMPLATES.create(name, **kwargs)


def get_sampler(name: str, **kwargs):
    """Instantiate the design-space sampler registered under ``name``."""
    return SAMPLERS.create(name, **kwargs)
