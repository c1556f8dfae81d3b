"""Shared plugin registries for every pluggable component of the library.

Every extension point is one :class:`Registry`, populated by
``@<REGISTRY>.register(name)`` decorators at class/function definition time.
The registry object is the one way in: ``X.register(name)``, ``X.get(name)``,
``X.create(name, **kwargs)``, ``X.available()`` and ``name in X``.
Lookup errors list the currently registered names.

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
:func:`repro.falsification.base.get_backend`, ...) resolves the new name
immediately.  :func:`get_case_study` is the one module-level shortcut: it
builds a case study by name.

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
BACKENDS = Registry(
    "backend", ("repro.falsification.lp_backend", "repro.falsification.optimizer")
)
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


def get_case_study(name: str, **kwargs):
    """Build the case study registered under ``name`` (kwargs go to its builder)."""
    return CASE_STUDIES.create(name, **kwargs)

