"""Random-number-generator handling.

Every stochastic routine in the library accepts either a seed, an existing
:class:`numpy.random.Generator` or ``None`` and funnels it through
:func:`ensure_rng` so that experiments are reproducible end-to-end.

Monte-Carlo populations (fleet runs, the FAR study) draw their noise under
the *block stream contract*, version :data:`STREAM_VERSION`: one generator
per run, from :func:`block_rng`, drawing whole instance-major blocks in a
fixed order (see :func:`repro.noise.generators.draw_streams`).
"""

from __future__ import annotations

import numpy as np

#: Version of the block stream contract: which generator a run draws from
#: and which blocks it draws in which order.  It keys :func:`block_rng` and
#: the explore store's evaluation key, so results computed under another
#: contract are never served as this one's.  Not a knob: it changes only
#: when the contract does.
STREAM_VERSION = 2


def ensure_rng(seed_or_rng: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed_or_rng:
        ``None`` for an unseeded generator, an ``int`` seed, or an existing
        generator (returned unchanged so streams can be shared).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def block_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """The one generator a run's noise blocks are drawn from.

    An ``int`` seed is keyed with :data:`STREAM_VERSION`, so the block
    stream is independent of ``default_rng(seed)`` (the parent of
    :func:`spawn_rngs`, which the attack scheduler still uses).  ``None``
    and an existing generator behave as in :func:`ensure_rng`.
    """
    if seed_or_rng is None or isinstance(seed_or_rng, np.random.Generator):
        return ensure_rng(seed_or_rng)
    return np.random.default_rng([int(seed_or_rng), STREAM_VERSION])


def spawn_rngs(seed_or_rng: int | np.random.Generator | None, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent child generators from one parent stream.

    Used by Monte-Carlo routines that want one independent, reproducible
    stream per trial.
    """
    parent = ensure_rng(seed_or_rng)
    seeds = parent.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(s)) for s in seeds]


def spawned_rng(
    seed_or_rng: int | np.random.Generator | None, count: int, index: int
) -> np.random.Generator:
    """``spawn_rngs(seed_or_rng, count)[index]`` without building the others."""
    parent = ensure_rng(seed_or_rng)
    seeds = parent.integers(0, 2**63 - 1, size=count)
    return np.random.default_rng(int(seeds[index]))
