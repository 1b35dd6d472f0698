"""Deterministic random-number management.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`.  Experiments derive independent child
generators per packet / per component from a single experiment seed so that
results are reproducible and individual packets can be re-run in isolation.
"""

from __future__ import annotations

import numpy as np

from repro.obs import record_seed_material

__all__ = ["ensure_rng", "child_rng", "spawn_rngs"]


def ensure_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """Derive a generator for a named sub-stream of an experiment seed.

    ``stream`` identifies the component (e.g. packet index, interferer index)
    so that changing the number of packets in one sweep point does not shift
    the noise realisations of another.

    Stream paths that differ only by trailing zeros give the same generator,
    because :class:`numpy.random.SeedSequence` pools ``[seed, *stream]``
    without its length: ``child_rng(1)``, ``child_rng(1, 0)`` and
    ``child_rng(1, 0, 0)`` are one stream, and Fig. 13's
    ``child_rng(3, 13, 0, 0)`` is packet 13's ``child_rng(3, 13)`` of a link
    sweep at seed 3.  Changing the derivation would move every digest.

    Under ``REPRO_TRACE`` the seed material of every derived stream is
    digested into the running task's span (a no-op None-check otherwise —
    see :mod:`repro.obs.tracer`).
    """
    record_seed_material(seed, stream)
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent generators derived from ``seed``."""
    return [child_rng(seed, index) for index in range(count)]
