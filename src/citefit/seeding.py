"""Deterministic seed derivation for parallel Monte-Carlo work.

Every piece of randomness in the package flows through :func:`spawn_rng`,
which derives an independent generator from a master seed plus an integer
path (for example ``(rep_index,)`` or ``(rep_index, stage)``).  The derived
streams depend only on the master seed and the path, never on scheduling,
so results are identical for any worker count.
"""

import numpy as np


def _sequence(master_seed: int, path) -> np.random.SeedSequence:
    """The seed sequence of the stream ``(master_seed, *path)``."""
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    return np.random.SeedSequence(master_seed, spawn_key=tuple(path))


def spawn_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the stream identified by ``(master_seed, *path)``."""
    return np.random.Generator(np.random.PCG64(_sequence(master_seed, path)))


def child_seed(master_seed: int, *path: int) -> int:
    """Derive an integer sub-seed for handing to APIs that take a seed."""
    return int(_sequence(master_seed, path).generate_state(1, np.uint64)[0])
