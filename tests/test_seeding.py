"""Stream derivation: every generator ``streams`` yields draws exactly what
``spawn_rng`` of the same (seed, replicate, *path) draws, on the installed
NumPy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citefit.seeding import spawn_rng, streams


def _draws(rng) -> list:
    """Doubles and integers, each stream opened and closed by a 32-bit draw:
    the closing one leaves half a 64-bit output buffered (``has_uint32``),
    which the next stream's opening draw would read if it leaked."""
    return [float(rng.random(dtype=np.float32)), rng.random(3).tolist(),
            rng.integers(0, 1000, size=4).tolist(), rng.integers(0, 2 ** 62, size=2).tolist(),
            float(rng.random(dtype=np.float32))]


# Master seeds of one to four 32-bit words and paths of 0-3 words of up to
# two each; replicates from 0, from 2**64 on and across 2**32, where a
# replicate's spawn key grows a word.
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.one_of(st.integers(0, 2 ** 32), st.integers(0, 2 ** 128 - 1)),
       path=st.lists(st.integers(0, 2 ** 64 - 1), max_size=3),
       first=st.one_of(st.integers(0, 40), st.integers(2 ** 32 - 6, 2 ** 32 + 2),
                       st.integers(0, 2 ** 64)),
       count=st.integers(0, 6))
@example(seed=0, path=[], first=2 ** 32 - 3, count=6)
@example(seed=2 ** 128 - 1, path=[2 ** 64 - 1, 0, 2 ** 32], first=2 ** 32 - 1, count=3)
def test_streams_are_spawn_rng(seed, path, first, count):
    reps = range(first, first + count)
    got = [_draws(rng) for rng in streams(seed, reps, *path)]
    assert got == [_draws(spawn_rng(seed, rep, *path)) for rep in reps]


# Master seeds beyond four words shift the spawn key's hash steps.
@pytest.mark.parametrize("seed", [2 ** 128, 2 ** 160 + 7, 3 ** 200])
def test_long_master_seeds(seed):
    reps = range(2 ** 32 - 1, 2 ** 32 + 2)
    assert ([_draws(rng) for rng in streams(seed, reps, 5)]
            == [_draws(spawn_rng(seed, rep, 5)) for rep in reps])


def test_bad_seeds_and_paths_raise_as_spawn_rng_does():
    with pytest.raises(ValueError) as opened:
        spawn_rng(-1, 0)
    with pytest.raises(ValueError) as derived:
        streams(-1, range(3))   # at the call, before any stream is asked for
    assert str(derived.value) == str(opened.value) == "master seed must be non-negative, got -1"
    with pytest.raises(ValueError, match="expected non-negative integer"):
        spawn_rng(0, 1, -2)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        streams(0, range(3), -2)
