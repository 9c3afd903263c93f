"""Deterministic seed derivation for parallel Monte-Carlo work.

Every piece of randomness in the package flows from this module. The stream
``(master_seed, *path)`` is ``PCG64(SeedSequence(master_seed,
spawn_key=path))``, for a path of non-negative integers such as
``(rep_index,)`` or ``(rep_index, stage)``. :func:`spawn_rng` opens one
stream; :func:`streams` runs through the streams of a range of replicates,
one reused generator set to each in turn. The derived streams depend only
on the master seed and the path, never on scheduling, so results are
identical for any worker count.

:func:`streams` derives each stream as ``SeedSequence`` and ``PCG64`` do
(NumPy's ``bit_generator.pyx`` and ``pcg64.c``), in Python ints. A seed
sequence hashes its entropy words, the master seed's and then the spawn
key's, into a pool of four 32-bit words, with hash constants that step
once per word hashed whatever the words are. So the pool of the master
seed alone, ``SeedSequence(master_seed).pool``, is mixed once per call
(the zero words that pad a short seed before a spawn key hash as the
unpadded pool's fill does), and each replicate hashes in only its key
words. Four 64-bit words drawn from the pool then seed PCG64's 128-bit LCG
(M. E. O'Neill, HMC-CS-2014-0905, 2014), whose state is set on one reused
bit generator. ``tests/test_seeding.py`` compares the streams with
:func:`spawn_rng`'s on the installed NumPy, so a change in either
algorithm fails a test instead of moving a report.
"""

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants, for a pool of four words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an entropy integer: its 32-bit words,
    least significant first; [0] for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_steps(constant: int, mult: int, start: int, count: int) -> tuple[int, ...]:
    """The xor and the multiplier of each of ``count`` hash steps from step
    ``start`` on, flattened: the constant before and after it is multiplied
    by ``mult``."""
    c = constant * pow(mult, start, 1 << 32) & _MASK32
    steps = []
    for _ in range(count):
        steps += [c, c * mult & _MASK32]
        c = steps[-1]
    return tuple(steps)


def streams(master_seed: int, reps: range, *path: int):
    """For each replicate ``rep`` of ``reps``, the generator of the stream
    ``(master_seed, rep, *path)``, bit for bit ``spawn_rng(master_seed, rep,
    *path)``. One generator is yielded again and again, set to each stream
    in turn: it is valid until the next one is yielded."""
    sequence = _sequence(master_seed, ())
    seed_pool = tuple(int(w) for w in sequence.pool)
    path_words = [w for p in path for w in _words(p)]
    # the seed's words took 4 hash steps, 12 to mix the pool, and 4 per word past 4
    done = 4 * _POOL_SIZE + _POOL_SIZE * max(0, len(_words(master_seed)) - _POOL_SIZE)
    word_steps = [_hash_steps(_INIT_A, _MULT_A, done + _POOL_SIZE * t, _POOL_SIZE)
                  for t in range(len(_words(max(reps, default=0))) + len(path_words))]
    bitgen = np.random.PCG64(sequence)      # a state dict to fill in
    return _derived(np.random.Generator(bitgen), bitgen.state, seed_pool, word_steps,
                    path_words, reps)


def _derived(generator, state, seed_pool, word_steps, path_words, reps):
    """``generator`` set to each stream of :func:`streams` in turn, through
    ``state``, its bit generator's state dict. Unrolled over the pool's four
    words: this loop is the cost of a stream."""
    lcg, bitgen = state["state"], generator.bit_generator
    x0, y0, x1, y1, x2, y2, x3, y3, x4, y4, x5, y5, x6, y6, x7, y7 = _hash_steps(
        _INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)     # generate_state(4, np.uint64)
    m, left, right = _MASK32, _MIX_L, _MIX_R
    for rep in reps:
        p0, p1, p2, p3 = seed_pool
        words = _words(rep) + path_words
        for word, (a0, b0, a1, b1, a2, b2, a3, b3) in zip(words, word_steps):
            h = (word ^ a0) * b0 & m
            p0 = (left * p0 - right * (h ^ h >> 16)) & m
            p0 ^= p0 >> 16
            h = (word ^ a1) * b1 & m
            p1 = (left * p1 - right * (h ^ h >> 16)) & m
            p1 ^= p1 >> 16
            h = (word ^ a2) * b2 & m
            p2 = (left * p2 - right * (h ^ h >> 16)) & m
            p2 ^= p2 >> 16
            h = (word ^ a3) * b3 & m
            p3 = (left * p3 - right * (h ^ h >> 16)) & m
            p3 ^= p3 >> 16
        # eight 32-bit words read round the pool, paired into uint64s low word first
        w0, w1 = (p0 ^ x0) * y0 & m, (p1 ^ x1) * y1 & m
        w2, w3 = (p2 ^ x2) * y2 & m, (p3 ^ x3) * y3 & m
        w4, w5 = (p0 ^ x4) * y4 & m, (p1 ^ x5) * y5 & m
        w6, w7 = (p2 ^ x6) * y6 & m, (p3 ^ x7) * y7 & m
        # pcg64_set_seed: the 128-bit seed and sequence, each two uint64s high first
        seed = ((w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32) << 64
                | w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32)
        seq = ((w4 ^ w4 >> 16 | (w5 ^ w5 >> 16) << 32) << 64
               | w6 ^ w6 >> 16 | (w7 ^ w7 >> 16) << 32)
        lcg["inc"] = inc = (seq << 1 | 1) & _MASK128
        lcg["state"] = ((inc + seed) * _PCG_MULT + inc) & _MASK128     # two LCG steps from 0
        bitgen.state = state
        yield generator
