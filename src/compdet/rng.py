"""Seeded, stream-splittable random number generation.

Every random quantity in the package is a pure function of a (seed,
stream_id) pair.  Streams are realized as Philox counter-based generators
keyed exactly as numpy's SeedSequence spawning keys them:
Philox(SeedSequence(entropy=seed, spawn_key=(stream_id, attempt))).  So
distinct stream ids give statistically independent streams and results never
depend on the order in which streams are consumed (this is what makes
parallel simulation reproducible for any worker count).

Deriving a key through SeedSequence costs more than the linear algebra of a
small trial, so the keys of an aligned block of _KEY_BLOCK stream ids are
computed at once by a vectorised, bit-identical copy of SeedSequence's hash
(_philox_keys) and cached.  The streams themselves are unchanged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_KEY_BLOCK = 256  # stream ids keyed together; harness chunks align with it
_KEY_CACHE_BLOCKS = 16  # blocks in flight: one per worker thread, plus redraws

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list:
    """n as little-endian 32-bit words, as SeedSequence splits an int."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _philox_keys(seed: int, stream_ids: np.ndarray, attempt: int) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(id, attempt)).generate_state(2, uint64) for each id.

    Every id must be below 2**32 (one spawn-key word).  Returns an
    (len(stream_ids), 2) uint64 array.
    """
    prefix = _words(seed)
    prefix += [0] * (_POOL_SIZE - len(prefix))  # spawned sequences pad the seed to the pool
    entropy = [np.full(len(stream_ids), w, dtype=np.uint32) for w in prefix]
    entropy.append(stream_ids.astype(np.uint32))
    entropy += [np.full(len(stream_ids), w, dtype=np.uint32) for w in _words(attempt)]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for value in pool:
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)],
                    axis=1)


@functools.lru_cache(maxsize=_KEY_CACHE_BLOCKS)
def _key_block(seed: int, block: int, attempt: int) -> np.ndarray:
    """Read-only Philox keys of stream ids [block * _KEY_BLOCK, (block + 1) * _KEY_BLOCK)."""
    ids = np.arange(block * _KEY_BLOCK, (block + 1) * _KEY_BLOCK, dtype=np.uint64)
    keys = _philox_keys(seed, ids, attempt)
    keys.setflags(write=False)
    return keys


class _PhiloxKey(ISeedSequence):
    """A precomputed Philox key, handed to Philox in place of its SeedSequence."""

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self._key


@dataclass(frozen=True)
class RngStream:
    """Handle for one deterministic random stream.

    generator() always returns a fresh generator positioned at the start of
    the stream, so passing the same RngStream twice replays the same draws.
    The attempt index opens a disjoint substream, used to redraw degenerate
    trials without disturbing any other stream.
    """

    seed: int
    stream_id: int = 0

    def generator(self, attempt: int = 0) -> np.random.Generator:
        if 0 <= self.stream_id <= _MASK32:
            block, offset = divmod(self.stream_id, _KEY_BLOCK)
            seq = _PhiloxKey(_key_block(self.seed, block, attempt)[offset])
        else:  # multi-word (or negative, which raises) spawn keys: numpy's own path
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, attempt))
        return np.random.Generator(np.random.Philox(seq))
