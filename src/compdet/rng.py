"""Seeded, stream-splittable random number generation.

Every random quantity in the package is a pure function of a (seed,
stream_id) pair.  A run has one Philox4x64 key, the first two 64-bit words
of SeedSequence(seed), and streams are addressed by Philox's counter
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3",
SC 2011): stream (stream_id, attempt) starts at counter (0, 0, stream_id,
attempt), so it owns a disjoint range of 2^128 counter blocks.  Results
never depend on the order in which streams are consumed (this is what makes
parallel simulation reproducible for any worker count).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

class _RunKey(ISeedSequence):
    """The Philox key of one seed, handed to Philox in place of a SeedSequence.

    Philox(key=...) would seed a throwaway SeedSequence from OS entropy on
    every call; a holder is built once per seed (_run_key) and read per open.
    """

    def __init__(self, seed: int):
        self._key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self._key.setflags(write=False)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self._key


_run_key = functools.lru_cache(maxsize=16)(_RunKey)


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
        if not (0 <= self.stream_id < 2**64 and 0 <= attempt < 2**64):  # one counter word each
            raise ValueError(f"stream id {self.stream_id} or attempt {attempt} is outside [0, 2**64)")
        # A uint64 array: numpy turns a tuple with a word from 2^63 on into floats.
        counter = np.array((0, 0, self.stream_id, attempt), dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_run_key(self.seed), counter=counter))
