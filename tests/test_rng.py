"""Stream keys: the cached, vectorised keys are numpy's SeedSequence keys."""

import sys
import threading

import numpy as np
import pytest

from compdet import rng
from compdet.rng import RngStream


def numpy_key(seed, stream_id, attempt):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, attempt))
    return seq.generate_state(2, np.uint64)


def numpy_generator(seed, stream_id, attempt):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, attempt))
    return np.random.Generator(np.random.Philox(seq))


SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1, 2**64, 2**70, 2**128 - 1, 2**128, 2**200 + 3]
BOUNDARY_IDS = [0, 1, 254, 255, 256, 257, 511, 512, 70_000, 2**32 - 256, 2**32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_seed_sequence_at_block_boundaries(seed):
    ids = np.array(BOUNDARY_IDS, dtype=np.uint64)
    for attempt in (0, 1, 2, 63, 2**32, 2**40 + 1):
        keys = rng._philox_keys(seed, ids, attempt)
        for stream_id, key in zip(BOUNDARY_IDS, keys):
            np.testing.assert_array_equal(key, numpy_key(seed, stream_id, attempt))


def test_keys_match_seed_sequence_for_every_id_below_70000():
    ids = np.arange(70_001, dtype=np.uint64)
    keys = rng._philox_keys(12345, ids, 1)
    for stream_id in range(0, 70_001, 997):
        np.testing.assert_array_equal(keys[stream_id], numpy_key(12345, stream_id, 1))
    # Every id in one block through the cache, where the harness reads them.
    block = rng._key_block(12345, 3, 1)
    assert not block.flags.writeable
    np.testing.assert_array_equal(block, keys[3 * rng._KEY_BLOCK:4 * rng._KEY_BLOCK])


@pytest.mark.parametrize("stream_id", [0, 255, 256, 70_000, 2**32 - 1, 2**32, 2**40 + 3, 2**70])
@pytest.mark.parametrize("attempt", [0, 1, 63])
def test_generators_draw_what_numpy_draws(stream_id, attempt):
    # Ids from 2**32 on take two or more spawn-key words and numpy's own path.
    for seed in (0, 7, 2**64 + 1):
        got = RngStream(seed, stream_id).generator(attempt)
        want = numpy_generator(seed, stream_id, attempt)
        np.testing.assert_array_equal(got.standard_normal(9), want.standard_normal(9))
        assert got.integers(1, 9) == want.integers(1, 9)


@pytest.mark.parametrize("seed,stream_id,attempt", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-(2**70), 3, 0)])
def test_negative_inputs_raise(seed, stream_id, attempt):
    with pytest.raises(ValueError):
        RngStream(seed, stream_id).generator(attempt)


def test_generators_alive_at_once_are_independent_copies():
    stream = RngStream(3, 300)
    a, b = stream.generator(), stream.generator()
    first = a.standard_normal(5)
    np.testing.assert_array_equal(b.standard_normal(5), first)
    np.testing.assert_array_equal(a.standard_normal(5), b.standard_normal(5))
    np.testing.assert_array_equal(RngStream(3, 300).generator().standard_normal(5), first)


def test_key_cache_is_consistent_across_threads():
    # More threads than cores race on the same uncached blocks.
    rng._key_block.cache_clear()
    seed, ids = 2**65 + 11, [0, 255, 256, 511, 1000, 70_000]
    want = {i: numpy_generator(seed, i, 0).standard_normal(4) for i in ids}
    got, errors = [], []

    def work():
        try:
            got.append({i: RngStream(seed, i).generator(0).standard_normal(4) for i in ids})
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(got) == 8
    for draws in got:
        for i in ids:
            np.testing.assert_array_equal(draws[i], want[i])
