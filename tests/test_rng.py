"""Streams: one Philox key per seed, each (stream id, attempt) at its own counter."""

import sys
import threading

import numpy as np
import pytest

from compdet import rng
from compdet.rng import RngStream


def numpy_key(seed):
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def numpy_generator(seed, stream_id, attempt):
    # numpy's own keyed construction of the same Philox state.
    return np.random.Generator(np.random.Philox(key=numpy_key(seed), counter=(0, 0, stream_id, attempt)))


SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1, 2**64, 2**70, 2**128 - 1, 2**128, 2**200 + 3]
BOUNDARY_IDS = [0, 1, 254, 255, 256, 257, 511, 512, 70_000, 2**32 - 256, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_seed_sequence_at_block_boundaries(seed):
    # Every stream of a seed shares SeedSequence(seed)'s key; the id and the
    # attempt are the counter's two upper words.
    for attempt in (0, 1, 2, 63, 2**32, 2**40 + 1, 2**64 - 1):
        for stream_id in BOUNDARY_IDS:
            state = RngStream(seed, stream_id).generator(attempt).bit_generator.state["state"]
            np.testing.assert_array_equal(state["key"], numpy_key(seed))
            assert [int(w) for w in state["counter"]] == [0, 0, stream_id, attempt]


def test_keys_match_seed_sequence_for_every_id_below_70000():
    key = numpy_key(12345)
    counters = set()
    for stream_id in range(70_001):
        state = RngStream(12345, stream_id).generator(1).bit_generator.state["state"]
        assert np.array_equal(state["key"], key)
        counters.add(tuple(int(w) for w in state["counter"]))
    assert counters == {(0, 0, i, 1) for i in range(70_001)}


@pytest.mark.parametrize("stream_id", [0, 255, 256, 70_000, 2**32 - 1, 2**32, 2**40 + 3, 2**70])
@pytest.mark.parametrize("attempt", [0, 1, 63])
def test_generators_draw_what_numpy_draws(stream_id, attempt):
    for seed in (0, 7, 2**64 + 1):
        if stream_id >= 2**64:  # past the counter word: no stream, and no silent wrap
            with pytest.raises(ValueError):
                RngStream(seed, stream_id).generator(attempt)
            continue
        got = RngStream(seed, stream_id).generator(attempt)
        want = numpy_generator(seed, stream_id, attempt)
        np.testing.assert_array_equal(got.standard_normal(9), want.standard_normal(9))
        assert got.integers(1, 9) == want.integers(1, 9)


@pytest.mark.parametrize("seed,stream_id,attempt", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (-(2**70), 3, 0),
                                                    (0, 2**64, 0), (0, 0, 2**64)])
def test_negative_inputs_raise(seed, stream_id, attempt):
    # numpy would wrap a negative counter word silently and overflow on 2**64.
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
    # More threads than cores race on the same uncached seed keys.
    rng._run_key.cache_clear()
    seeds, ids = [2**65 + 11, 0, 7], [0, 255, 256, 511, 1000, 70_000]
    want = {(s, i): numpy_generator(s, i, 0).standard_normal(4) for s in seeds for i in ids}
    got, errors = [], []

    def work():
        try:
            got.append({(s, i): RngStream(s, i).generator(0).standard_normal(4) for s in seeds for i in ids})
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
        for k, draw in want.items():
            np.testing.assert_array_equal(draws[k], draw)


def test_neighbouring_streams_are_uncorrelated():
    # Levels fixed before the first run: for k = 0..4095, the first 16
    # normals of stream (k, 0) against (k + 1, 0), and of (k, 0) against
    # (k, 1), each pooled into one correlation r; two-sided 1e-3 needs
    # |r| * sqrt(n) < 3.29.
    def first(stream_id, attempt):
        return RngStream(2022, stream_id).generator(attempt).standard_normal(16)

    base = np.concatenate([first(k, 0) for k in range(4096)])
    for other in (np.concatenate([first(k + 1, 0) for k in range(4096)]),
                  np.concatenate([first(k, 1) for k in range(4096)])):
        r = np.corrcoef(base, other)[0, 1]
        assert abs(r) * np.sqrt(base.size) < 3.29
