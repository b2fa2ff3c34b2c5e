"""Linear index algebra: interleave, lanes, and the product index identity."""

import numpy as np
import pytest

from spamm.morton import (
    COORD_LIMIT,
    EVEN_MASK,
    ODD_MASK,
    c_index,
    decode,
    decode_array,
    dilate_array,
    encode,
    encode_array,
    k_of_a,
    k_of_b,
    undilate_array,
)


def test_encode_pinned_values():
    assert encode(0, 0) == 0
    assert encode(0, 1) == 1
    assert encode(1, 0) == 2
    assert encode(1, 1) == 3
    assert encode(2, 3) == 13


def test_decode_inverts_pinned_values():
    for i, j in [(0, 0), (0, 1), (1, 0), (2, 3), (31, 17), (2**15, 2**15 - 1)]:
        assert decode(encode(i, j)) == (i, j)


def test_first_keys_walk_quadrants_row_major():
    assert [decode(k) for k in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_round_trip_random_coordinates():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        i = int(rng.integers(0, COORD_LIMIT))
        j = int(rng.integers(0, COORD_LIMIT))
        assert decode(encode(i, j)) == (i, j)


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode(-1, 0)
    with pytest.raises(ValueError):
        encode(0, COORD_LIMIT)
    encode(COORD_LIMIT - 1, COORD_LIMIT - 1)


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode(-1)
    with pytest.raises(ValueError):
        decode(1 << 62)
    decode((1 << 62) - 1)


def test_masks_partition_the_word():
    assert ODD_MASK & EVEN_MASK == 0
    assert ODD_MASK | EVEN_MASK == (1 << 64) - 1
    assert ODD_MASK == 0x5555555555555555


def test_lane_extraction():
    for i, j in [(0, 0), (3, 5), (100, 7), (2**20, 2**19)]:
        key = encode(i, j)
        assert k_of_a(key) == encode(0, j)
        assert k_of_b(key) == encode(i, 0)


def test_child_parent_algebra():
    # the tier layout QuadtreeMatrix._store and recursive_spamm rely on: the
    # children of key are 4 key + q for row-major quadrant q, and key >> 2
    # is the parent
    rng = np.random.default_rng(5)
    for _ in range(200):
        key = int(rng.integers(0, 1 << 40))
        i, j = decode(key)
        for q in range(4):
            ch = 4 * key + q
            assert ch >> 2 == key
            assert decode(ch) == (2 * i + (q >> 1), 2 * j + (q & 1))


def test_k_match_definition():
    # the symbolic phase pairs an A leaf (i, k) with a B leaf (k', j)
    # exactly when the A column lane equals the B row lane shifted down
    for i in range(8):
        for k in range(8):
            for j in range(8):
                assert k_of_b(encode(k, j)) >> 1 == k_of_a(encode(i, k))
    assert k_of_b(encode(2, 0)) >> 1 != k_of_a(encode(0, 1))
    assert k_of_b(encode(1, 3)) >> 1 != k_of_a(encode(3, 0))


def test_c_index_small_exhaustive():
    for i in range(8):
        for k in range(8):
            for j in range(8):
                assert c_index(encode(i, k), encode(k, j)) == encode(i, j)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    i = rng.integers(0, 1 << 16, 500).astype(np.uint64)
    j = rng.integers(0, 1 << 16, 500).astype(np.uint64)
    keys = encode_array(i, j)
    assert keys.dtype == np.uint64
    for a, b, k in zip(i.tolist(), j.tolist(), keys.tolist()):
        assert encode(a, b) == k
    di, dj = decode_array(keys)
    assert np.array_equal(di, i)
    assert np.array_equal(dj, j)


def test_dilate_is_injective_and_stays_in_lane():
    x = np.arange(1 << 16, dtype=np.uint64)
    d = dilate_array(x)
    assert np.all(d & np.uint64(EVEN_MASK) == 0)
    assert np.array_equal(undilate_array(d), x)
    assert np.unique(d).size == x.size
