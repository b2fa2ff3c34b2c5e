"""Z-order (Morton) linear indexing for quadtree nodes.

Block coordinates (i, j) are interleaved bitwise into one integer key, the
row bit taking the higher position of each bit pair.  Keys are dense within
a tier: the children of a node with key l are 4l .. 4l+3, and sorting keys
walks the blocks in space filling curve order.

The same key algebra drives the multiply: for an operand A the column lane
of a leaf key holds the contraction index k, for an operand B the row lane
does.  Masking with ODD_MASK / EVEN_MASK extracts those lanes, and the
product block index is assembled from the row lane of A and the column lane
of B without ever decoding the keys.
"""

from __future__ import annotations

import operator

import numpy as np

# Lanes of a 64 bit key.  Column bits (j, and k of an A leaf) live in the
# odd mask 0b...010101, row bits (i, and k of a B leaf) in the even mask
# 0b...101010.
ODD_MASK = 0x5555555555555555
EVEN_MASK = 0xAAAAAAAAAAAAAAAA

# Coordinates must fit 31 bits so the interleaved key fits 64.
COORD_LIMIT = 1 << 31

_M16 = 0x0000FFFF0000FFFF
_M8 = 0x00FF00FF00FF00FF
_M4 = 0x0F0F0F0F0F0F0F0F
_M2 = 0x3333333333333333
_M1 = 0x5555555555555555


def encode(i: int, j: int) -> int:
    """Interleave block coordinates into a linear key, row bit high."""
    if not (0 <= i < COORD_LIMIT and 0 <= j < COORD_LIMIT):
        raise ValueError(f"block coordinates ({i}, {j}) outside [0, 2^31)")
    return int(encode_array(operator.index(i), operator.index(j)))


def decode(key: int) -> tuple[int, int]:
    """Recover (i, j) block coordinates from a linear key."""
    if key < 0 or key >> 62:
        raise ValueError(f"key {key} outside the 62 bit interleave range")
    i, j = decode_array(np.uint64(key))
    return int(i), int(j)


def k_of_a(key: int) -> int:
    """Contraction lane of an A leaf key (k sits in the column bits)."""
    return key & ODD_MASK


def k_of_b(key: int) -> int:
    """Contraction lane of a B leaf key (k sits in the row bits)."""
    return key & EVEN_MASK


def c_index(key_a: int, key_b: int) -> int:
    """Product block key: row lane of A combined with column lane of B."""
    return (key_a & EVEN_MASK) | (key_b & ODD_MASK)


def transpose_keys(keys: np.ndarray) -> np.ndarray:
    """Keys of the mirrored blocks: (i, j) becomes (j, i), the lanes swapped.
    A block above the diagonal has the smaller key of its pair, since the
    highest bit where i and j differ is a row bit only in the lower one."""
    one = np.uint64(1)
    return ((keys >> one) & np.uint64(ODD_MASK)) | ((keys & np.uint64(ODD_MASK)) << one)


# The one dilation: mask-shift stages on uint64 arrays.  The tree builder
# and the scalar encode/decode above go through it.

_U = np.uint64


def dilate_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x = (x | (x << _U(16))) & _U(_M16)
    x = (x | (x << _U(8))) & _U(_M8)
    x = (x | (x << _U(4))) & _U(_M4)
    x = (x | (x << _U(2))) & _U(_M2)
    x = (x | (x << _U(1))) & _U(_M1)
    return x


def undilate_array(x: np.ndarray) -> np.ndarray:
    x = x & _U(_M1)
    x = (x | (x >> _U(1))) & _U(_M2)
    x = (x | (x >> _U(2))) & _U(_M4)
    x = (x | (x >> _U(4))) & _U(_M8)
    x = (x | (x >> _U(8))) & _U(_M16)
    x = (x | (x >> _U(16))) & _U(0xFFFFFFFF)
    return x


def encode_array(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return (dilate_array(np.asarray(i)) << _U(1)) | dilate_array(np.asarray(j))


def decode_array(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = keys.astype(np.uint64)
    return undilate_array(keys >> _U(1)), undilate_array(keys)
