"""MatrixMarket round trips, header rejection, binary tree dumps."""

import struct

import numpy as np
import pytest

from helpers import decay_matrix, rng_matrix
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.io import (
    QUADTREE_MAGIC,
    MatrixFormatError,
    load_matrix,
    load_quadtree,
    save_matrix,
    save_quadtree,
)


# -- MatrixMarket ------------------------------------------------------------

def test_array_round_trip_double(tmp_path):
    p = tmp_path / "a.mtx"
    a = DenseMatrix(np.random.default_rng(0).standard_normal((7, 5)))
    save_matrix(p, a)
    back = load_matrix(p)
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, a.data)


def test_array_round_trip_single_values(tmp_path):
    p = tmp_path / "a.mtx"
    a = DenseMatrix(rng_matrix(9, 4, seed=1))
    save_matrix(p, a)
    assert np.array_equal(load_matrix(p).data, a.data.astype(np.float64))


def test_coordinate_round_trip_keeps_zeros(tmp_path):
    p = tmp_path / "a.mtx"
    data = np.zeros((6, 6))
    data[0, 0] = 1.5
    data[5, 2] = -2.25
    save_matrix(p, DenseMatrix(data), layout="coordinate")
    text = p.read_text()
    assert "coordinate" in text.splitlines()[0]
    assert np.array_equal(load_matrix(p).data, data)


def test_symmetric_round_trip(tmp_path):
    # the writer detects the symmetry and stores one triangle; the reader
    # expands it back to full storage
    p = tmp_path / "s.mtx"
    sym = rng_matrix(8, 8, seed=2).astype(np.float64)
    sym = sym + sym.T
    skew = sym.copy()
    skew[0, 1] += 1.0
    for layout in ("array", "coordinate"):
        for a, tag in ((sym, "symmetric"), (skew, "general")):
            save_matrix(p, DenseMatrix(a), layout=layout)
            assert p.read_text().split()[4] == tag
            assert np.array_equal(load_matrix(p).data, a)


def test_save_matrix_validation(tmp_path):
    a = DenseMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.mtx", a, layout="blocked")


@pytest.mark.parametrize("header", [
    "%%MatrixMarket matrix array complex general",
    "%%MatrixMarket matrix array pattern general",
    "%%MatrixMarket matrix array integer general",
    "%%MatrixMarket matrix array real skew-symmetric",
    "%%MatrixMarket matrix array real hermitian",
    "%%MatrixMarket tensor array real general",
    "%%MatrixMarket matrix array real",
    "not a matrix market file at all",
])
def test_load_rejects_bad_headers(tmp_path, header):
    p = tmp_path / "bad.mtx"
    p.write_text(header + "\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(p)


def test_load_rejects_malformed_body(tmp_path):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nfoo\n3\n4\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(p)


def test_load_rejects_non_finite(tmp_path):
    p = tmp_path / "inf.mtx"
    p.write_text("%%MatrixMarket matrix array real general\n2 1\n1\ninf\n")
    with pytest.raises(MatrixFormatError, match="finite"):
        load_matrix(p)


def test_load_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_matrix(tmp_path / "nope.mtx")


def test_case_insensitive_header(tmp_path):
    p = tmp_path / "u.mtx"
    p.write_text("%%MatrixMarket matrix ARRAY Real General\n1 1\n2.5\n")
    assert load_matrix(p).data[0, 0] == 2.5


# -- binary quadtree dump ------------------------------------------------------

def test_quadtree_round_trip_bit_exact(tmp_path):
    p = tmp_path / "t.qt"
    q = QuadtreeMatrix.from_dense(decay_matrix(70, seed=3).data)
    save_quadtree(p, q)
    back = load_quadtree(p)
    assert (back.m, back.n, back.n_b, back.depth) == (q.m, q.n, q.n_b, q.depth)
    assert np.array_equal(back.keys, q.keys)
    assert np.array_equal(back.values, q.values)
    assert np.array_equal(back.norms, q.norms)
    assert np.array_equal(back.subnorms, q.subnorms)
    assert np.array_equal(back.to_dense().data, q.to_dense().data)


def test_quadtree_dump_layout_pinned(tmp_path):
    p = tmp_path / "t.qt"
    a = np.zeros((20, 20), np.float32)
    a[:16, :16] = rng_matrix(16, 16, seed=4)
    a[16:, 16:] = 1.0
    q = QuadtreeMatrix.from_dense(a, 16)
    save_quadtree(p, q)
    raw = p.read_bytes()
    assert raw[:8] == QUADTREE_MAGIC == b"SPAMMQT1"
    m, n, nb, depth, count = struct.unpack_from("<5Q", raw, 8)
    assert (m, n, nb, depth, count) == (20, 20, 16, 1, 2)
    off = 8 + 40
    record = 8 + 16 * 16 * 4
    assert len(raw) == off + count * record
    (key0,) = struct.unpack_from("<Q", raw, off)
    (key1,) = struct.unpack_from("<Q", raw, off + record)
    assert (key0, key1) == (0, 3)
    vals0 = np.frombuffer(raw, "<f4", 256, off + 8).reshape(16, 16)
    assert np.array_equal(vals0, a[:16, :16])


def test_quadtree_dump_empty_tree(tmp_path):
    p = tmp_path / "e.qt"
    save_quadtree(p, QuadtreeMatrix(33, 12))
    back = load_quadtree(p)
    assert (back.m, back.n, back.leaf_count) == (33, 12, 0)


def _valid_dump(tmp_path):
    p = tmp_path / "v.qt"
    q = QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=5), 16)
    save_quadtree(p, q)
    return p.read_bytes()


def test_quadtree_load_rejects_bad_magic(tmp_path):
    raw = _valid_dump(tmp_path)
    p = tmp_path / "bad.qt"
    p.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(MatrixFormatError, match="magic"):
        load_quadtree(p)


def test_quadtree_load_rejects_truncation_and_excess(tmp_path):
    raw = _valid_dump(tmp_path)
    p = tmp_path / "bad.qt"
    p.write_bytes(raw[:20])
    with pytest.raises(MatrixFormatError):
        load_quadtree(p)
    p.write_bytes(raw[:-4])
    with pytest.raises(MatrixFormatError):
        load_quadtree(p)
    p.write_bytes(raw + b"\x00" * 4)
    with pytest.raises(MatrixFormatError):
        load_quadtree(p)


def test_quadtree_load_rejects_bad_keys(tmp_path):
    raw = bytearray(_valid_dump(tmp_path))
    p = tmp_path / "bad.qt"
    # duplicate first key into second record -> not strictly ascending
    record = 8 + 256 * 4
    base = 48
    raw[base + record : base + record + 8] = raw[base : base + 8]
    p.write_bytes(bytes(raw))
    with pytest.raises(MatrixFormatError, match="ascending"):
        load_quadtree(p)
    raw = bytearray(_valid_dump(tmp_path))
    raw[base : base + 8] = struct.pack("<Q", 4)  # depth 1 keys end at 3
    p.write_bytes(bytes(raw))
    with pytest.raises(MatrixFormatError, match="range"):
        load_quadtree(p)


def test_quadtree_load_rejects_a_key_outside_a_non_square_grid(tmp_path):
    # a 32 x 16 matrix at n_b = 16 is a 2 x 1 block grid at depth 1: key 1,
    # block (0, 1), is below 4**depth but outside the grid
    p = tmp_path / "bad.qt"
    p.write_bytes(QUADTREE_MAGIC + struct.pack("<5Q", 32, 16, 16, 1, 1)
                  + struct.pack("<Q", 1) + np.ones((16, 16), np.float32).tobytes())
    with pytest.raises(MatrixFormatError, match="range"):
        load_quadtree(p)


def test_quadtree_load_reports_a_key_fault_before_a_non_finite_leaf(tmp_path):
    raw = bytearray(_valid_dump(tmp_path))
    record, base = 8 + 256 * 4, 48
    raw[base + 8 : base + 12] = struct.pack("<f", float("nan"))  # leaf 0
    raw[base + 3 * record : base + 3 * record + 8] = struct.pack("<Q", 1)  # after key 2
    p = tmp_path / "bad.qt"
    p.write_bytes(bytes(raw))
    with pytest.raises(MatrixFormatError, match="ascending: key 1 at position 3"):
        load_quadtree(p)


def test_quadtree_load_rejects_finite_leaves_whose_norm_overflows(tmp_path):
    p = tmp_path / "big.qt"
    v = np.full((16, 16), 1e38, np.float32)  # each value finite, the leaf norm not
    p.write_bytes(QUADTREE_MAGIC + struct.pack("<5Q", 16, 16, 16, 0, 1)
                  + struct.pack("<Q", 0) + v.tobytes())
    with pytest.raises(MatrixFormatError, match="block row 0, column 0 has a norm"):
        load_quadtree(p)


def test_quadtree_load_rejects_non_finite_values(tmp_path):
    raw = bytearray(_valid_dump(tmp_path))
    raw[48 + 8 : 48 + 12] = struct.pack("<f", float("nan"))
    p = tmp_path / "bad.qt"
    p.write_bytes(bytes(raw))
    with pytest.raises(MatrixFormatError, match="finite"):
        load_quadtree(p)


def test_quadtree_load_rejects_nonzero_padding(tmp_path):
    p = tmp_path / "pad.qt"
    v = np.zeros((1, 16, 16), np.float32)
    v[0, 0, 0] = v[0, 0, 15] = v[0, 15, 0] = 1.0  # past column 9 and row 9
    p.write_bytes(QUADTREE_MAGIC + struct.pack("<5Q", 10, 10, 16, 0, 1)
                  + struct.pack("<Q", 0) + v.tobytes())
    with pytest.raises(MatrixFormatError, match="block row 0, column 0 has nonzero values"):
        load_quadtree(p)
    v[0, 0, 15] = v[0, 15, 0] = 0.0
    p.write_bytes(QUADTREE_MAGIC + struct.pack("<5Q", 10, 10, 16, 0, 1)
                  + struct.pack("<Q", 0) + v.tobytes())
    back = load_quadtree(p)
    assert back.keys.tolist() == [0] and back.norms.tolist() == [1.0]


def test_quadtree_load_rejects_inconsistent_depth(tmp_path):
    raw = bytearray(_valid_dump(tmp_path))
    raw[8 + 24 : 8 + 32] = struct.pack("<Q", 3)  # real depth for 32/16 is 1
    p = tmp_path / "bad.qt"
    p.write_bytes(bytes(raw))
    with pytest.raises(MatrixFormatError, match="depth"):
        load_quadtree(p)


def test_quadtree_load_rejects_bad_block_size(tmp_path):
    raw = bytearray(_valid_dump(tmp_path))
    raw[8 + 16 : 8 + 24] = struct.pack("<Q", 12)
    p = tmp_path / "bad.qt"
    p.write_bytes(bytes(raw))
    with pytest.raises(MatrixFormatError, match="header"):
        load_quadtree(p)
    # powers of two whose leaf record numpy cannot form; depth 0 matches a
    # 16 x 16 matrix at these sizes, so the record size is what fails
    for n_b in (2**15, 2**40):
        p.write_bytes(QUADTREE_MAGIC + struct.pack("<5Q", 16, 16, n_b, 0, 0))
        with pytest.raises(MatrixFormatError, match=f"block size {n_b}"):
            load_quadtree(p)
    p.write_bytes(QUADTREE_MAGIC + struct.pack("<5Q", 16, 16, 2**14, 0, 0))
    assert load_quadtree(p).n_b == 2**14
    # leaves smaller than the 4x4 sub-blocks the multiply gates on
    for n_b, depth in ((2, 3), (1, 4)):
        p.write_bytes(QUADTREE_MAGIC + struct.pack("<5Q", 16, 16, n_b, depth, 0))
        with pytest.raises(MatrixFormatError, match="at least 4"):
            load_quadtree(p)
