"""Dense wrapper, depth arithmetic, columnar quadtree storage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import assert_norm_invariant, decay_matrix, rng_matrix, subnorm_squares
from spamm.core import DenseMatrix, QuadtreeMatrix, _subnorm_squares, tree_depth
from spamm.morton import encode


# -- tree_depth --------------------------------------------------------------

def test_tree_depth_pinned_values():
    assert tree_depth(7500, 7500, 16) == 9
    assert tree_depth(16, 16, 16) == 0
    assert tree_depth(17, 4, 16) == 1
    assert tree_depth(1, 1, 16) == 0
    assert tree_depth(33, 1, 16) == 2


def test_tree_depth_is_minimal():
    rng = np.random.default_rng(2)
    for _ in range(300):
        m = int(rng.integers(1, 5000))
        n = int(rng.integers(1, 5000))
        nb = int(2 ** rng.integers(2, 7))
        d = tree_depth(m, n, nb)
        assert nb * 2**d >= max(m, n)
        assert d == 0 or nb * 2 ** (d - 1) < max(m, n)


def test_tree_depth_validation():
    with pytest.raises(ValueError):
        tree_depth(0, 4, 16)
    with pytest.raises(ValueError):
        tree_depth(4, 4, 0)
    with pytest.raises(ValueError):
        tree_depth(4, 4, 12)
    with pytest.raises(ValueError, match="at least 4"):
        tree_depth(4, 4, 2)


# -- DenseMatrix -----------------------------------------------------------

def test_dense_matrix_basics():
    d = DenseMatrix(np.array([[1, 2], [3, 4]]))
    assert (d.m, d.n) == (2, 2)
    assert d.precision == "double"
    assert DenseMatrix(np.zeros((3, 5), np.float32)).precision == "single"
    assert DenseMatrix(np.eye(9, dtype=np.float32)).frobenius() == pytest.approx(3.0)


def test_dense_matrix_validation():
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros(4))
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DenseMatrix(np.array([[np.inf, 1.0]]))


# -- quadtree construction -------------------------------------------------

def test_single_leaf_diagonal_norm():
    q = QuadtreeMatrix.from_dense(np.array([[3.0, 0.0], [0.0, 4.0]]), n_b=4)
    assert q.depth == 0
    assert q.leaf_count == 1
    assert q.norm == 5.0
    assert np.array_equal(q.to_dense().data, [[3.0, 0.0], [0.0, 4.0]])


def test_from_dense_skips_zero_blocks():
    a = np.zeros((64, 64), np.float32)
    a[:16, :16] = 1.0
    a[48:, 48:] = 2.0
    q = QuadtreeMatrix.from_dense(a)
    assert q.depth == 2
    assert q.leaf_count == 2
    assert q.keys.tolist() == [encode(0, 0), encode(3, 3)]
    assert_norm_invariant(q)


def test_from_dense_all_zero_builds_empty_tree():
    q = QuadtreeMatrix.from_dense(np.zeros((40, 200), np.float32))
    assert q.depth == 4
    assert q.leaf_count == 0 and q.norms.size == 0
    assert q.norm == 0.0
    assert np.array_equal(q.to_dense().data, np.zeros((40, 200), np.float32))


def test_identity_norm():
    q = QuadtreeMatrix.from_dense(np.eye(32, dtype=np.float32))
    assert q.leaf_count == 2
    assert q.norm == float(np.float32(math.sqrt(32.0)))
    assert_norm_invariant(q)


def test_round_trip_various_shapes():
    rng = np.random.default_rng(7)
    for m, n, nb in [(16, 16, 16), (17, 4, 16), (5, 3, 16), (40, 70, 16),
                     (1, 1, 16), (33, 33, 8), (12, 20, 4), (3, 2, 4)]:
        a = ((rng.random((m, n)) * 2 - 1)).astype(np.float32)
        q = QuadtreeMatrix.from_dense(a, nb)
        back = q.to_dense()
        assert (back.m, back.n) == (m, n)
        assert np.array_equal(back.data, a)
        assert_norm_invariant(q)


def test_scaling_by_two_scales_all_norms_exactly():
    a = decay_matrix(64, seed=3).data
    q1 = QuadtreeMatrix.from_dense(a)
    q2 = QuadtreeMatrix.from_dense(2.0 * a)
    assert np.array_equal(q1.keys, q2.keys)
    assert np.array_equal(q2.norms.astype(np.float64), 2.0 * q1.norms.astype(np.float64))
    assert np.array_equal(q2.subnorms.astype(np.float64), 2.0 * q1.subnorms.astype(np.float64))
    assert q2.norm == 2.0 * q1.norm


def test_norm_invariant_on_generated_matrices():
    for kind, kw in [("exponential", {}), ("algebraic", {"lam": 1.5}),
                     ("blocked-decay", {"blocks": (5, 15)}), ("random-dense", {})]:
        q = QuadtreeMatrix.from_dense(decay_matrix(96, seed=1, kind=kind, **kw).data)
        assert_norm_invariant(q)


def test_constructor_validation():
    with pytest.raises(ValueError):
        QuadtreeMatrix(0, 4)
    with pytest.raises(ValueError):
        QuadtreeMatrix(4, 4, 3)
    with pytest.raises(ValueError, match="at least 4"):
        QuadtreeMatrix(4, 4, 2)


def test_from_leaves_matches_from_dense():
    a = rng_matrix(64, 64, seed=21)
    ref = QuadtreeMatrix.from_dense(a)
    q = QuadtreeMatrix.from_leaves(64, 64, ref.keys, ref.values, 16)
    assert q.values is not ref.values  # copied, not shared
    assert np.array_equal(q.keys, ref.keys)
    assert np.array_equal(q.norms, ref.norms)
    assert np.array_equal(q.subnorms, ref.subnorms)
    assert q.norm == ref.norm
    assert np.array_equal(q.to_dense().data, a)
    assert_norm_invariant(q)


def test_from_leaves_validation():
    leaf = np.zeros((1, 16, 16), np.float32)
    two = np.zeros((2, 16, 16), np.float32)
    with pytest.raises(ValueError, match="values"):
        QuadtreeMatrix.from_leaves(32, 32, [0], np.zeros((1, 8, 8), np.float32), 16)
    with pytest.raises(ValueError, match="values"):
        QuadtreeMatrix.from_leaves(32, 32, [0, 1], leaf, 16)
    with pytest.raises(ValueError, match="range"):
        QuadtreeMatrix.from_leaves(32, 32, [4], leaf, 16)  # depth 1 holds keys 0..3
    with pytest.raises(ValueError, match="range"):
        # depth 2 holds keys 0..15, but block row 3 is padding in a 3 x 3 grid
        QuadtreeMatrix.from_leaves(40, 40, [encode(3, 0)], leaf, 16)
    assert QuadtreeMatrix.from_leaves(40, 40, [encode(2, 2)], leaf, 16).leaf_count == 1
    with pytest.raises(ValueError, match="negative"):
        QuadtreeMatrix.from_leaves(32, 32, [-1], leaf, 16)
    with pytest.raises(ValueError, match="ascending"):
        QuadtreeMatrix.from_leaves(32, 32, [1, 0], two, 16)
    with pytest.raises(ValueError, match="unique"):
        QuadtreeMatrix.from_leaves(32, 32, [2, 2], two, 16)
    with pytest.raises(ValueError, match="integers"):
        QuadtreeMatrix.from_leaves(32, 32, [0.0], leaf, 16)
    empty = QuadtreeMatrix.from_leaves(32, 32, [], np.zeros((0, 16, 16)), 16)
    assert empty.leaf_count == 0 and empty.norms.size == 0 and empty.norm == 0.0
    # padding rows and columns of an edge leaf must hold zeros: the multiply
    # would read them, but to_dense drops them
    v = np.zeros((1, 16, 16), np.float32)
    v[0, 0, 0] = v[0, 0, 15] = v[0, 15, 0] = 1.0
    with pytest.raises(ValueError, match="block row 0, column 0 has nonzero values in the padding"):
        QuadtreeMatrix.from_leaves(10, 10, [0], v, 16)
    for r, c in ((15, 0), (0, 15), (15, 15)):
        v = np.zeros((4, 16, 16), np.float32)
        v[3, r, c] = -2.0
        with pytest.raises(ValueError, match="block row 1, column 1"):
            QuadtreeMatrix.from_leaves(20, 20, [0, 1, 2, 3], v, 16)
    v = np.zeros((4, 16, 16), np.float32)
    v[:, 3, 3] = 1.0  # inside the 20 x 20 region in every leaf
    v[0, 15, 15] = v[1, 15, 3] = v[2, 3, 15] = 1.0  # interior rows and columns
    assert QuadtreeMatrix.from_leaves(20, 20, [0, 1, 2, 3], v, 16).norm == float(
        np.float32(math.sqrt(7.0)))
    with pytest.raises(ValueError, match="at least 4"):
        QuadtreeMatrix.from_leaves(4, 4, [0], np.zeros((1, 2, 2)), 2)


@pytest.mark.filterwarnings("error")
def test_from_dense_rejects_float32_overflow():
    with pytest.raises(OverflowError, match="block row 0, column 0"):
        QuadtreeMatrix.from_dense(np.eye(32) * 1e39)


@pytest.mark.filterwarnings("error")
def test_norm_above_float32_max_is_rejected():
    # finite float32 values whose leaf norm rounds to inf in float32
    with pytest.raises(OverflowError, match="block row 1, column 0"):
        QuadtreeMatrix.from_dense(np.vstack([np.eye(16), np.ones((16, 16)) * 1e38]))
    # every leaf norm finite, the root norm not
    a = np.zeros((64, 64), np.float32)
    a[0, 0] = a[16, 16] = 3e38
    with pytest.raises(OverflowError, match="matrix norm"):
        QuadtreeMatrix.from_dense(a)


F32 = np.finfo(np.float32)
# values that replace a drawn share of a stack: any finite float32 and the edges
WILD = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, F32.max, -F32.max, F32.tiny, F32.smallest_subnormal,
                     -F32.smallest_subnormal]),
)


@settings(max_examples=300, deadline=None)
@given(nb=st.sampled_from([4, 8, 16]), count=st.integers(0, 3),
       exponent=st.integers(-160, 126), data=st.data())
def test_subnorm_squares_equal_the_numpy_sum_bit_for_bit(nb, count, exponent, data):
    # values in [-2, 2] scaled by 2^exponent, subnormal at the low end: squares of
    # like size, whose sums round differently when added in another order
    shape = (count, nb, nb)
    mantissas = data.draw(arrays(np.float32, shape, elements=st.floats(-2.0, 2.0, width=32)))
    values = np.ldexp(mantissas, exponent).astype(np.float32)
    wild = data.draw(arrays(bool, shape))
    values[wild] = data.draw(arrays(np.float32, shape, elements=WILD))[wild]
    got = _subnorm_squares(values)
    assert got.shape == (count, nb // 4, nb // 4) and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), subnorm_squares(values).view(np.uint64))


def test_subnorm_squares_of_random_leaves_equal_the_numpy_sum():
    # a plain 16-term running sum differs from numpy's on about a quarter of these
    values = np.random.default_rng(5).standard_normal((64, 16, 16)).astype(np.float32)
    want = subnorm_squares(values)
    assert np.array_equal(_subnorm_squares(values).view(np.uint64), want.view(np.uint64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_leaf_names_its_block(bad):
    keys = np.sort([encode(i, j) for i in range(2) for j in range(2)]).astype(np.uint64)
    values = rng_matrix(64, 16, seed=3).reshape(4, 16, 16)
    values[keys.tolist().index(encode(1, 0)), 5, 7] = bad
    with pytest.raises(OverflowError, match="block row 1, column 0"):
        QuadtreeMatrix.from_leaves(32, 32, keys, values)


# -- stacks and bookkeeping --------------------------------------------------

def test_empty_tree_stacks():
    q = QuadtreeMatrix(32, 32)
    assert q.keys.size == 0 and q.keys.dtype == np.uint64
    assert q.values.shape == (0, 16, 16) and q.subnorms.shape == (0, 4, 4)
    assert q.norms.shape == (0,) and q.norms.dtype == np.float32
    assert q.norm == 0.0


def test_counts():
    q = QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=1))
    assert q.leaf_count == 4
    assert q.norms.size == 4


def test_leaf_block_from_values_small_block():
    for nb in (1, 2):
        with pytest.raises(ValueError, match="at least 4"):
            QuadtreeMatrix.from_dense(np.full((2, 2), 3.0, np.float32), n_b=nb)
    q = QuadtreeMatrix.from_dense(np.full((2, 2), 3.0, np.float32), n_b=4)
    assert q.subnorms.shape == (1, 1, 1)
    assert q.subnorms[0, 0, 0] == 6.0
    assert q.norm == 6.0
