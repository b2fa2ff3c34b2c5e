"""Dense wrapper, depth arithmetic, columnar quadtree storage."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    LEAF_SIZES,
    assert_norm_invariant,
    decay_matrix,
    padded_from_dense,
    padded_to_dense,
    rng_matrix,
    subnorm_squares,
)
from spamm.core import DEFAULT_BLOCK, DenseMatrix, QuadtreeMatrix, _subnorm_squares, tree_depth
from spamm.io import load_quadtree, save_quadtree
from spamm.morton import decode, encode
from spamm.numeric import MultiplyConfig, execute_plan
from spamm.symbolic import build_plan


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


def test_complex_input_is_rejected():
    # casting would drop the imaginary part: 1+2j would be stored as 1.0
    with pytest.raises(ValueError, match="real"):
        DenseMatrix(np.array([[1 + 2j, 0], [0, 1]]))
    with pytest.raises(ValueError, match="real"):
        QuadtreeMatrix.from_dense(np.eye(16) * (1 + 1j))
    with pytest.raises(ValueError, match="real"):
        QuadtreeMatrix.from_leaves(16, 16, [0], np.ones((1, 16, 16), np.complex64))


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
    q = QuadtreeMatrix.from_dense(a, 16)
    assert q.depth == 2
    assert q.leaf_count == 2
    assert q.keys.tolist() == [encode(0, 0), encode(3, 3)]
    assert_norm_invariant(q)


def test_from_dense_all_zero_builds_empty_tree():
    q = QuadtreeMatrix.from_dense(np.zeros((40, 200), np.float32), 16)
    assert q.depth == 4
    assert q.leaf_count == 0 and q.norms.size == 0
    assert q.norm == 0.0
    assert np.array_equal(q.to_dense().data, np.zeros((40, 200), np.float32))


def test_identity_norm():
    q = QuadtreeMatrix.from_dense(np.eye(32, dtype=np.float32), 16)
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
    for nb in LEAF_SIZES:
        q1 = QuadtreeMatrix.from_dense(a, nb)
        q2 = QuadtreeMatrix.from_dense(2.0 * a, nb)
        assert np.array_equal(q1.keys, q2.keys)
        assert np.array_equal(q2.norms.astype(np.float64), 2.0 * q1.norms.astype(np.float64))
        assert np.array_equal(q2.subnorms.astype(np.float64), 2.0 * q1.subnorms.astype(np.float64))
        assert q2.norm == 2.0 * q1.norm


def test_norm_invariant_on_generated_matrices():
    for kind, kw in [("exponential", {}), ("algebraic", {"lam": 1.5}),
                     ("blocked-decay", {"blocks": (5, 15)}), ("random-dense", {})]:
        for nb in LEAF_SIZES:
            q = QuadtreeMatrix.from_dense(decay_matrix(96, seed=1, kind=kind, **kw).data, nb)
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
    ref = QuadtreeMatrix.from_dense(a, 16)
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


def test_from_leaves_names_the_first_bad_leaf():
    # range and order are tested together: the first bad position decides
    two = np.zeros((3, 16, 16), np.float32)
    with pytest.raises(ValueError, match="key 4 at position 0 out of range"):
        QuadtreeMatrix.from_leaves(32, 32, [4, 1, 2], two, 16)
    with pytest.raises(ValueError, match="ascending: key 0 at position 2 follows 3"):
        QuadtreeMatrix.from_leaves(32, 32, [1, 3, 0], two, 16)
    with pytest.raises(ValueError, match="ascending: key 1 at position 1 follows 2"):
        QuadtreeMatrix.from_leaves(32, 32, [2, 1, 9], two, 16)


@pytest.mark.filterwarnings("error")
def test_from_leaves_names_a_leaf_that_overflows_float32():
    # float64 values past float32 max round to inf without a numpy warning
    v = np.zeros((1, 4, 4))
    v[0, 0, 0] = 1e300
    with pytest.raises(OverflowError, match="block row 0, column 0"):
        QuadtreeMatrix.from_leaves(4, 4, [0], v, 4)


@pytest.mark.filterwarnings("error")
def test_from_dense_rejects_float32_overflow():
    with pytest.raises(OverflowError, match="block row 0, column 0"):
        QuadtreeMatrix.from_dense(np.eye(32) * 1e39)


@pytest.mark.filterwarnings("error")
def test_norm_above_float32_max_is_rejected():
    # finite float32 values whose leaf norm rounds to inf in float32
    with pytest.raises(OverflowError, match="block row 1, column 0"):
        QuadtreeMatrix.from_dense(np.vstack([np.eye(16), np.ones((16, 16)) * 1e38]), 16)
    # every leaf norm finite, the root norm not
    a = np.zeros((64, 64), np.float32)
    a[0, 0] = a[16, 16] = 3e38
    with pytest.raises(OverflowError, match="matrix norm"):
        QuadtreeMatrix.from_dense(a, 16)


F32 = np.finfo(np.float32)
# values that replace a drawn share of a stack: any finite float32 and the edges
WILD = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, F32.max, -F32.max, F32.tiny, F32.smallest_subnormal,
                     -F32.smallest_subnormal]),
)


@settings(max_examples=300, deadline=None)
@given(nb=st.sampled_from([4, 8, 16]), count=st.integers(0, 3), grid=st.booleans(),
       exponent=st.integers(-160, 126), data=st.data())
def test_subnorm_squares_equal_the_numpy_sum_bit_for_bit(nb, count, grid, exponent, data):
    # values in [-2, 2] scaled by 2^exponent, subnormal at the low end: squares of
    # like size, whose sums round differently when added in another order
    br, bc = (count, data.draw(st.integers(1, 3))) if grid else (count, 1)
    shape = (br * nb, bc * nb) if grid else (count, nb, nb)
    mantissas = data.draw(arrays(np.float32, shape, elements=st.floats(-2.0, 2.0, width=32)))
    values = np.ldexp(mantissas, exponent).astype(np.float32)
    wild = data.draw(arrays(bool, shape))
    values[wild] = data.draw(arrays(np.float32, shape, elements=WILD))[wild]
    s = nb // 4
    if grid:
        # the dense rows read in place against the same blocks gathered into a
        # stack, a contiguous one as the library's: numpy sums the squares of a
        # strided view in another order
        got = _subnorm_squares(values, nb)
        assert got.shape == (br, bc, s, s)
        stack = np.ascontiguousarray(
            values.reshape(br, nb, bc, nb).transpose(0, 2, 1, 3).reshape(-1, nb, nb))
        want = subnorm_squares(stack).reshape(br, bc, s, s)
    else:
        got, want = _subnorm_squares(values), subnorm_squares(values)
        assert got.shape == (count, s, s)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_subnorm_squares_reject_a_grid_that_is_not_c_contiguous():
    grid = rng_matrix(32, 48, seed=9)
    for strided in (np.asfortranarray(grid), rng_matrix(32, 64, seed=9)[:, :48]):
        with pytest.raises(ValueError, match="dense grid .* not C-contiguous"):
            _subnorm_squares(strided, 16)
    with pytest.raises(ValueError, match="dense grid"):
        _subnorm_squares(grid[:, :40].copy(), 16)  # not whole blocks
    with pytest.raises(ValueError, match="dense grid"):
        _subnorm_squares(grid.astype(np.float64), 16)


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
        QuadtreeMatrix.from_leaves(32, 32, keys, values, 16)


# -- from_dense and to_dense against the padded grid ------------------------

# What each block of a drawn matrix holds, at random places: nothing, -0 only,
# float32 subnormals only, normal values, float64 values that round to 0 in
# float32, float64 values past float32 max, and float32 values near float32 max,
# whose block norm may overflow.  A block of -0 or of tiny64 is dropped.
BLOCK_KINDS = ("zero", "negzero", "subnormal", "normal", "tiny64", "huge64", "big32")


def _fill(block: np.ndarray, kind: str, rng: np.random.Generator) -> None:
    where = rng.random(block.shape) < 0.3
    count = int(where.sum())
    sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
    block[where] = {
        "zero": np.zeros(count),
        "negzero": np.full(count, -0.0),
        "subnormal": sign * rng.integers(1, 1 << 23, count) * 2.0**-149,
        "normal": rng.standard_normal(count),
        "tiny64": sign * rng.random(count) * 7e-46,
        "huge64": sign * 1e39,
        "big32": sign * 3e38,
    }[kind]


@settings(max_examples=200, deadline=None)
@given(nb=st.sampled_from([4, 16, 64]), double=st.booleans(), data=st.data())
def test_conversions_equal_the_padded_grid_bit_for_bit(nb, double, data):
    # aligned, ragged, tall and wide shapes of up to 4 x 4 blocks
    m, n = (data.draw(st.integers(1, 4 * nb)) for _ in range(2))
    br, bc = -(-m // nb), -(-n // nb)
    kinds = BLOCK_KINDS if double else BLOCK_KINDS[:4] + BLOCK_KINDS[-1:]
    layout = data.draw(st.lists(st.sampled_from(kinds), min_size=br * bc, max_size=br * bc))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = np.zeros((m, n), np.float64 if double else np.float32)
    for (i, j), kind in zip(np.ndindex(br, bc), layout):
        _fill(a[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb], kind, rng)
    try:
        want = padded_from_dense(a, nb)
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=f"^{re.escape(str(exc))}$"):
            QuadtreeMatrix.from_dense(a, nb)
        return
    got = QuadtreeMatrix.from_dense(a, nb)
    for name in ("keys", "values", "norms", "subnorms"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert np.float64(got.norm).tobytes() == np.float64(want.norm).tobytes()
    dense = got.to_dense().data
    assert dense.flags.c_contiguous and dense.tobytes() == padded_to_dense(want).tobytes()
    stored = {(i, j) for (i, j), kind in zip(np.ndindex(br, bc), layout)
              if kind in ("subnormal", "normal", "big32")
              and a[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb].any()}
    assert stored == {decode(k) for k in got.keys.tolist()}


def test_conversions_allocate_little_beyond_the_matrix():
    # no padded copy of aligned float32 rows and no block-major intermediate:
    # each conversion holds about one matrix of output and small norm arrays
    a = rng_matrix(1024, 1024, seed=12)
    q = QuadtreeMatrix.from_dense(a)
    assert q.n_b == DEFAULT_BLOCK and q.leaf_count == (1024 // DEFAULT_BLOCK) ** 2
    tracemalloc.start()
    try:
        for convert in (lambda: QuadtreeMatrix.from_dense(a), q.to_dense):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = convert()
            peak = tracemalloc.get_traced_memory()[1] - base
            del out
            assert peak < 1.6 * a.nbytes
    finally:
        tracemalloc.stop()


def test_to_dense_of_a_ragged_shape_allocates_only_its_output():
    # each row is written once into the m x n output: no padded block grid
    # and no bool array of a finiteness check (the parent peaked at 2.3x)
    for nb in (16, 64):
        q = QuadtreeMatrix.from_dense(rng_matrix(1000, 1000, seed=13), nb)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = q.to_dense().data
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (1000, 1000)
        assert peak < 1.05 * out.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_dense_rejects_non_finite_elements(bad):
    # aligned float32 input is checked through its sub-block square sums,
    # other input as a DenseMatrix: one error either way
    for shape, dtype, nb in (((64, 32), np.float32, 16), ((64, 64), np.float32, 64),
                             ((40, 70), np.float32, 16), ((64, 32), np.float64, 16)):
        for where in ((0, 0), (shape[0] - 1, shape[1] - 1), (37, 19)):
            for fill in (0.0, 1.0):  # alone in a block of zeros, or among values
                a = np.full(shape, fill, dtype)
                a[where] = bad
                for dense in (a, np.asfortranarray(a)):
                    with pytest.raises(ValueError, match="^matrix elements must be finite$"):
                        QuadtreeMatrix.from_dense(dense, nb)


def test_stored_arrays_are_read_only(tmp_path):
    # _store refuses non-finite leaves and stores its arrays read-only, so no
    # tree, built, multiplied or loaded, can be edited into a non-finite one
    built = QuadtreeMatrix.from_dense(rng_matrix(64, 64, seed=14), 16)
    product, _ = execute_plan(build_plan(built, built, 0.0), built, built, None, MultiplyConfig())
    save_quadtree(tmp_path / "tree.qt", built)
    loaded = load_quadtree(tmp_path / "tree.qt")
    for tree in (built, product, loaded, QuadtreeMatrix(16, 16, 16)):
        for name in ("keys", "values", "norms", "subnorms"):
            arr = getattr(tree, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                arr += arr
    assert_norm_invariant(built)


# -- stacks and bookkeeping --------------------------------------------------

def test_empty_tree_stacks():
    q = QuadtreeMatrix(32, 32, 16)
    assert q.keys.size == 0 and q.keys.dtype == np.uint64
    assert q.values.shape == (0, 16, 16) and q.subnorms.shape == (0, 4, 4)
    assert q.norms.shape == (0,) and q.norms.dtype == np.float32
    assert q.norm == 0.0


def test_counts():
    q = QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=1), 16)
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
