"""Dense and quadtree matrix storage with Frobenius norms.

A QuadtreeMatrix stores an m x n single-precision matrix as n_b x n_b leaf
blocks on a 2^depth x 2^depth block grid, with zeros past m x n.  The
tree is columnar: four parallel arrays over the stored leaves in ascending
Morton key order (keys, blocks, block norms, 4x4 sub-block norms) plus the
norm of the whole matrix.  An absent key means an exactly zero submatrix.
The multiply phases prune against the block and sub-block norms; interior
nodes exist only as key arithmetic and store no norms.  All norms are
built from the leaf stack by one routine, once per tree and once per
execute_plan for its accumulator, so they are never stale.  The float64
sub-block square sums come from one C routine of _kernel.c; the block and
matrix norms, their float32 rounding and the overflow checks are numpy.
"""

from __future__ import annotations

import numpy as np

from ._kernel import _lib, _pointer
from .morton import decode, decode_array, encode_array

DEFAULT_BLOCK = 16


def _validate_block_size(n_b: int) -> None:
    if not isinstance(n_b, (int, np.integer)) or n_b < 4 or n_b & (n_b - 1):
        raise ValueError(f"block size must be a power of two of at least 4, got {n_b}")


def _subnorm_squares(values: np.ndarray) -> np.ndarray:
    """float64 sums of squares of the 4x4 sub-blocks of an (L, n_b, n_b)
    float32 leaf stack, (L, n_b/4, n_b/4), added in the order of numpy's
    sum(axis=(2, 4)) over the stack's squares as (L, s, 4, s, 4)."""
    count, nb = len(values), values.shape[-1]
    out = np.empty((count, nb // 4, nb // 4), np.float64)
    _lib.spamm_subnorm_squares(
        count, nb, _pointer(values, np.float32, (count, nb, nb), "leaf values"),
        out.ctypes.data)
    return out


def tree_depth(m: int, n: int, n_b: int = DEFAULT_BLOCK) -> int:
    """Smallest depth d with n_b * 2^d >= max(m, n), in integer arithmetic."""
    _validate_block_size(n_b)
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m} x {n}")
    q = -(-max(m, n) // n_b)
    return (q - 1).bit_length()


class DenseMatrix:
    """Dense 2-D matrix with explicit storage precision.

    Thin wrapper over a C-contiguous numpy array in float32 or float64.
    Construction validates shape and finiteness.  The quadtree side of the
    package is single precision; double precision exists for the oracles.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.ascontiguousarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix elements must be finite")
        self.data = arr

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def precision(self) -> str:
        return "single" if self.data.dtype == np.float32 else "double"

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.data.astype(np.float64)))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.m}x{self.n}, {self.precision})"


class QuadtreeMatrix:
    """Quadtree of n_b x n_b single-precision blocks with their norms.

    Leaves sit at tier == depth, the root at tier 0 (for depth 0 the root is
    the leaf).  Logical size is m x n; rows and columns past that are
    padding and hold zeros.  Storage:

        keys      (L,) uint64, ascending leaf keys
        values    (L, n_b, n_b) float32 leaf stack, row-major blocks
        norms     (L,) float32 Frobenius norms of the leaf blocks
        subnorms  (L, n_b/4, n_b/4) float32 norms of their 4x4 sub-blocks
        norm      Frobenius norm of the whole matrix, a float32 value

    A tree is built whole, by from_dense, from_leaves or io.load_quadtree.
    Its arrays are replaced whole only by _store, and only when the tree is
    the accumulator of numeric.execute_plan, which stores once after its
    pass over the operands.
    """

    def __init__(self, m: int, n: int, n_b: int = DEFAULT_BLOCK):
        _validate_block_size(n_b)
        if m < 1 or n < 1:
            raise ValueError(f"matrix dimensions must be positive, got {m} x {n}")
        self.m = int(m)
        self.n = int(n)
        self.n_b = int(n_b)
        self.depth = tree_depth(m, n, n_b)
        self._store(np.empty(0, np.uint64), np.empty((0, n_b, n_b), np.float32))

    # -- basic queries ---------------------------------------------------

    @property
    def leaf_count(self) -> int:
        return self.keys.size

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dense(cls, dense, n_b: int = DEFAULT_BLOCK) -> QuadtreeMatrix:
        """Build the tree from a dense matrix, skipping all-zero blocks."""
        if isinstance(dense, np.ndarray):
            dense = DenseMatrix(dense)
        q = cls(dense.m, dense.n, n_b)
        br = -(-q.m // n_b)
        bc = -(-q.n // n_b)
        grid = np.zeros((br * n_b, bc * n_b), np.float32)
        with np.errstate(over="ignore"):  # _store names an overflowed leaf
            grid[: q.m, : q.n] = dense.data
        blocks = grid.reshape(br, n_b, bc, n_b).transpose(0, 2, 1, 3)
        bi, bj = np.nonzero(blocks.any(axis=(2, 3)))
        keys = encode_array(bi, bj)
        order = np.argsort(keys)
        q._store(keys[order], blocks[bi[order], bj[order]])
        return q

    @classmethod
    def from_leaves(
        cls, m: int, n: int, keys, values, n_b: int = DEFAULT_BLOCK
    ) -> QuadtreeMatrix:
        """Build the tree from ascending leaf keys and their n_b x n_b blocks.

        Keys must be unique, ascending and inside the block grid of an
        m x n matrix, and the padding rows and columns of the edge leaves
        must be zero; values are copied to float32.  All-zero leaves are
        kept as given.
        """
        q = cls(m, n, n_b)
        raw = np.asarray(keys)
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
            raise ValueError("leaf keys must be a 1-D array of integers")
        if raw.size and raw.min() < 0:
            raise ValueError(f"leaf key {raw.min()} is negative")
        keys = raw.astype(np.uint64)
        vals = np.array(values, np.float32)
        if vals.shape != (keys.size, n_b, n_b):
            raise ValueError(
                f"leaf values must be {keys.size} x {n_b} x {n_b}, got {vals.shape}"
            )
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("leaf keys must be unique and ascending")
        rows, cols = decode_array(keys)
        br = -(-q.m // n_b)
        bc = -(-q.n // n_b)
        outside = np.flatnonzero((rows >= br) | (cols >= bc))
        if outside.size:
            key = int(keys[outside[0]])
            raise ValueError(
                f"leaf key {key} out of range: block {decode(key)} lies outside "
                f"a {q.m} x {q.n} matrix at block size {n_b}"
            )
        # the multiply reads padding like any value, so it must hold zeros
        dirty = np.zeros(keys.size, bool)
        bottom = np.flatnonzero(rows == br - 1)
        dirty[bottom] = vals[bottom, q.m - (br - 1) * n_b :].any(axis=(1, 2))
        right = np.flatnonzero(cols == bc - 1)
        dirty[right] |= vals[right, :, q.n - (bc - 1) * n_b :].any(axis=(1, 2))
        if dirty.any():
            r, c = decode(int(keys[np.argmax(dirty)]))
            raise ValueError(
                f"leaf at block row {r}, column {c} has nonzero values in the "
                f"padding past a {q.m} x {q.n} matrix"
            )
        q._store(keys, vals)
        return q

    def _store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Install a leaf stack (keys ascending) and rebuild every norm from it.

        Sub-block and block norms come from exact float64 square sums of the
        leaf values, the matrix norm from the float64 total of the block
        square sums; each is rounded to float32 once.  A norm that is not
        finite in float32 (a non-finite value, or finite values whose norm
        exceeds float32 max) raises OverflowError and leaves the tree as it
        was: a leaf names its block row and column, and a matrix norm that
        overflows with every leaf norm finite names the matrix.
        """
        subsq = _subnorm_squares(values)
        sq = subsq.sum(axis=(1, 2))
        with np.errstate(over="ignore"):  # a norm that overflows is named below
            norms = np.sqrt(sq).astype(np.float32)
            norm = np.sqrt(sq.sum()).astype(np.float32)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            r, c = decode(int(keys[bad[0]]))
            raise OverflowError(
                f"leaf at block row {r}, column {c} has a norm that is not "
                "finite in float32"
            )
        if np.isinf(norm):
            raise OverflowError("matrix norm is not finite in float32")
        self.keys = keys
        self.values = values
        self.norms = norms
        self.subnorms = np.sqrt(subsq).astype(np.float32)
        self.norm = float(norm)

    def to_dense(self) -> DenseMatrix:
        nb = self.n_b
        br = -(-self.m // nb)
        bc = -(-self.n // nb)
        blocks = np.zeros((br, bc, nb, nb), np.float32)
        rows, cols = decode_array(self.keys)
        blocks[rows.astype(np.intp), cols.astype(np.intp)] = self.values
        out = blocks.transpose(0, 2, 1, 3).reshape(br * nb, bc * nb)
        return DenseMatrix(np.ascontiguousarray(out[: self.m, : self.n]))

    def __repr__(self) -> str:
        return (
            f"QuadtreeMatrix({self.m}x{self.n}, n_b={self.n_b}, "
            f"depth={self.depth}, leaves={self.leaf_count}, norm={self.norm:.6g})"
        )
