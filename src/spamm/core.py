"""Dense and quadtree matrix storage with Frobenius norms.

A QuadtreeMatrix stores an m x n single-precision matrix as n_b x n_b leaf
blocks on a 2^depth x 2^depth block grid, with zeros past m x n.  The
tree is columnar: four parallel arrays over the stored leaves in ascending
Morton key order (keys, blocks, block norms, 4x4 sub-block norms) plus the
norm of the whole matrix.  An absent key means an exactly zero submatrix.
The multiply phases prune against the block and sub-block norms; interior
nodes exist only as key arithmetic and store no norms.  All norms are
built by one routine, _store, once per tree and once per execute_plan for
its accumulator, so they are never stale, and _store makes the arrays
read-only.  The float64 sub-block square sums come from one C routine of
_kernel.c: a strided pass over the dense rows in from_dense, so that it
copies only the nonzero blocks, and the kernel threads' finish of each
product leaf in execute_plan.  The block and matrix norms, their float32
rounding and the overflow checks are numpy.  to_dense writes each output
row once, in one C pass over the leaves.
"""

from __future__ import annotations

import numpy as np

from ._kernel import _lib, _pointer
from .morton import decode, decode_array, encode_array

DEFAULT_BLOCK = 64


def _validate_block_size(n_b: int) -> None:
    if not isinstance(n_b, (int, np.integer)) or n_b < 4 or n_b & (n_b - 1):
        raise ValueError(f"block size must be a power of two of at least 4, got {n_b}")


def _subnorm_squares(values: np.ndarray, nb: int | None = None) -> np.ndarray:
    """float64 sums of squares of the 4x4 sub-blocks of n_b x n_b float32
    blocks, added in the order of numpy's sum(axis=(2, 4)) over each block's
    squares as (s, 4, s, 4), s = n_b / 4.  The blocks are an (L, n_b, n_b)
    leaf stack, giving (L, s, s), or, given nb, the nb x nb blocks of a
    (br * nb, bc * nb) dense grid, giving (br, bc, s, s).  Either way one
    strided C pass reads them in place."""
    if nb is None:  # a leaf stack is a grid one block wide
        rows, cols, nb = len(values), 1, values.shape[-1]
        shape, name, lead = (rows, nb, nb), "leaf values", (rows,)
    else:
        rows, cols = (d // nb for d in values.shape[:2])
        shape, name, lead = (rows * nb, cols * nb), "dense grid", (rows, cols)
    out = np.empty(lead + (nb // 4, nb // 4), np.float64)
    _lib.spamm_subnorm_squares(
        rows, cols, nb, cols * nb, _pointer(values, np.float32, shape, name),
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
    Construction checks that it is real, 2-D, nonempty and finite.  The
    quadtree side of the package is single precision; double precision
    exists for the oracles.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.ascontiguousarray(data)
        if np.iscomplexobj(arr):
            raise ValueError("matrix elements must be real, got a complex array")
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
    Its arrays are read-only; they are replaced whole only by _store, and
    only when the tree is the accumulator of numeric.execute_plan, which
    stores once after its pass over the operands.
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
        """Build the tree from a dense matrix, skipping all-zero blocks.

        One strided pass over the float32 rows gives every block's sub-block
        square sums; a block is stored when their total is nonzero (the
        square of a float32 subnormal is still nonzero in float64, that of
        -0 is +0), and only those blocks are copied.  A float32 ndarray whose
        sides are multiples of n_b is read in place, and checked finite
        through those sums, a non-finite element making its sum non-finite;
        other input is checked as a DenseMatrix and first cast into one
        zero-padded float32 grid.
        """
        _validate_block_size(n_b)
        aligned = (isinstance(dense, np.ndarray) and dense.dtype == np.float32
                   and dense.ndim == 2 and dense.size > 0
                   and not (dense.shape[0] % n_b or dense.shape[1] % n_b))
        if isinstance(dense, np.ndarray) and not aligned:
            dense = DenseMatrix(dense)
        data = np.ascontiguousarray(dense) if aligned else dense.data
        q = cls(*data.shape, n_b)
        br = -(-q.m // n_b)
        bc = -(-q.n // n_b)
        grid = data
        if grid.dtype != np.float32 or grid.shape != (br * n_b, bc * n_b):
            grid = np.zeros((br * n_b, bc * n_b), np.float32)
            with np.errstate(over="ignore"):  # _store names an overflowed leaf
                grid[: q.m, : q.n] = data
        subsq = _subnorm_squares(grid, n_b)
        if aligned and not np.isfinite(subsq).all():
            raise ValueError("matrix elements must be finite")
        bi, bj = np.nonzero(subsq.any(axis=(2, 3)))
        keys = encode_array(bi, bj)
        order = np.argsort(keys)
        bi, bj = bi[order], bj[order]
        q._store(keys[order], grid.reshape(br, n_b, bc, n_b)[bi, :, bj, :], subsq[bi, bj])
        return q

    @classmethod
    def from_leaves(
        cls, m: int, n: int, keys, values, n_b: int = DEFAULT_BLOCK
    ) -> QuadtreeMatrix:
        """Build the tree from ascending leaf keys and their n_b x n_b blocks.

        Keys must be unique, ascending and inside the block grid of an
        m x n matrix, and the padding rows and columns of the edge leaves
        must be zero; values must be real and are copied to float32.
        All-zero leaves are kept as given.  ValueError names the first leaf,
        by position, whose key is out of range or not above the one before;
        a leaf not finite in float32 raises _store's OverflowError.
        """
        q = cls(m, n, n_b)
        raw = np.asarray(keys)
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
            raise ValueError("leaf keys must be a 1-D array of integers")
        if raw.size and raw.min() < 0:
            raise ValueError(f"leaf key {raw.min()} is negative")
        keys = raw.astype(np.uint64)
        if np.iscomplexobj(values):
            raise ValueError("leaf values must be real, got a complex array")
        with np.errstate(over="ignore"):  # _store names an overflowed leaf
            vals = np.array(values, np.float32)
        if vals.shape != (keys.size, n_b, n_b):
            raise ValueError(
                f"leaf values must be {keys.size} x {n_b} x {n_b}, got {vals.shape}"
            )
        rows, cols = decode_array(keys)
        br = -(-q.m // n_b)
        bc = -(-q.n // n_b)
        outside = (rows >= br) | (cols >= bc)
        bad = np.flatnonzero(outside | np.append(False, keys[1:] <= keys[:-1]))
        if bad.size:
            i, key = bad[0], int(keys[bad[0]])
            raise ValueError(
                f"leaf key {key} at position {i} out of range: block {decode(key)} lies "
                f"outside a {q.m} x {q.n} matrix at block size {n_b}" if outside[i] else
                f"leaf keys must be unique and ascending: key {key} at position {i} "
                f"follows {int(keys[i - 1])}"
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

    def _store(
        self, keys: np.ndarray, values: np.ndarray, subsq: np.ndarray | None = None
    ) -> None:
        """Install a leaf stack (keys ascending) and rebuild every norm from it.

        Sub-block and block norms come from exact float64 square sums of the
        leaf values, the matrix norm from the float64 total of the block
        square sums; each is rounded to float32 once.  The sub-block square
        sums are computed here by _subnorm_squares unless the caller passes
        them: from_dense's pass over the dense rows and the gated kernel's
        finish of each C leaf form them by the same C routine.  A norm that
        is not finite in float32 (a non-finite value, or finite values whose
        norm exceeds float32 max) raises OverflowError and leaves the tree as
        it was: a leaf names its block row and column, and a matrix norm that
        overflows with every leaf norm finite names the matrix.  The stored
        keys, values, norms and subnorms are made read-only, so a stored tree
        holds only finite values: writing into one raises ValueError.
        """
        if subsq is None:
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
        subnorms = np.sqrt(subsq).astype(np.float32)
        for arr in (keys, values, norms, subnorms):
            arr.flags.writeable = False
        self.keys = keys
        self.values = values
        self.norms = norms
        self.subnorms = subnorms
        self.norm = float(norm)

    def to_dense(self) -> DenseMatrix:
        """The matrix as dense float32 rows, each written once: one C pass
        copies every n_b-wide piece of a row from its leaf, or sets it to +0
        where no leaf is stored.  The values are not checked again, since
        _store refused every non-finite leaf and stored them read-only."""
        nb = self.n_b
        index = np.full((-(-self.m // nb), -(-self.n // nb)), -1, np.int64)
        rows, cols = (x.astype(np.intp) for x in decode_array(self.keys))
        index[rows, cols] = np.arange(self.leaf_count)
        out = np.empty((self.m, self.n), np.float32)
        _lib.spamm_leaves_to_rows(
            self.m, self.n, nb, index.ctypes.data,
            _pointer(self.values, np.float32, (self.leaf_count, nb, nb), "leaf values"),
            out.ctypes.data)
        dense = DenseMatrix.__new__(DenseMatrix)
        dense.data = out
        return dense

    def __repr__(self) -> str:
        return (
            f"QuadtreeMatrix({self.m}x{self.n}, n_b={self.n_b}, "
            f"depth={self.depth}, leaves={self.leaf_count}, norm={self.norm:.6g})"
        )
