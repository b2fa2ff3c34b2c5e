"""Dense and quadtree matrix storage with Frobenius norms.

A QuadtreeMatrix stores an m x n single-precision matrix as n_b x n_b leaf
blocks on a 2^depth x 2^depth block grid, with zeros past m x n.  The
tree is columnar: four parallel arrays over the stored leaves in ascending
Morton key order (keys, blocks, block norms, 4x4 sub-block norms).  An
absent key means an exactly zero submatrix.  The multiply phases prune
against the block and sub-block norms; interior nodes exist only as key
arithmetic, and neither they nor the whole matrix store a norm.  All norms
are built by one routine, _store, once per tree and once per execute_plan
for its accumulator, so they are never stale, and _store makes the arrays
read-only.  Every norm follows one rule at every n_b: a 4x4 sub-block sums
its float64 squares row by row, left to right, then the four row sums top
to bottom, and a block's square is the sum of its sub-block squares.  The
sub-block sums come from one C routine of _kernel.c: a strided pass over
the dense rows in from_dense, so that it copies only the nonzero blocks,
and the kernel threads' finish of each product leaf in execute_plan.  The
block sums, the float32 rounding and the overflow check are numpy.
to_dense writes each output row once, in one C pass over the leaves.
"""

from __future__ import annotations

import numpy as np

from ._kernel import _lib, _pointer
from .morton import decode, decode_array, encode_array, transpose_keys

DEFAULT_BLOCK = 64


def _validate_block_size(n_b: int) -> None:
    if not isinstance(n_b, (int, np.integer)) or n_b < 4 or n_b & (n_b - 1):
        raise ValueError(f"block size must be a power of two of at least 4, got {n_b}")


def _subnorm_squares(values: np.ndarray, nb: int | None = None) -> np.ndarray:
    """float64 sums of squares of the 4x4 sub-blocks of n_b x n_b float32
    blocks, s = n_b / 4 to a side, added in one order at every n_b: each
    sub-block row left to right, then the four row sums top to bottom.  The
    blocks are an (L, n_b, n_b) leaf stack, giving (L, s, s), or, given nb,
    the nb x nb blocks of a (br * nb, bc * nb) dense grid, giving
    (br, bc, s, s).  Either way one strided C pass reads them in place."""
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


def _mirror_slots(keys: np.ndarray) -> np.ndarray | None:
    """The slot of each leaf's transpose among the ascending keys, as int64,
    or None when some leaf's transpose is not stored.  A leaf above the
    diagonal maps to a larger slot, one on it to itself."""
    mirror = transpose_keys(keys)
    slots = np.searchsorted(keys, mirror).clip(max=max(keys.size - 1, 0))
    return slots.astype(np.int64) if np.array_equal(keys[slots], mirror) else None


def tree_depth(m: int, n: int, n_b: int = DEFAULT_BLOCK) -> int:
    """Smallest depth d with n_b * 2^d >= max(m, n), in integer arithmetic."""
    _validate_block_size(n_b)
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m} x {n}")
    q = -(-max(m, n) // n_b)
    return (q - 1).bit_length()


def _set_once(self, name, value):
    raise AttributeError(f"{type(self).__name__}.{name} is set once, where it is made")


class DenseMatrix:
    """Dense 2-D matrix with explicit storage precision.

    Thin wrapper over a C-contiguous numpy array in float32 or float64.
    Construction checks that it is real, 2-D, nonempty and finite, and data
    is set once.  The quadtree side of the package is single precision;
    double precision exists for the oracles.
    """

    __setattr__ = _set_once

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
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.data.astype(np.float64)))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.m}x{self.n}, {self.data.dtype})"


class QuadtreeMatrix:
    """Quadtree of n_b x n_b single-precision blocks with their norms.

    Leaves sit at tier == depth, the root at tier 0 (for depth 0 the root is
    the leaf).  Logical size is m x n; rows and columns past that are
    padding and hold zeros.  Storage:

        keys      (L,) uint64, ascending leaf keys
        values    (L, n_b, n_b) float32 leaf stack, row-major blocks
        norms     (L,) float32 Frobenius norms of the leaf blocks
        subnorms  (L, n_b/4, n_b/4) float32 norms of their 4x4 sub-blocks

    The norm of the whole matrix is DenseMatrix.frobenius of to_dense.

    A tree is built whole, by from_dense, from_leaves or io.load_quadtree.
    Its attributes are set once: assigning one raises AttributeError, and
    its arrays are read-only.  They are replaced whole only by _store, and
    only when the tree is the accumulator of numeric.execute_plan, which
    stores once after its pass over the operands.  A copy or a pickle of a
    tree is rebuilt by from_leaves from its keys and values, so its arrays
    are read-only too and its norms are its own.
    """

    def __init__(self, m: int, n: int, n_b: int = DEFAULT_BLOCK):
        depth = tree_depth(m, n, n_b)  # checks the block size and the dimensions
        self.__dict__.update(m=int(m), n=int(n), n_b=int(n_b), depth=depth)
        self._store(np.empty(0, np.uint64), np.empty((0, n_b, n_b), np.float32))

    __setattr__ = _set_once

    def __reduce__(self):
        return QuadtreeMatrix.from_leaves, (self.m, self.n, self.keys, self.values, self.n_b)

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
        if not (aligned or isinstance(dense, DenseMatrix)):
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
        self, keys: np.ndarray, values: np.ndarray, subsq: np.ndarray | None = None,
        mirror: np.ndarray | None = None,
    ) -> None:
        """Install a leaf stack (keys ascending) and rebuild every norm from it.

        Sub-block norms come from the float64 square sums of the leaf
        values, block norms from the float64 sum of each block's sub-block
        squares; each is rounded to float32 once.  The sub-block square sums
        are computed here by _subnorm_squares unless the caller passes them:
        from_dense's pass over the dense rows and the gated kernel's finish
        of each C leaf form them by the same C routine.  A leaf norm that is
        not finite in float32 (a non-finite value, or finite values whose
        norm exceeds float32 max) raises OverflowError naming the leaf's
        block row and column, and leaves the tree as it was.  The stored
        keys, values, norms and subnorms are made read-only, so a stored tree
        holds only finite values: writing into one raises ValueError.

        It sets the tree's symmetry verdict (_symmetric): unknown, or, given
        mirror (the _mirror_slots of keys, for values that equal their
        transpose by construction), the outcome of the norm and sub-norm
        compare alone.
        """
        if subsq is None:
            subsq = _subnorm_squares(values)
        sq = subsq.sum(axis=(1, 2))
        with np.errstate(over="ignore"):  # a norm that overflows is named below
            norms = np.sqrt(sq).astype(np.float32)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            r, c = decode(int(keys[bad[0]]))
            raise OverflowError(
                f"leaf at block row {r}, column {c} has a norm that is not "
                "finite in float32"
            )
        subnorms = np.sqrt(subsq).astype(np.float32)
        for arr in (keys, values, norms, subnorms):
            arr.flags.writeable = False
        self.__dict__.update(keys=keys, values=values, norms=norms, subnorms=subnorms)
        self.__dict__["_symmetry"] = (None if mirror is None
                                      else self._transpose_equal(mirror, False))

    def _symmetric(self) -> bool:
        """Whether the tree equals its transpose bit for bit, norms and
        sub-norm grids included: square, every leaf's mirror stored, with the
        same norm, the transposed sub-norm grid and the transposed values.
        Decided once for the leaf stack _store installed."""
        if self._symmetry is None:
            self.__dict__["_symmetry"] = self.m == self.n and self._transpose_equal(
                _mirror_slots(self.keys), True)
        return self._symmetry

    def _transpose_equal(self, mirror: np.ndarray | None, values: bool) -> bool:
        """The symmetry test of a square tree given the _mirror_slots of its
        keys, cheapest part first: keys closed under mirroring (mirror not
        None), norms, sub-norm grids, then, with values, the leaves in one C
        pass over the stack in place, each upper leaf transposed into one
        scratch leaf and compared by its bytes."""
        if (mirror is None or not np.array_equal(self.norms[mirror], self.norms)
                or not np.array_equal(self.subnorms[mirror].transpose(0, 2, 1),
                                      self.subnorms)):
            return False
        if not values:
            return True
        nb, count = self.n_b, self.leaf_count
        scratch = np.empty((nb, nb), np.float32)  # named, so it lives through the call
        return bool(_lib.spamm_leaves_symmetric(
            count, nb, mirror.ctypes.data,
            _pointer(self.values, np.float32, (count, nb, nb), "leaf values"),
            scratch.ctypes.data))

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
        object.__setattr__(dense, "data", out)
        return dense

    def __repr__(self) -> str:
        return (
            f"QuadtreeMatrix({self.m}x{self.n}, n_b={self.n_b}, "
            f"depth={self.depth}, leaves={self.leaf_count})"
        )
