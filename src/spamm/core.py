"""Dense and quadtree matrix storage with hierarchical Frobenius norms.

A QuadtreeMatrix stores an m x n single-precision matrix padded up to
n_b * 2^depth and decomposed into n_b x n_b leaf blocks.  The tree is
columnar: the stored leaves form one stack in ascending Morton key order,
and every tier 0..depth is one sorted pair of (key, norm) arrays.  Child
lookup is pure key arithmetic and an absent key means an exactly zero
submatrix.  Every leaf additionally carries a grid of 4x4 sub-block norms;
those norms are what the multiply phases prune against.  All norms are
built from the leaf stack by one routine, once per tree and once per
execute_plan for its accumulator, so they are never stale.
"""

from __future__ import annotations

import numpy as np

from .morton import decode, decode_array, encode_array

DEFAULT_BLOCK = 16

# Leaves squared per pass when computing norms, keeps the float64 scratch
# bounded for large trees.
_SCAN_LEAVES = 4096


def _validate_block_size(n_b: int) -> None:
    if not isinstance(n_b, (int, np.integer)) or n_b < 1 or n_b & (n_b - 1):
        raise ValueError(f"block size must be a positive power of two, got {n_b}")


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
    """Quadtree of n_b x n_b single-precision blocks with per-node norms.

    Leaves sit at tier == depth, the root at tier 0 (for depth 0 the root is
    the leaf).  Logical size is m x n; rows and columns past that are
    padding.  Storage:

        keys      (L,) uint64, ascending leaf keys
        values    (L, n_b, n_b) float32 leaf stack, row-major blocks
        subnorms  (L, s, s) float32, s = n_b/4 (1 when 4 does not divide n_b)
        tiers     per tier t = 0..depth a (keys, norms) pair, keys ascending
                  uint64, norms float32; tiers[depth] holds the leaf norms

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
        self.padded = n_b << self.depth
        self._store(np.empty(0, np.uint64), np.empty((0, n_b, n_b), np.float32))

    # -- basic queries ---------------------------------------------------

    @property
    def norm(self) -> float:
        norms = self.tiers[0][1]
        return float(norms[0]) if norms.size else 0.0

    @property
    def leaf_count(self) -> int:
        return self.keys.size

    @property
    def node_count(self) -> int:
        return sum(keys.size for keys, _ in self.tiers)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dense(cls, dense, n_b: int = DEFAULT_BLOCK) -> QuadtreeMatrix:
        """Build the tree from a dense matrix, skipping all-zero blocks."""
        if isinstance(dense, np.ndarray):
            dense = DenseMatrix(dense)
        q = cls(dense.m, dense.n, n_b)
        br = -(-q.m // n_b)
        bc = -(-q.n // n_b)
        padded = np.zeros((br * n_b, bc * n_b), np.float32)
        with np.errstate(over="ignore"):  # _store names an overflowed leaf
            padded[: q.m, : q.n] = dense.data
        blocks = padded.reshape(br, n_b, bc, n_b).transpose(0, 2, 1, 3)
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
        m x n matrix; values are copied to float32.  All-zero leaves are
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
        outside = np.flatnonzero((rows >= -(-q.m // n_b)) | (cols >= -(-q.n // n_b)))
        if outside.size:
            key = int(keys[outside[0]])
            raise ValueError(
                f"leaf key {key} out of range: block {decode(key)} lies outside "
                f"a {q.m} x {q.n} matrix at block size {n_b}"
            )
        q._store(keys, vals)
        return q

    def _store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Install a leaf stack (keys ascending) and rebuild every norm from it.

        Leaf sub-block and block norms come from exact float64 square sums,
        interior norms from the summed square sums of their leaves; each is
        rounded to float32 once.  A norm that is not finite in float32 (a
        non-finite value, or finite values whose norm exceeds float32 max)
        raises OverflowError and leaves the tree as it was: a leaf names its
        block row and column, and otherwise the root covers every interior
        norm, since norms only grow toward it.
        """
        count = keys.size
        nb = self.n_b
        s = nb // 4 if nb % 4 == 0 else 1
        w = nb // s
        subsq = np.empty((count, s, s), np.float64)
        for lo in range(0, count, _SCAN_LEAVES):
            seg = values[lo : lo + _SCAN_LEAVES].astype(np.float64)
            seg *= seg
            subsq[lo : lo + _SCAN_LEAVES] = seg.reshape(-1, s, w, s, w).sum(axis=(2, 4))
        sq = subsq.sum(axis=(1, 2))
        with np.errstate(over="ignore"):  # a norm that overflows is named below
            tiers = [(keys, np.sqrt(sq).astype(np.float32))]
            for _ in range(self.depth):
                parents = keys >> np.uint64(2)
                first = np.ones(parents.size, bool)
                first[1:] = parents[1:] != parents[:-1]
                starts = np.flatnonzero(first)
                keys = parents[starts]
                sq = np.add.reduceat(sq, starts)
                tiers.append((keys, np.sqrt(sq).astype(np.float32)))
        leaf_keys, leaf_norms = tiers[0]
        bad = np.flatnonzero(~np.isfinite(leaf_norms))
        if bad.size:
            r, c = decode(int(leaf_keys[bad[0]]))
            raise OverflowError(
                f"leaf at block row {r}, column {c} has a norm that is not "
                "finite in float32"
            )
        if np.isinf(tiers[-1][1]).any():
            raise OverflowError("matrix norm is not finite in float32")
        self.keys = leaf_keys
        self.values = values
        self.subnorms = np.sqrt(subsq).astype(np.float32)
        self.tiers = tiers[::-1]

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
