"""Reference multiplies, the recursive product oracle, and error metrics.

The double-precision classical product is the ground truth every error in
the package is measured against.  The single-precision version accumulates
in ascending k like the micro kernels do, so it is the natural baseline for
the tau = 0 exactness comparison.  recursive_spamm is the tree-walking
formulation of the pruned product and doubles as an oracle for the flat
symbolic plan: it returns the set of leaf product pairs it visited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DenseMatrix, QuadtreeMatrix
from .morton import c_index

__all__ = [
    "ErrorReport",
    "dense_multiply_double",
    "dense_multiply_single",
    "recursive_spamm",
    "max_norm_error",
    "flop_model",
    "effective_performance",
]


def dense_multiply_double(
    a: DenseMatrix,
    b: DenseMatrix,
    alpha: float = 1.0,
    beta: float = 0.0,
    c: DenseMatrix | None = None,
) -> DenseMatrix:
    """C = alpha A B + beta C, all arithmetic in float64.

    Classical product semantics on top of numpy; no tolerance, no pruning.
    """
    if a.n != b.m:
        raise ValueError(f"inner dimensions differ: {a.m}x{a.n} times {b.m}x{b.n}")
    out = np.matmul(a.data.astype(np.float64), b.data.astype(np.float64))
    if alpha != 1.0:
        out *= alpha
    if beta != 0.0:
        if c is None:
            raise ValueError("beta != 0 needs an accumulator matrix")
        if (c.m, c.n) != (a.m, b.n):
            raise ValueError(f"accumulator is {c.m}x{c.n}, product is {a.m}x{b.n}")
        out += beta * c.data.astype(np.float64)
    return DenseMatrix(out)


def dense_multiply_single(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Naive single-precision product, accumulation in ascending k."""
    if a.n != b.m:
        raise ValueError(f"inner dimensions differ: {a.m}x{a.n} times {b.m}x{b.n}")
    a32 = a.data.astype(np.float32, copy=False)
    b32 = b.data.astype(np.float32, copy=False)
    out = np.zeros((a.m, b.n), np.float32)
    buf = np.empty_like(out)
    for k in range(a.n):
        np.multiply(a32[:, k, np.newaxis], b32[k, np.newaxis, :], out=buf)
        out += buf
    return DenseMatrix(out)


def recursive_spamm(
    a: QuadtreeMatrix, b: QuadtreeMatrix, tau: float
) -> tuple[QuadtreeMatrix, set[tuple[int, int]]]:
    """Depth-first pruned product on the trees themselves.

    At every tier, each of the eight child products recurses only when the
    product of child norms reaches tau; the root product itself is gated the
    same way, so tau = inf yields an empty C and zero visits.  Leaf products
    are dense 16x16 multiplies with no 4x4 gating.  Returns C and the set of
    (a_key, b_key) leaf product pairs visited.
    """
    if np.isnan(tau) or tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if a.n_b != b.n_b:
        raise ValueError(f"block sizes differ: {a.n_b} vs {b.n_b}")
    if a.n != b.m:
        raise ValueError(f"inner dimensions differ: {a.m}x{a.n} times {b.m}x{b.n}")
    if a.depth != b.depth:
        raise ValueError(f"mismatched depths: {a.depth} vs {b.depth}")
    nb = a.n_b
    d = a.depth
    visits: set[tuple[int, int]] = set()
    out: dict[int, np.ndarray] = {}
    a_norm = [dict(zip(k.tolist(), v.tolist())) for k, v in a.tiers]
    b_norm = [dict(zip(k.tolist(), v.tolist())) for k, v in b.tiers]
    a_leaf = dict(zip(a.keys.tolist(), a.values))
    b_leaf = dict(zip(b.keys.tolist(), b.values))

    def walk(la: int, lb: int, t: int) -> None:
        if t == d:
            visits.add((la, lb))
            ck = c_index(la, lb)
            buf = out.get(ck)
            if buf is None:
                buf = np.zeros((nb, nb), np.float32)
                out[ck] = buf
            buf += np.matmul(a_leaf[la], b_leaf[lb])
            return
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    ca = (la << 2) | (i << 1) | k
                    cb = (lb << 2) | (k << 1) | j
                    norm_a = a_norm[t + 1].get(ca)
                    norm_b = b_norm[t + 1].get(cb)
                    if norm_a is None or norm_b is None or norm_a * norm_b < tau:
                        continue
                    walk(ca, cb, t + 1)

    ra = a_norm[0].get(0)
    rb = b_norm[0].get(0)
    if ra is not None and rb is not None and not (ra * rb < tau):
        walk(0, 0, 0)
    keys = sorted(out)
    values = np.array([out[k] for k in keys], np.float32).reshape(-1, nb, nb)
    return QuadtreeMatrix.from_leaves(a.m, b.n, keys, values, nb), visits


@dataclass
class ErrorReport:
    """Max-norm difference and where it happens."""

    delta: float
    row: int
    col: int


def max_norm_error(c: DenseMatrix, c_ref: DenseMatrix) -> ErrorReport:
    """max_ij |c - c_ref| with the arg max location (first on ties)."""
    if (c.m, c.n) != (c_ref.m, c_ref.n):
        raise ValueError(f"shape mismatch: {c.m}x{c.n} vs {c_ref.m}x{c_ref.n}")
    diff = np.abs(c.data.astype(np.float64) - c_ref.data.astype(np.float64))
    flat = int(np.argmax(diff))
    row, col = divmod(flat, c.n)
    return ErrorReport(float(diff[row, col]), row, col)


def flop_model(m: int, k: int, n: int) -> int:
    """Modeled flop count of a classical m x k times k x n product.

    Exact integer form m*(k*(1+2n)-n); collapses to 2n^3 when m = k = n.
    """
    if m < 1 or k < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got ({m}, {k}, {n})")
    return m * (k * (1 + 2 * n) - n)


def effective_performance(flops: int, seconds: float) -> float:
    """Modeled flops of the full problem divided by wall time."""
    if not seconds > 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    return flops / seconds
