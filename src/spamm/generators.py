"""Synthetic test matrices with controlled decay.

Every generator draws element magnitudes inside a deterministic envelope:

    a_ij = sign * (0.05 + 0.9 u) * env(i, j),   u uniform in [0, 1)

so |a_ij| <= 0.95 env(i, j) and the envelope bound survives the cast to
float32.  Envelopes:

    exponential   env = c * lam**|i - j|          (0 < lam < 1)
    algebraic     env = c / (|i - j|**lam + 1)    (lam > 0)
    blocked-decay exponential decay in the block distance |bi - bj|,
                  where rows are partitioned into blocks whose sizes
                  cycle through spec.blocks
    random-dense  env = c everywhere (dense, no decay)

Generation is chunked by rows and driven by one default_rng(seed), so a
spec reproduces the same matrix on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DenseMatrix

__all__ = ["KINDS", "GeneratorSpec", "envelope", "generate"]

KINDS = ("exponential", "algebraic", "blocked-decay", "random-dense")

_CHUNK = 1024  # rows generated per batch, keeps peak memory flat


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything needed to reproduce one synthetic matrix."""

    kind: str
    n: int
    lam: float = 0.5
    c: float = 1.0
    blocks: tuple[int, ...] = ()
    seed: int = 0
    symmetrize: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.kind in ("exponential", "blocked-decay"):
            if not 0.0 < self.lam < 1.0:
                raise ValueError(f"{self.kind} needs 0 < lam < 1, got {self.lam}")
        elif self.kind == "algebraic":
            if not self.lam > 0.0:
                raise ValueError(f"algebraic decay needs lam > 0, got {self.lam}")
        if self.kind == "blocked-decay":
            if not self.blocks:
                raise ValueError("blocked-decay needs a nonempty block size list")
            if any(int(b) != b or b < 1 for b in self.blocks):
                raise ValueError(f"block sizes must be positive integers, got {self.blocks}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _block_index_map(n: int, blocks: tuple[int, ...]) -> np.ndarray:
    """Block id per row index, block sizes cycling through `blocks`."""
    ids = np.empty(n, np.int64)
    pos = 0
    bid = 0
    while pos < n:
        size = int(blocks[bid % len(blocks)])
        ids[pos : pos + size] = bid
        pos += size
        bid += 1
    return ids


def envelope(spec: GeneratorSpec, i, j) -> np.ndarray:
    """Decay envelope env(i, j), float64, broadcasting over i and j;
    ValueError for an index outside [0, spec.n)."""
    i = np.asarray(i, np.int64)
    j = np.asarray(j, np.int64)
    for x in (i, j):
        if x.size and (x.min() < 0 or x.max() >= spec.n):
            raise ValueError(f"envelope indices must lie in [0, {spec.n})")
    if spec.kind == "random-dense":
        return np.broadcast_to(np.float64(spec.c), np.broadcast_shapes(i.shape, j.shape)).copy()
    if spec.kind == "blocked-decay":
        ids = _block_index_map(spec.n, spec.blocks)
        d = np.abs(ids[i] - ids[j]).astype(np.float64)
    else:
        d = np.abs(i - j).astype(np.float64)
    if spec.kind == "algebraic":
        return spec.c / (d**spec.lam + 1.0)
    return spec.c * np.power(spec.lam, d)


def generate(spec: GeneratorSpec) -> DenseMatrix:
    """Materialize the matrix for `spec` as single precision."""
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    out = np.empty((n, n), np.float32)
    cols = np.arange(n, dtype=np.int64)[np.newaxis, :]
    for r0 in range(0, n, _CHUNK):
        r1 = min(r0 + _CHUNK, n)
        rows = np.arange(r0, r1, dtype=np.int64)[:, np.newaxis]
        env = envelope(spec, rows, cols)
        u = rng.random((r1 - r0, n))
        sign = rng.integers(0, 2, (r1 - r0, n)).astype(np.float64) * 2.0 - 1.0
        out[r0:r1] = sign * (0.05 + 0.9 * u) * env
    if spec.symmetrize:
        _mirror_upper(out)
    return DenseMatrix(out)


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle onto the lower, in place, blockwise."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"cannot symmetrize a {a.shape[0]}x{a.shape[1]} matrix")
    for r0 in range(0, n, _CHUNK):
        r1 = min(r0 + _CHUNK, n)
        a[r0:r1, :r0] = a[:r0, r0:r1].T
        blk = a[r0:r1, r0:r1]
        iu, ju = np.triu_indices(r1 - r0, 1)
        blk[ju, iu] = blk[iu, ju]
