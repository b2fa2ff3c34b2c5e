"""Numeric multiply phase: gated block products and batched plan execution.

Work is counted in 4x4x4 micro products; one full 16x16x16 block product is
64 of them.  Each micro product is gated by the float64 product of the
stored 4x4 sub-block norms: it runs when that product is at least the gate
threshold, which is tau at fine4 granularity and 0 at coarse16.  Norms are
finite and nonnegative, so a gate of 0 runs every micro product of a
planned block.

Accumulation order is fixed for reproducibility: tasks accumulate into
their product leaf in plan order, and each block product adds its rank-1
terms in ascending k.  The batched executor keeps one (G, n_b, n_b) float32
stack, one block per product leaf, and reproduces that order bit for bit
(it only vectorizes across distinct product leaves), so results match a
sequential block_multiply_16 loop exactly and are identical run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import QuadtreeMatrix
from .symbolic import MultiplyPlan, build_plan

GRANULARITIES = ("fine4", "coarse16")


@dataclass
class MultiplyConfig:
    tau: float = 0.0
    granularity: str = "fine4"
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}"
            )
        if np.isnan(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")


@dataclass
class ExecCounters:
    """Work counters of one numeric pass."""

    products4: int = 0
    skipped4: int = 0
    seconds: float = 0.0


def _gate(cfg: MultiplyConfig) -> float:
    """Threshold a micro product's sub-norm product must reach to run."""
    return cfg.tau if cfg.granularity == "fine4" else 0.0


def block_multiply_16(
    a: np.ndarray,
    a_sub: np.ndarray,
    b: np.ndarray,
    b_sub: np.ndarray,
    c: np.ndarray,
    cfg: MultiplyConfig,
) -> ExecCounters:
    """Accumulate one block product a b into the float32 block c in place.

    a_sub and b_sub are the 4x4 sub-block norms of a and b.  Micro
    products whose sub-norm product is below the gate (cfg.tau at fine4,
    0 at coarse16) are skipped and leave their region of c untouched.
    This is the sequential reference the batched executor is checked
    against.
    """
    nb = a.shape[0]
    if b.shape[0] != nb or c.shape[0] != nb:
        raise ValueError("block sizes of a, b, c differ")
    if nb % 4:
        raise ValueError(f"numeric phase needs 4 | n_b, got n_b = {nb}")
    s = nb // 4
    counters = ExecCounters()
    a4 = a.reshape(s, 4, s, 4).transpose(0, 2, 1, 3)  # [p, r, ii, kk]
    b4 = b.reshape(s, 4, s, 4).transpose(0, 2, 1, 3)  # [r, q, kk, jj]
    c4 = c.reshape(s, 4, s, 4).transpose(0, 2, 1, 3)  # [p, q, ii, jj]
    gate = _gate(cfg)
    for r in range(s):
        pn = (
            a_sub[:, r].astype(np.float64)[:, None]
            * b_sub[r, :].astype(np.float64)[None, :]
        )
        mask = pn >= gate
        nexec = int(mask.sum())
        counters.products4 += nexec
        counters.skipped4 += mask.size - nexec
        if nexec == 0:
            continue
        mf = None if nexec == mask.size else mask.astype(np.float32)[:, :, None, None]
        for k in range(4):
            prod = a4[:, r, :, k][:, None, :, None] * b4[r, :, k, :][None, :, None, :]
            if mf is not None:
                prod *= mf
            c4 += prod
    return counters


def _gather_slots(keys: np.ndarray, stored: np.ndarray, side: str) -> np.ndarray:
    if stored.size == 0:
        raise ValueError(f"plan references leaves but {side} has none (stale handles)")
    slots = np.searchsorted(stored, keys)
    slots_c = np.minimum(slots, stored.size - 1)
    if not np.array_equal(stored[slots_c], keys):
        raise ValueError(f"plan references leaves not stored in {side} (stale handles)")
    return slots_c


def execute_plan(
    plan: MultiplyPlan,
    a: QuadtreeMatrix,
    b: QuadtreeMatrix,
    c: QuadtreeMatrix | None,
    cfg: MultiplyConfig,
) -> tuple[QuadtreeMatrix, ExecCounters]:
    """Run the numeric phase: C = alpha * (planned products) + beta * C.

    C leaves are allocated on demand and zero initialized; C norms are
    recomputed once after the pass.  A C leaf that overflows float32
    raises OverflowError naming its block row and column, and c is left
    as it was.  With alpha = 0 the product pass is skipped outright
    (counters stay zero) and C = beta * C_before exactly.
    """
    return _execute(plan, a, b, c, cfg, dense_kernel=False)


def _execute(plan, a, b, c, cfg, dense_kernel):
    t0 = time.perf_counter()
    if plan.tau != cfg.tau:
        raise ValueError(f"plan built for tau={plan.tau}, config has tau={cfg.tau}")
    if a.n_b != b.n_b:
        raise ValueError(f"block sizes differ: {a.n_b} vs {b.n_b}")
    if a.n != b.m:
        raise ValueError(f"inner dimensions differ: {a.m}x{a.n} times {b.m}x{b.n}")
    nb = a.n_b
    if nb % 4:
        raise ValueError(f"numeric phase needs 4 | n_b, got n_b = {nb}")
    if c is None:
        c = QuadtreeMatrix(a.m, b.n, nb)
    elif (c.m, c.n) != (a.m, b.n) or c.n_b != nb:
        raise ValueError(
            f"accumulator is {c.m}x{c.n} (n_b={c.n_b}), "
            f"product needs {a.m}x{b.n} (n_b={nb})"
        )
    counters = ExecCounters()
    # an overflowing product or sum is caught by _store, which names its leaf
    with np.errstate(over="ignore", invalid="ignore"):
        if plan.tasks and cfg.alpha != 0:
            keys, stack = _run_batched(plan.tasks, a, b, cfg, counters, dense_kernel)
        else:
            keys, stack = np.empty(0, np.uint64), np.empty((0, nb, nb), np.float32)
        leaves = _compose(c, keys, stack, cfg.alpha, cfg.beta)
    c._store(*leaves)
    counters.seconds = time.perf_counter() - t0
    return c, counters


def _run_batched(tasks, a, b, cfg, counters, dense_kernel):
    """Accumulate all tasks into per-c_key float32 blocks; returns the
    ascending product keys and their (G, n_b, n_b) block stack.

    Tasks are grouped by c_key (stable, so plan order survives inside each
    group) and walked by in-group position; each pass updates at most one
    task per group, which keeps every leaf's accumulation strictly in plan
    order while the arithmetic runs batched across groups.  A pass adds the
    rank-1 terms of its block products in ascending k, each masked by the
    4x4 gate of its k sub-block when that gate is only partly open.
    """
    nb = a.n_b
    s = nb // 4
    T = len(tasks)
    akeys = np.fromiter((t.a for t in tasks), np.uint64, T)
    bkeys = np.fromiter((t.b for t in tasks), np.uint64, T)
    ckeys = np.fromiter((t.c_key for t in tasks), np.uint64, T)
    a_slot = _gather_slots(akeys, a.keys, "A")
    b_slot = _gather_slots(bkeys, b.keys, "B")

    order = np.argsort(ckeys, kind="stable")
    ck_s = ckeys[order]
    as_s = a_slot[order]
    bs_s = b_slot[order]
    new_group = np.r_[True, ck_s[1:] != ck_s[:-1]]
    starts = np.flatnonzero(new_group)
    gid = np.cumsum(new_group) - 1
    pos_in_group = np.arange(T, dtype=np.int64) - starts[gid]
    n_pass = int(pos_in_group.max()) + 1

    gate = _gate(cfg)
    acc = np.zeros((starts.size, nb, nb), np.float32)
    for sl in range(n_pass):
        sel = np.flatnonzero(pos_in_group == sl)
        rows = gid[sel]
        av = a.values[as_s[sel]]
        bv = b.values[bs_s[sel]]
        local = acc[rows]
        if dense_kernel:
            local += np.matmul(av, bv)
            counters.products4 += sel.size * s * s * s
            acc[rows] = local
            continue
        an = a.subnorms[as_s[sel]].astype(np.float64)  # [g, p, r]
        bn = b.subnorms[bs_s[sel]].astype(np.float64)  # [g, r, q]
        prod = np.empty_like(local)
        for r in range(s):
            mask = an[:, :, r, None] * bn[:, None, r, :] >= gate  # [g, p, q]
            nexec = int(mask.sum())
            counters.products4 += nexec
            counters.skipped4 += mask.size - nexec
            if nexec == 0:
                continue
            mf = None
            if nexec < mask.size:
                mf = np.repeat(np.repeat(mask.astype(np.float32), 4, 1), 4, 2)
            for k in range(4 * r, 4 * r + 4):
                np.multiply(av[:, :, k, None], bv[:, None, k, :], out=prod)
                if mf is not None:
                    prod *= mf
                local += prod
        acc[rows] = local
    return ck_s[starts], acc


def _compose(c: QuadtreeMatrix, keys: np.ndarray, stack: np.ndarray,
             alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """New C leaves alpha * stack + beta * old, exact scaling in float32.

    Returns ascending keys and their blocks.  A leaf present on one side
    only is that side's scaled block, with no added zero.
    """
    if alpha != 1:
        stack = np.float32(alpha) * stack
    if beta == 0:
        return keys, stack
    old = c.values * np.float32(beta) if beta != 1 else c.values
    merged = np.union1d(c.keys, keys)
    out = np.empty((merged.size,) + stack.shape[1:], np.float32)
    out[np.searchsorted(merged, c.keys)] = old
    slots = np.searchsorted(merged, keys)
    shared = np.isin(keys, c.keys)
    out[slots[~shared]] = stack[~shared]
    out[slots[shared]] = stack[shared] + out[slots[shared]]
    return merged, out


def execute_plan_dense_leaf(
    plan: MultiplyPlan,
    a: QuadtreeMatrix,
    b: QuadtreeMatrix,
    c: QuadtreeMatrix | None,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> tuple[QuadtreeMatrix, ExecCounters]:
    """Execute a plan with unconditional dense leaf products (library
    matmul kernel), the benchmark foil for the gated micro kernels.
    products4 reports equivalent 4x4x4 units, 64 per block product."""
    cfg = MultiplyConfig(tau=plan.tau, granularity="coarse16", alpha=alpha, beta=beta)
    return _execute(plan, a, b, c, cfg, dense_kernel=True)


def multiply(
    a: QuadtreeMatrix,
    b: QuadtreeMatrix,
    cfg: MultiplyConfig | None = None,
    c: QuadtreeMatrix | None = None,
) -> tuple[QuadtreeMatrix, MultiplyPlan, ExecCounters]:
    """Symbolic plus numeric phases in one call."""
    if cfg is None:
        cfg = MultiplyConfig()
    plan = build_plan(a, b, cfg.tau)
    out, counters = execute_plan(plan, a, b, c, cfg)
    return out, plan, counters
