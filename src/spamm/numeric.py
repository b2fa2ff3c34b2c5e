"""Numeric multiply phase: gated block products and the compiled stream kernel.

Work is counted in 4x4x4 micro products; one full n_b x n_b x n_b block
product is (n_b/4)^3 of them.  Each micro product is gated by the float64
product of the stored 4x4 sub-block norms: it runs when that product is at
least the gate threshold, which is tau at fine4 granularity and 0 at
coarse16.  Norms are finite and nonnegative, so a gate of 0 runs every
micro product of a planned block, and coarse16 gates at the leaf only,
through the plan's pruning of leaf norm products: the paper's 16x16 gate
when n_b = 16.  A gated-off micro product is skipped: it adds nothing, so
it cannot overflow either.

The fine4 product A B does not depend on n_b, bit for bit.  A leaf norm is
at least each of its sub-norms, so the plan never prunes a leaf pair that
holds an open micro product gate: for tau > 0 the micro products that run
are exactly those whose sub-norm product reaches tau, added in ascending k,
at any leaf size.  At tau = 0 a larger leaf also runs the products of the
zero sub-blocks it stores, which pass the 0 >= 0 gate and add zeros: the
bits stay the same, products4 may grow.  So the 4x4 gate decides the work
and the leaf only schedules it; larger leaves mean fewer tasks, plan rows
and product leaves.  C = alpha A B + beta C is laid out once, by one
np.unique over the product's keys and, when beta != 0, C's old keys, into
one uninitialised stack that the kernel call writes whole.  A kernel
thread sets a C leaf to zero, adds its tasks' products into it and then
finishes it while it is still in cache, by one expression: each
element becomes alpha S + beta old in float32, the products rounded before
the add, a side with no leaf read as +0, as where no leaf is stored, and a
term whose float64 factor is 0 as -0.  As x + (-0) = x, beta = 0 gives
exactly alpha S and alpha = 0 exactly beta old.  The leaf's sub-norm
squares go to _store.  So this too does not depend on n_b, but where
alpha < 0 and beta <= 0 make alpha (+0) + beta (+0) a -0 in a stored leaf.

Accumulation order is fixed for reproducibility: tasks accumulate into
their product leaf in plan order, and each block product adds its rank-1
terms in ascending k, as a separate float32 multiply and add.  The
executor is one C function (_kernel.c) that runs each leaf's tasks in that
order into a (G, n_b, n_b) float32 stack, one block per leaf of C.
Within a task it takes each 4-row strip as pairs of slabs, a slab being
1, 2 or 4 adjacent 4x4 C tiles held in registers.  For each pair one gate
pass over the k blocks tests every gate once into a bit per tile, counts
the products run by popcount, and lists the k blocks with any open gate
without a branch on the bits; then the pair adds its listed k blocks in
ascending order with each A element broadcast once for both slabs.  The
lone last slabs of strips with an odd number of slabs (one, at n_b = 4W)
pair up across two adjacent strips, sharing each B load.  Where only
some of the gates are open, each sum is kept only in the open tiles'
lanes by a bit select.  So every element still sees its terms in
ascending k: results match a sequential loop of gated block products bit
for bit and are identical run to run.  The slab width is chosen at run
time: _slab_tiles(n_b) is 4 tiles where the CPU has AVX-512F, 2 with AVX2,
else 1, and never more than n_b fits.  _stream_gated passes it to the one
C entry point, which lowers any wider request to it.  _SLAB_ISA names each
width's variant, and _kernel_isa(n_b) the one that runs at n_b.

The gated kernel runs on the usable cores (os.sched_getaffinity, else
os.cpu_count), at most one per product leaf, and on one thread for a plan
of fewer than _MIN_THREAD_TASKS tasks or _MIN_THREAD_PRODUCTS micro
products.  _stream_gated groups the tasks by C leaf with one stable sort,
and the threads take C's leaves from one shared counter, 16 KB of leaves
at a time, each doing all of a leaf before the next; as each leaf is
written whole by one thread in the same order, results and counters do
not depend on the thread count or on which thread takes which leaf.
The dense-leaf foil forms its block products with numpy's matmul and sums
them into a zeroed stack with a numpy add, on one thread; then the same
kernel call, with no tasks, finishes its leaves.

A symmetric square takes the mirror path: X X, or alpha X X + beta X into
X, where b is a, the tree is square and it equals its transpose bit for
bit, norms and sub-norm grids included.  The operands choose it; there is
no option.  The plan stays whole; the kernel runs only its tasks into C
leaves with block row <= column, in plan order, and the thread that
finishes each such leaf writes its transpose into the mirror leaf.  That is
the full product bit for bit: float32 products commute and both sides add
the same terms in ascending k; the plan's prune test and every 4x4 gate
decide alike on both sides, as a leaf's norm and sub-norm grid are its
mirror's, transposed; and alpha S + beta old is symmetric where old is.
products4, skipped4 and threads stay the full product's (the executor still
matches the block loop, counters included), and ExecCounters.mirrored
counts the leaves written as transposes; with alpha = 0 or an empty plan no
product runs, and nothing is mirrored.  The dense-leaf foil keeps the full path,
since its library matmul promises no transposed bits.  The symmetry verdict
(QuadtreeMatrix._symmetric) is taken once per stored leaf stack: a built or
loaded tree pays one check at its first square; a mirror-path product is
symmetric by construction and pays only the norm and sub-norm compare.

The kernel library is built and loaded by spamm._kernel.  It exports five
functions: the gated stream and finish spamm_stream_gated, its slab width
query spamm_slab_tiles, spamm_subnorm_squares and spamm_leaves_to_rows of
the conversions in core, and spamm_leaves_symmetric, the value test of the
symmetry verdict.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ._kernel import _lib, _pointer
from .core import QuadtreeMatrix, _mirror_slots
from .morton import k_of_a
from .symbolic import MultiplyPlan, _check_tau, build_plan

GRANULARITIES = ("fine4", "coarse16")

# Floats per batched matmul chunk of the dense-leaf foil: 256 KB per operand,
# so a chunk's operands, products and accumulator rows stay in cache.
_CHUNK_FLOATS = 1 << 16

# Least work for which the gated kernel starts threads: this many micro
# products (512 tasks at n_b = 16) and this many tasks (which decide at
# n_b = 64, where a second thread made plans of 8 tasks 19-28% slower and
# plans of 16 tasks 2-7% faster).
_MIN_THREAD_PRODUCTS = 512 * 64
_MIN_THREAD_TASKS = 16


# The gated-kernel variant of each slab width, in 4x4 tiles.
_SLAB_ISA = {4: "avx512f", 2: "avx2", 1: "generic"}


def _slab_tiles(nb: int) -> int:
    """Tiles per slab of the widest body this CPU runs at block size nb."""
    return _lib.spamm_slab_tiles(nb)


def _kernel_isa(nb: int) -> str:
    """The gated-kernel variant that runs at block size nb on this CPU."""
    return _SLAB_ISA[_slab_tiles(nb)]


def _slot_pointer(slots: np.ndarray, count: int, bound: int, name: str, least: int = 0) -> int:
    ptr = _pointer(slots, np.int64, (count,), name)
    if count and (slots.min() < least or slots.max() >= bound):
        raise ValueError(f"{name} holds a slot outside [{least}, {bound})")
    return ptr


def _acc_pointer(acc: np.ndarray) -> int:
    if acc.ndim != 3 or acc.shape[-1] % 4 or not acc.flags.writeable:
        raise ValueError(
            "accumulator stack must be a writable (G, n_b, n_b) array with 4 | n_b, "
            f"got shape {acc.shape}" + ("" if acc.flags.writeable else ", read-only")
        )
    nb = acc.shape[-1]
    return _pointer(acc, np.float32, (len(acc), nb, nb), "accumulator stack")


def _stream_gated(a_values, a_sub, b_values, b_sub, a_slot, b_slot, c_slot,
                  acc, gate: float, threads: int = 1, alpha: float = 1.0,
                  beta: float = 0.0, old=None, old_slot=None,
                  zero: bool = False, mirror=None) -> tuple[int, int, np.ndarray]:
    """acc[c_slot[t]] += gated A[a_slot[t]] B[b_slot[t]] for every task t in
    order, then each leaf g of acc becomes alpha acc[g] + beta
    old[old_slot[g]] in float32 (old_slot[g] = -1: no old leaf, read as
    +0; a zero factor's term is -0), on `threads` threads that take acc's
    leaves from one shared counter.  With zero, acc starts as +0 and may be
    uninitialised.  Given mirror, the slot of each leaf's transpose, a
    leaf g with mirror[g] < g runs none of its tasks and becomes the
    transpose of leaf mirror[g] once that is finished, and the products of
    a leaf g with mirror[g] > g count twice.  Returns the micro products run
    and skipped and acc's float64 (G, s, s) sub-block square sums."""
    c_ptr = _acc_pointer(acc)
    nb = acc.shape[-1]
    s = nb // 4
    la, lb, count = len(a_values), len(b_values), len(a_slot)
    if threads < 1:
        raise ValueError(f"the gated kernel needs at least one thread, got {threads}")
    if old is None:
        old = np.empty((0, nb, nb), np.float32)
    if old_slot is None:
        old_slot = np.full(len(acc), -1, np.int64)
    stacks = (
        _pointer(a_values, np.float32, (la, nb, nb), "A values"),
        _pointer(a_sub, np.float32, (la, s, s), "A subnorms"),
        _pointer(b_values, np.float32, (lb, nb, nb), "B values"),
        _pointer(b_sub, np.float32, (lb, s, s), "B subnorms"),
    )
    _slot_pointer(a_slot, count, la, "a_slot")
    _slot_pointer(b_slot, count, lb, "b_slot")
    _slot_pointer(c_slot, count, len(acc), "c_slot")
    finish = (
        _pointer(old, np.float32, (len(old), nb, nb), "old C values"),
        _slot_pointer(old_slot, len(acc), len(old), "old_slot", least=-1),
    )
    mirror_ptr = None if mirror is None else _slot_pointer(mirror, len(acc), len(acc), "mirror")
    # each leaf's tasks in stream order: leaf g runs tasks [starts[g], starts[g + 1])
    # numpy sorts a 16-bit key by radix: 0.4 ms against 2.7 ms for int64 on
    # the 46441 tasks of perfbench's square-1024 operand at n_b = 16
    key = c_slot.astype(np.uint16) if len(acc) <= 1 << 16 else c_slot
    order = np.argsort(key, kind="stable")
    a_slot, b_slot = a_slot[order], b_slot[order]
    starts = np.zeros(len(acc) + 1, np.int64)
    np.cumsum(np.bincount(c_slot, minlength=len(acc)), out=starts[1:])
    counts = np.zeros(2, np.int64)
    subsq = np.empty((len(acc), s, s), np.float64)
    _lib.spamm_stream_gated(len(acc), nb, *stacks, a_slot.ctypes.data, b_slot.ctypes.data,
                            starts.ctypes.data, c_ptr, float(gate), counts.ctypes.data,
                            threads, _slab_tiles(nb), float(alpha), float(beta), *finish,
                            int(zero), subsq.ctypes.data, mirror_ptr)
    return int(counts[0]), int(counts[1]), subsq


@dataclass(frozen=True)
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
        _check_tau(self.tau)
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")


@dataclass
class ExecCounters:
    """Work counters of one numeric pass."""

    products4: int = 0
    skipped4: int = 0
    seconds: float = 0.0
    # block-product code path: a gated-kernel variant, "matmul", or "" if none ran
    kernel: str = ""
    # threads the block-product pass ran on, 0 if none ran
    threads: int = 0
    # C leaves written as the transpose of their mirror, 0 off the mirror path
    mirrored: int = 0


def _gate(cfg: MultiplyConfig) -> float:
    """Threshold a micro product's sub-norm product must reach to run."""
    return cfg.tau if cfg.granularity == "fine4" else 0.0


def _thread_count(tasks: int, nb: int, leaves: int, wanted: int | None = None) -> int:
    """Threads of a gated pass over `tasks` block products of size nb into
    `leaves` product leaves: `wanted`, else the usable cores, or 1 below
    _MIN_THREAD_TASKS tasks or _MIN_THREAD_PRODUCTS micro products; never
    more than one per leaf."""
    if wanted is None:
        if tasks < _MIN_THREAD_TASKS or tasks * (nb // 4) ** 3 < _MIN_THREAD_PRODUCTS:
            return 1
        try:
            wanted = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            wanted = os.cpu_count() or 1
    return max(1, min(wanted, leaves))


def execute_plan(
    plan: MultiplyPlan,
    a: QuadtreeMatrix,
    b: QuadtreeMatrix,
    c: QuadtreeMatrix | None,
    cfg: MultiplyConfig,
) -> tuple[QuadtreeMatrix, ExecCounters]:
    """Run the numeric phase: C = alpha * (planned products) + beta * C.

    a and b must hold the leaf keys the plan was built from, else
    ValueError (stale handles).  C's new leaves are the product's and, if
    beta != 0, its old ones: each element is alpha S + beta old in float32,
    a missing side read as +0 and a zero factor's term as -0, formed by the
    kernel thread that summed S.
    Its norms are rebuilt once, from the sub-norm squares that thread took.
    A C leaf that overflows float32 raises OverflowError naming its block
    row and column, and c is left as it was.  With alpha = 0 the product
    pass is skipped outright (counters stay zero) and C = beta * C_before
    exactly.  A symmetric square (b is a, and beta = 0 or c is a) runs only
    the leaves on and above the diagonal and writes the rest as their
    transposes, with the same bits and counters; counters.mirrored counts
    those leaves.
    """
    return _execute(plan, a, b, c, cfg, dense_kernel=False)


def _execute(plan, a, b, c, cfg, dense_kernel, threads=None):
    """execute_plan, or with dense_kernel its dense-leaf foil; `threads`
    replaces the usable-core count of the gated kernel."""
    t0 = time.perf_counter()
    if plan.tau != cfg.tau:
        raise ValueError(f"plan built for tau={plan.tau}, config has tau={cfg.tau}")
    if a.n_b != b.n_b:
        raise ValueError(f"block sizes differ: {a.n_b} vs {b.n_b}")
    if a.n != b.m:
        raise ValueError(f"inner dimensions differ: {a.m}x{a.n} times {b.m}x{b.n}")
    nb = a.n_b
    if c is None:
        c = QuadtreeMatrix(a.m, b.n, nb)
    elif (c.m, c.n) != (a.m, b.n) or c.n_b != nb:
        raise ValueError(
            f"accumulator is {c.m}x{c.n} (n_b={c.n_b}), "
            f"product needs {a.m}x{b.n} (n_b={nb})"
        )
    if not (np.array_equal(a.keys, plan.a_keys) and np.array_equal(b.keys, plan.b_keys)):
        raise ValueError("plan was built for operands with other leaves (stale handles)")
    counters = ExecCounters()
    # C's leaves, laid out once: the product's and, when beta != 0, the old ones
    products = plan.c_key if cfg.alpha else np.empty(0, np.uint64)
    olds = c.keys if cfg.beta else np.empty(0, np.uint64)
    keys, slot = np.unique(np.concatenate((products, olds)), return_inverse=True)
    T = products.size
    old_slot = np.full(keys.size, -1, np.int64)
    old_slot[slot[T:]] = np.arange(olds.size)
    tasks = slot[:T]
    mirror = None
    if dense_kernel:  # numpy sums the foil's products; the kernel only finishes them
        stack = np.zeros((keys.size, nb, nb), np.float32)
        if T:
            _dense_products(plan, a, b, tasks, stack)
            counters.kernel, counters.threads = "matmul", 1
            counters.products4 = T * (nb // 4) ** 3
        tasks = tasks[:0]
    else:
        stack = np.empty((keys.size, nb, nb), np.float32)
        if T:  # the full path's threads, on either path
            counters.kernel = _kernel_isa(nb)
            counters.threads = _thread_count(T, nb, np.count_nonzero(np.bincount(tasks)),
                                             threads)
            # the mirror path: run the leaves on and above the diagonal only
            if b is a and (not cfg.beta or c is a) and a._symmetric():
                mirror = _mirror_slots(keys)
    if mirror is not None:
        counters.mirrored = int(np.count_nonzero(mirror < np.arange(keys.size)))
    # an overflowing product or sum is caught by _store, which names its leaf
    run, skipped, subsq = _stream_gated(
        a.values, a.subnorms, b.values, b.subnorms, plan.a_slot[:tasks.size],
        plan.b_slot[:tasks.size], tasks, stack, _gate(cfg), counters.threads or 1,
        cfg.alpha, cfg.beta, c.values, old_slot, zero=not dense_kernel, mirror=mirror)
    counters.products4 += run
    counters.skipped4 += skipped
    c._store(keys, stack, subsq, mirror=mirror)
    counters.seconds = time.perf_counter() - t0
    return c, counters


def _dense_products(plan, a, b, c_slot, acc):
    """Add every task t's block product into acc[c_slot[t]], in plan order,
    by batched matmul: one k lane (cut to a bounded chunk) at a time, on one
    thread.  A lane of a built plan adds at most one task into each product
    leaf, so one fancy-indexed add sums each leaf's products in plan order; a
    lane of a hand-made plan that repeats a leaf is added by np.add.at, in
    the same order.
    """
    nb = a.n_b
    T = c_slot.size
    lane = k_of_a(plan.a)
    step = max(1, _CHUNK_FLOATS // (nb * nb))
    cut = lane[1:] != lane[:-1]
    cut[step - 1::step] = True  # a chunk ends at a lane change and every step tasks
    bounds = [0, *(np.flatnonzero(cut) + 1).tolist(), T]
    span, seen = np.arange(step), np.empty(len(acc), np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # _store names the leaf
        for lo, hi in zip(bounds, bounds[1:]):
            prod = np.matmul(a.values[plan.a_slot[lo:hi]], b.values[plan.b_slot[lo:hi]])
            slots = c_slot[lo:hi]
            # a repeated slot keeps its last position, so its first reads back another
            seen[slots] = span[:hi - lo]
            if np.array_equal(seen[slots], span[:hi - lo]):
                acc[slots] += prod
            else:
                np.add.at(acc, slots, prod)


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
    products4 reports equivalent 4x4x4 units, (n_b/4)^3 per block product."""
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
