"""Shared test helpers: tree invariant checks, brute-force oracles, a slope fit.

These deliberately reimplement package logic in the dumbest way possible
(dense scans, all-pairs loops) so the fast paths have something independent
to be compared against.
"""

from __future__ import annotations

import math

import numpy as np

from spamm.bench import RunReport
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.generators import GeneratorSpec, generate
from spamm.morton import c_index, k_of_a, k_of_b
from spamm.numeric import ExecCounters, MultiplyConfig, _gate
from spamm.symbolic import MultiplyPlan, PlanStats


def rng_matrix(m: int, n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Reproducible float32 matrix with entries in [-scale, scale)."""
    rng = np.random.default_rng(seed)
    return ((rng.random((m, n)) * 2.0 - 1.0) * scale).astype(np.float32)


def decay_matrix(n: int, seed: int = 0, kind: str = "exponential", **kw) -> DenseMatrix:
    return generate(GeneratorSpec(kind=kind, n=n, seed=seed, **kw))


def sub_norms(values: np.ndarray) -> np.ndarray:
    """float32 Frobenius norms of the 4x4 sub-blocks of one leaf block."""
    vals = values.astype(np.float64)
    s = vals.shape[0] // 4
    return np.sqrt((vals * vals).reshape(s, 4, s, 4).sum(axis=(1, 3))).astype(np.float32)


def subnorm_squares(values: np.ndarray) -> np.ndarray:
    """float64 sums of squares of the 4x4 sub-blocks of an (L, n_b, n_b) leaf
    stack, by the numpy expression the library used before its C routine."""
    s = values.shape[-1] // 4
    seg = values.astype(np.float64)
    seg *= seg
    return seg.reshape(-1, s, 4, s, 4).sum(axis=(2, 4))


def leaf_norms(q: QuadtreeMatrix) -> dict[int, float]:
    """Leaf key -> stored block norm."""
    return dict(zip(q.keys.tolist(), q.norms.tolist()))


def assert_norm_invariant(q: QuadtreeMatrix) -> None:
    """Check every stored norm against a direct scan of the leaf stack.

    Leaf keys must ascend strictly and the keys, values, norms and subnorms
    stacks agree in length.  Each block norm must equal the float32 norm of
    its values, each sub-block norm grid must equal sub_norms, and the
    matrix norm must be the float32 rounding of the float64 total of the
    leaf squares.
    """
    keys = q.keys.tolist()
    assert all(x < y for x, y in zip(keys, keys[1:])), "leaf keys not strictly ascending"
    assert q.values.shape[0] == q.norms.shape[0] == q.subnorms.shape[0] == q.keys.size
    assert q.norms.dtype == np.float32
    squares = []
    for vals, norm, sub in zip(q.values, q.norms, q.subnorms):
        v = vals.astype(np.float64)
        squares.append(float((v * v).sum()))
        assert norm == np.float32(math.sqrt(squares[-1]))
        assert np.array_equal(sub, sub_norms(vals))
    assert q.norm == float(np.float32(math.sqrt(math.fsum(squares))))


def matched_pairs(a: QuadtreeMatrix, b: QuadtreeMatrix, tau: float) -> set:
    """All-pairs oracle for the symbolic phase.

    Every (a_key, b_key) leaf pair whose contraction lanes match and whose
    float64 norm product is not below tau.
    """
    out = set()
    for ka, na in leaf_norms(a).items():
        for kb, nb in leaf_norms(b).items():
            if k_of_a(ka) != (k_of_b(kb) >> 1):
                continue
            if not (na * nb < tau):
                out.add((ka, kb))
    return out


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
    0 at coarse16) are skipped: they are not computed and leave their
    region of c untouched.  This is the sequential reference the stream
    kernel is checked against.
    """
    nb = a.shape[0]
    if b.shape[0] != nb or c.shape[0] != nb:
        raise ValueError("block sizes of a, b, c differ")
    s = nb // 4
    counters = ExecCounters()
    a4 = a.reshape(s, 4, s, 4).transpose(0, 2, 1, 3)  # [p, r, ii, kk]
    b4 = b.reshape(s, 4, s, 4).transpose(0, 2, 1, 3)  # [r, q, kk, jj]
    c4 = c.reshape(s, 4, s, 4).transpose(0, 2, 1, 3)  # [p, q, ii, jj]
    gate = _gate(cfg)
    prod = np.empty_like(c4)
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
        open_ = mask[:, :, None, None]
        for k in range(4):
            np.multiply(a4[:, r, :, k][:, None, :, None], b4[r, :, k, :][None, :, None, :],
                        out=prod, where=open_)
            np.add(c4, prod, out=c4, where=open_)
    return counters


def sequential_execute(plan, a: QuadtreeMatrix, b: QuadtreeMatrix, cfg):
    """Reference executor: one block_multiply_16 per task, plan order.

    Returns {c_key: block} and the summed counters.
    """
    a_leaves = {k: (a.values[i], a.subnorms[i]) for i, k in enumerate(a.keys.tolist())}
    b_leaves = {k: (b.values[i], b.subnorms[i]) for i, k in enumerate(b.keys.tolist())}
    out: dict[int, np.ndarray] = {}
    counters = ExecCounters()
    for ka, kb, ck in zip(plan.a.tolist(), plan.b.tolist(), plan.c_key.tolist()):
        block = out.setdefault(ck, np.zeros((a.n_b, a.n_b), np.float32))
        k = block_multiply_16(*a_leaves[ka], *b_leaves[kb], block, cfg)
        counters.products4 += k.products4
        counters.skipped4 += k.skipped4
    return out, counters


def _k_blocks(lanes: np.ndarray, q: QuadtreeMatrix):
    """Leaf slots and norms as plain lists in (k, -norm, key) order, plus
    one (k, start, stop) range per k block, ascending k."""
    norms = q.norms
    order = np.lexsort((q.keys, -norms, lanes))
    lanes = lanes[order]
    first = np.ones(lanes.size, bool)
    first[1:] = lanes[1:] != lanes[:-1]
    starts = np.flatnonzero(first)
    blocks = list(zip(lanes[starts].tolist(), starts.tolist(),
                      starts[1:].tolist() + [lanes.size]))
    return order.tolist(), norms[order].tolist(), blocks


def sequential_plan(a: QuadtreeMatrix, b: QuadtreeMatrix, tau: float) -> MultiplyPlan:
    """Reference symbolic phase: the pair-by-pair convolution loop.

    Matching k blocks are merged; the inner loop breaks at the first product
    below tau, and when the first B entry of a block already falls below, no
    later A entry of that block can emit and the whole block pair is
    abandoned.  Norm products are float64 products of the float32 norms.
    """
    a_slot, a_norm, a_blocks = _k_blocks(k_of_a(a.keys), a)
    b_slot, b_norm, b_blocks = _k_blocks(k_of_b(b.keys) >> np.uint64(1), b)
    task_a, task_b, products = [], [], []  # A slot, B slot, norm product
    stats = PlanStats()
    ia = ib = 0
    while ia < len(a_blocks) and ib < len(b_blocks):
        ka, a0, a1 = a_blocks[ia]
        kb, b0, b1 = b_blocks[ib]
        if ka < kb:
            ia += 1
            continue
        if kb < ka:
            ib += 1
            continue
        for i in range(a0, a1):
            na = a_norm[i]
            hit = False
            for j in range(b0, b1):
                p = na * b_norm[j]
                stats.examined += 1
                if p < tau:
                    stats.pruned += 1
                    break
                task_a.append(a_slot[i])
                task_b.append(b_slot[j])
                products.append(p)
                hit = True
            if not hit:
                break
        ia += 1
        ib += 1
    stats.emitted = len(products)
    return MultiplyPlan(np.array(task_a, np.int64), np.array(task_b, np.int64),
                        np.array(products, np.float64), a.keys, b.keys, float(tau), stats)


def assert_plans_equal(got: MultiplyPlan, want: MultiplyPlan) -> None:
    """Same products in the same order, norm products bit for bit, same stats."""
    for name in ("a_slot", "b_slot", "a", "b", "c_key", "norm_product"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name
    assert got.tau == want.tau
    assert got.stats == want.stats


def _tier_norms(q: QuadtreeMatrix) -> list[dict[int, float]]:
    """Node key -> norm for every tier 0..depth, built from the stored leaf
    norms: float64 sums of their squares per parent key, each rounded to
    float32 once.  Sums grow toward the root and a lone leaf's square is
    exact, so every node's norm is at least each of its children's."""
    keys, sq = q.keys, q.norms.astype(np.float64) ** 2
    tiers = [dict(zip(keys.tolist(), q.norms.tolist()))]
    for _ in range(q.depth):
        parents = keys >> np.uint64(2)
        first = np.ones(parents.size, bool)
        first[1:] = parents[1:] != parents[:-1]
        starts = np.flatnonzero(first)
        keys = parents[starts]
        sq = np.add.reduceat(sq, starts)
        tiers.append(dict(zip(keys.tolist(), np.sqrt(sq).astype(np.float32).tolist())))
    return tiers[::-1]


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
    a_norm = _tier_norms(a)
    b_norm = _tier_norms(b)
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


def fitted_slope(reports: Iterable[RunReport]) -> float:
    """Least-squares slope of log products4 vs log n over the given rows.

    Callers filter the rows (one scenario, one tau) before fitting; near 1
    means work growing linearly with n, 3 is the classical product.
    """
    pts = [(math.log(r.n), math.log(r.products4)) for r in reports if r.products4 > 0]
    if len(pts) < 2 or len({x for x, _ in pts}) < 2:
        raise ValueError("need at least two distinct sizes to fit a slope")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
