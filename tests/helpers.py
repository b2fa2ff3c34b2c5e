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
from spamm.numeric import ExecCounters, block_multiply_16
from spamm.symbolic import MultiplyPlan, PlanStats, ProductTask


def rng_matrix(m: int, n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Reproducible float32 matrix with entries in [-scale, scale)."""
    rng = np.random.default_rng(seed)
    return ((rng.random((m, n)) * 2.0 - 1.0) * scale).astype(np.float32)


def decay_matrix(n: int, seed: int = 0, kind: str = "exponential", **kw) -> DenseMatrix:
    return generate(GeneratorSpec(kind=kind, n=n, seed=seed, **kw))


def sub_norms(values: np.ndarray) -> np.ndarray:
    """float32 Frobenius norms of the 4x4 sub-blocks of one leaf block,
    1x1 when 4 does not divide the block size."""
    vals = values.astype(np.float64)
    nb = vals.shape[0]
    s = nb // 4 if nb % 4 == 0 else 1
    w = nb // s
    return np.sqrt((vals * vals).reshape(s, w, s, w).sum(axis=(1, 3))).astype(np.float32)


def leaf_norms(q: QuadtreeMatrix) -> dict[int, float]:
    """Leaf key -> stored block norm."""
    keys, norms = q.tiers[q.depth]
    return dict(zip(keys.tolist(), norms.tolist()))


def assert_norm_invariant(q: QuadtreeMatrix, rel: float = 1e-6) -> None:
    """Check every stored norm against its children, and tree reachability.

    Interior: norm^2 must equal the sum of the children's norm^2 within
    rel * norm^2.  Leaves: the block norm must match the float32 norm of
    the values, the sub-block norms must match a direct dense scan, and the
    squared block norm must match the squared sub-norm sum within rel.
    Every node must be reachable from the root, every tier's keys sorted
    and unique, and the leaf tier must index the leaf and subnorm stacks.
    """
    d = q.depth
    assert len(q.tiers) == d + 1
    nodes = {}
    for t, (keys, norms) in enumerate(q.tiers):
        assert keys.shape == norms.shape
        assert keys.tolist() == sorted(set(keys.tolist())), f"tier {t} keys unordered"
        for key, norm in zip(keys.tolist(), norms.tolist()):
            nodes[(t, key)] = norm
    assert q.keys.tolist() == q.tiers[d][0].tolist()
    assert q.values.shape[0] == q.subnorms.shape[0] == q.keys.size
    leaf = dict(zip(q.keys.tolist(), range(q.keys.size)))
    seen = 0
    for (t, key), norm in nodes.items():
        seen += 1
        if t > 0:
            assert (t - 1, key >> 2) in nodes, f"orphan node at tier {t} key {key}"
        if t < d:
            s2 = 0.0
            for quad in range(4):
                ch = nodes.get((t + 1, (key << 2) | quad))
                if ch is not None:
                    s2 += float(ch) ** 2
            n2 = float(norm) ** 2
            assert abs(n2 - s2) <= rel * max(n2, s2), (
                f"tier {t} key {key}: norm^2 {n2} vs child sum {s2}"
            )
        else:
            vals = q.values[leaf[key]].astype(np.float64)
            direct = np.float32(np.sqrt((vals * vals).sum()))
            assert norm == float(direct)
            sub = sub_norms(q.values[leaf[key]])
            assert np.array_equal(q.subnorms[leaf[key]], sub)
            n2 = float(norm) ** 2
            s2 = float((sub.astype(np.float64) ** 2).sum())
            assert abs(n2 - s2) <= rel * max(n2, s2, 1e-300)
    assert seen == q.node_count


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
    """Leaf keys and norms as plain lists in (k, -norm, key) order, plus
    one (k, start, stop) range per k block, ascending k."""
    keys, norms = q.tiers[q.depth]
    order = np.lexsort((keys, -norms, lanes))
    lanes = lanes[order]
    first = np.ones(lanes.size, bool)
    first[1:] = lanes[1:] != lanes[:-1]
    starts = np.flatnonzero(first)
    blocks = list(zip(lanes[starts].tolist(), starts.tolist(),
                      starts[1:].tolist() + [lanes.size]))
    return keys[order].tolist(), norms[order].tolist(), blocks


def sequential_plan(a: QuadtreeMatrix, b: QuadtreeMatrix, tau: float) -> MultiplyPlan:
    """Reference symbolic phase: the pair-by-pair convolution loop.

    Matching k blocks are merged; the inner loop breaks at the first product
    below tau, and when the first B entry of a block already falls below, no
    later A entry of that block can emit and the whole block pair is
    abandoned.  Norm products are float64 products of the float32 norms.
    """
    a_key, a_norm, a_blocks = _k_blocks(k_of_a(a.keys), a)
    b_key, b_norm, b_blocks = _k_blocks(k_of_b(b.keys) >> np.uint64(1), b)
    tasks: list[ProductTask] = []
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
            key_a = a_key[i]
            na = a_norm[i]
            hit = False
            for j in range(b0, b1):
                p = na * b_norm[j]
                stats.examined += 1
                if p < tau:
                    stats.pruned += 1
                    break
                tasks.append(ProductTask(key_a, b_key[j], c_index(key_a, b_key[j]), p))
                hit = True
            if not hit:
                break
        ia += 1
        ib += 1
    stats.emitted = len(tasks)
    return MultiplyPlan(
        np.array([t.a for t in tasks], np.uint64),
        np.array([t.b for t in tasks], np.uint64),
        np.array([t.c_key for t in tasks], np.uint64),
        np.array([t.norm_product for t in tasks], np.float64),
        float(tau), stats,
    )


def assert_plans_equal(got: MultiplyPlan, want: MultiplyPlan) -> None:
    """Same products in the same order, norm products bit for bit, same stats."""
    for name in ("a", "b", "c_key", "norm_product"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name
    assert got.tau == want.tau
    assert got.stats == want.stats


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
