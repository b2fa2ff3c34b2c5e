"""Shared test helpers: tree invariant checks and brute-force oracles.

These deliberately reimplement package logic in the dumbest way possible
(dense scans, all-pairs loops) so the fast paths have something independent
to be compared against.
"""

from __future__ import annotations

import numpy as np

from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.generators import GeneratorSpec, generate
from spamm.morton import k_of_a, k_of_b
from spamm.numeric import ExecCounters, block_multiply_16


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
    for t in plan.tasks:
        block = out.setdefault(t.c_key, np.zeros((a.n_b, a.n_b), np.float32))
        k = block_multiply_16(*a_leaves[t.a], *b_leaves[t.b], block, cfg)
        counters.products4 += k.products4
        counters.skipped4 += k.skipped4
    return out, counters
