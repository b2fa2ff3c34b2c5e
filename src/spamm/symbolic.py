"""Symbolic multiply phase: lane ordering and pruned convolution.

The plan is built from the leaf tier's key and norm arrays.  Each operand's
leaves are ordered with one lexsort: by the contraction lane k of their
keys, then by descending norm, ties on ascending key.  Leaves sharing a k
form a k block, and matching k blocks of A and B are convolved pairwise.
Descending norm order makes the two early loop exits lossless: once a norm
product falls below tau nothing later in that loop can reach it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import QuadtreeMatrix
from .morton import c_index, k_of_a, k_of_b


@dataclass(slots=True)
class ProductTask:
    a: int                  # leaf key handle into A
    b: int                  # leaf key handle into B
    c_key: int              # product leaf key
    norm_product: float


@dataclass(slots=True)
class PlanStats:
    emitted: int = 0
    examined: int = 0
    pruned: int = 0


@dataclass
class MultiplyPlan:
    """Ordered surviving block products for one (A, B, tau)."""

    tasks: list[ProductTask]
    tau: float
    stats: PlanStats = field(default_factory=PlanStats)


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


def plan_dump(plan: MultiplyPlan) -> str:
    """Plan as text lines 'a_key b_key c_key norm_product', plan order."""
    if not plan.tasks:
        return ""
    return (
        "\n".join(
            f"{t.a} {t.b} {t.c_key} {t.norm_product:.9e}" for t in plan.tasks
        )
        + "\n"
    )


def build_plan(a: QuadtreeMatrix, b: QuadtreeMatrix, tau: float) -> MultiplyPlan:
    """Full symbolic pipeline for C = A B: tasks with norm product >= tau.

    Matching k blocks are merged; the inner loop breaks at the first product
    below tau, and when the first B entry of a block already falls below, no
    later A entry of that block can emit and the whole block pair is
    abandoned.  Norm products are float64 products of the float32 norms.
    """
    if a.n_b != b.n_b:
        raise ValueError(f"block sizes differ: {a.n_b} vs {b.n_b}")
    if a.n != b.m:
        raise ValueError(f"inner dimensions differ: {a.m}x{a.n} times {b.m}x{b.n}")
    if math.isnan(tau) or tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
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
    return MultiplyPlan(tasks, float(tau), stats)
