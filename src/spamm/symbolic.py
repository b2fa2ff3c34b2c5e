"""Symbolic multiply phase: lane ordering and a vectorized pruned search.

The plan is built from the leaf tier's key and norm arrays.  Each operand's
leaves are ordered with one lexsort: by the contraction lane k of their
keys, then by descending norm, ties on ascending key.  Leaves sharing a k
form a lane, and matching lanes of A and B are searched together: for each
A leaf of a lane, the B leaves whose norm product reaches tau form a prefix
of the B lane, because the norms descend.  One searchsorted per lane finds
every prefix length, and the lane ends at its first A leaf with an empty
prefix, since no later, smaller A norm can reach tau either.

The plan is columnar: one entry per surviving block product, in the order
of the lanes (ascending k), their A leaves and their B leaves, each leaf
named by its slot in its operand's leaf arrays, as the lane sort found it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import QuadtreeMatrix
from .morton import c_index, k_of_a, k_of_b


@dataclass(slots=True)
class ProductTask:
    """One row of a plan."""

    a: int                  # leaf key handle into A
    b: int                  # leaf key handle into B
    c_key: int              # product leaf key
    norm_product: float


@dataclass(slots=True)
class PlanStats:
    """The search build_plan ran: the block products it examined, and those
    it pruned (one per A leaf whose B prefix stopped short).  The plan's
    row count is a_slot.size; neither field is recounted when
    PlanTasks.remove deletes a row."""

    examined: int = 0
    pruned: int = 0


@dataclass(eq=False, frozen=True)
class MultiplyPlan:
    """Ordered surviving block products for one (A, B, tau).

    a_slot and b_slot are int64 slots into a_keys and b_keys, the leaf key
    arrays of the operands the plan was built from (held, not copied), and
    norm_product the float64 product of the stored A and B leaf norms.  The
    uint64 keys a, b and c_key of A, B and the product are derived.  A plan
    is checked where it is made and set once: assigning a field raises
    AttributeError, and the three arrays are stored read-only.
    dataclasses.replace makes an edited plan, checked again.  The check
    holds a plan to its tau as far as the plan alone can: no row's
    norm_product is below tau, and a plan at tau = 0 pruned nothing, so an
    edited copy cannot claim the exactness of tau = 0.  Lowering tau to
    another positive value stays undetectable without the operands.
    """

    a_slot: np.ndarray
    b_slot: np.ndarray
    norm_product: np.ndarray
    a_keys: np.ndarray
    b_keys: np.ndarray
    tau: float
    stats: PlanStats = field(default_factory=PlanStats)

    def __post_init__(self):
        """Raise ValueError unless the arrays are 1-D of one length, the
        slots are int64 slots into a_keys and b_keys, and the rows and stats
        fit tau as above."""
        arrays = (self.a_slot, self.b_slot, self.norm_product)
        if (not all(isinstance(x, np.ndarray) and x.ndim == 1 for x in arrays)
                or len({x.size for x in arrays}) > 1):
            raise ValueError("plan arrays a_slot, b_slot and norm_product must be 1-D "
                             f"of one length, got shapes {[np.shape(x) for x in arrays]}")
        for name, slots, keys in (("a_slot", self.a_slot, self.a_keys),
                                  ("b_slot", self.b_slot, self.b_keys)):
            if slots.dtype != np.int64 or (
                    slots.size and (slots.min() < 0 or slots.max() >= keys.size)):
                raise ValueError(f"{name} must hold int64 slots in [0, {keys.size})")
        _check_tau(self.tau)
        if self.norm_product.size and self.norm_product.min() < self.tau:
            raise ValueError(f"plan rows must have norm products of at least tau={self.tau}, "
                             f"got {self.norm_product.min()}")
        if self.tau == 0 and self.stats.pruned:
            raise ValueError(f"a plan at tau=0 prunes nothing, got pruned={self.stats.pruned}")
        for x in arrays:
            x.flags.writeable = False

    a = property(lambda self: self.a_keys[self.a_slot])
    b = property(lambda self: self.b_keys[self.b_slot])
    c_key = property(lambda self: c_index(self.a, self.b))

    @property
    def tasks(self) -> PlanTasks:
        """The plan's products as ProductTask rows."""
        return PlanTasks(self)


class PlanTasks:
    """Row view of a plan's arrays; remove() deletes a row from the plan."""

    def __init__(self, plan: MultiplyPlan):
        self._plan = plan

    def __len__(self) -> int:
        return self._plan.a_slot.size

    def __iter__(self):
        p = self._plan
        return map(ProductTask, p.a.tolist(), p.b.tolist(), p.c_key.tolist(),
                   p.norm_product.tolist())

    def remove(self, task: ProductTask) -> None:
        """Delete the first row with task's a, b and norm_product, else ValueError."""
        p = self._plan
        hit = np.flatnonzero((p.a == np.uint64(task.a)) & (p.b == np.uint64(task.b))
                             & (p.norm_product == task.norm_product))
        if hit.size == 0:
            raise ValueError(f"{task} is not in the plan")
        for name in ("a_slot", "b_slot", "norm_product"):  # every slot stays valid
            object.__setattr__(p, name, np.delete(getattr(p, name), hit[0]))
            getattr(p, name).flags.writeable = False


def _check_tau(tau: float) -> None:
    """Raise ValueError unless tau is a nonnegative number."""
    if math.isnan(tau) or tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")


def _lanes(lanes: np.ndarray, q: QuadtreeMatrix):
    """Leaf slots and float64 norms in (k, -norm, key) order, plus each lane's
    k and [start, stop) range, ascending k."""
    norms = q.norms
    order = np.lexsort((q.keys, -norms, lanes))
    lanes = lanes[order]
    first = np.ones(lanes.size, bool)
    first[1:] = lanes[1:] != lanes[:-1]
    starts = np.flatnonzero(first)
    stops = np.append(starts[1:], lanes.size)
    return order, norms[order].astype(np.float64), lanes[starts], starts, stops


def _prefix_lengths(na: np.ndarray, nb: np.ndarray, tau: float) -> np.ndarray:
    """For each A norm of na, the number of leading B norms of the
    descending nb whose float64 product with it is at least tau.

    A float32 times a float32 is exact in float64, so a product reaches tau
    exactly when the B norm reaches the exact quotient tau / na.  Rounding
    is monotone and every B norm is a float64, so a norm that reaches the
    exact quotient also reaches the rounded one: searchsorted against the
    rounded quotient can only take in too much, namely the ties of the one
    norm the quotient rounded down onto (the zero norms, when tau / na
    underflows to 0).  One exact product test at the cut drops them.  A zero
    A norm reaches tau only at tau = 0, where every count is len(nb).
    """
    neg = -nb
    with np.errstate(over="ignore"):  # an infinite quotient lies past every norm
        quotient = np.divide(tau, na, out=np.full(na.shape, math.inf if tau else 0.0),
                             where=na > 0)
    count = np.searchsorted(neg, -quotient, side="right")
    last = np.maximum(count - 1, 0)
    over = (count > 0) & (na * nb[last] < tau)
    count[over] = np.searchsorted(neg, neg[last[over]], side="left")
    return count


def build_plan(a: QuadtreeMatrix, b: QuadtreeMatrix, tau: float) -> MultiplyPlan:
    """Full symbolic pipeline for C = A B: products with norm product >= tau.

    Each A leaf of a lane pairs with the prefix of the lane's B leaves that
    reaches tau.  The lane stops after its first A leaf whose prefix is
    empty.  A leaf whose prefix is shorter than its B lane counts one
    pruned product, the first one below tau; examined counts the emitted
    and the pruned products.  Norm products are float64 products of the
    float32 norms.
    """
    if a.n_b != b.n_b:
        raise ValueError(f"block sizes differ: {a.n_b} vs {b.n_b}")
    if a.n != b.m:
        raise ValueError(f"inner dimensions differ: {a.m}x{a.n} times {b.m}x{b.n}")
    _check_tau(tau)
    a_order, a_norm, a_k, a_start, a_stop = _lanes(k_of_a(a.keys), a)
    b_order, b_norm, b_k, b_start, b_stop = _lanes(k_of_b(b.keys) >> np.uint64(1), b)
    _, ia, ib = np.intersect1d(a_k, b_k, assume_unique=True, return_indices=True)
    parts = [(np.empty(0, np.int64),) * 3]  # A positions, prefix lengths, B starts
    pruned = 0
    for i, j in zip(ia.tolist(), ib.tolist()):
        a0, b0, b1 = a_start[i], b_start[j], b_stop[j]
        count = _prefix_lengths(a_norm[a0:a_stop[i]], b_norm[b0:b1], tau)
        count = count[:np.count_nonzero(count) + 1]  # through the first empty prefix
        pruned += int(np.count_nonzero(count < b1 - b0))
        parts.append((np.arange(a0, a0 + count.size), count, np.full(count.size, b0)))
    rows, count, first = map(np.concatenate, zip(*parts))
    total = int(count.sum())
    a_pos = np.repeat(rows, count)
    # B position of each product: its lane's B start plus its place in the row
    b_pos = np.arange(total) + np.repeat(first - (np.cumsum(count) - count), count)
    stats = PlanStats(examined=total + pruned, pruned=pruned)
    return MultiplyPlan(a_order[a_pos], b_order[b_pos], a_norm[a_pos] * b_norm[b_pos],
                        a.keys, b.keys, float(tau), stats)
