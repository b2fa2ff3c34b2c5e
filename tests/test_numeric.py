"""Numeric phase: block products, gating, batched executor, counters, scaling."""

import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import (
    LEAF_SIZES,
    assert_norm_invariant,
    bench_purification_start,
    block_multiply_16,
    decay_matrix,
    rng_matrix,
    sequential_execute,
    sub_norms,
)
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.numeric import (
    GRANULARITIES,
    ExecCounters,
    MultiplyConfig,
    _kernel_isa,
    execute_plan,
    execute_plan_dense_leaf,
    multiply,
)
from spamm.reference import dense_multiply_single
from spamm.symbolic import MultiplyPlan, build_plan


def _leaf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, 4x4 sub-block norms) of one block, as block_multiply_16 takes them."""
    return values, sub_norms(values)


def _rand_leaf(seed: int, nb: int = 16, scale: float = 1.0):
    return _leaf(rng_matrix(nb, nb, seed=seed, scale=scale))


# -- single block products -----------------------------------------------

def test_block_product_equals_naive_single_precision():
    a, b = _rand_leaf(2), _rand_leaf(3)
    c = np.zeros((16, 16), np.float32)
    counters = block_multiply_16(*a, *b, c, MultiplyConfig(tau=0.0))
    want = dense_multiply_single(DenseMatrix(a[0]), DenseMatrix(b[0]))
    assert np.array_equal(c, want.data)
    assert counters.products4 == 64 and counters.skipped4 == 0


def test_block_product_coarse_equals_fine_at_tau_zero():
    a, b = _rand_leaf(4), _rand_leaf(5)
    c1, c2 = np.zeros((16, 16), np.float32), np.zeros((16, 16), np.float32)
    block_multiply_16(*a, *b, c1, MultiplyConfig(tau=0.0, granularity="fine4"))
    block_multiply_16(*a, *b, c2, MultiplyConfig(tau=0.0, granularity="coarse16"))
    assert np.array_equal(c1, c2)


def test_block_product_single_live_subblock():
    av = np.zeros((16, 16), np.float32)
    bv = np.zeros((16, 16), np.float32)
    av[:4, :4] = rng_matrix(4, 4, seed=6)
    bv[:4, :4] = rng_matrix(4, 4, seed=7)
    c = np.zeros((16, 16), np.float32)
    counters = block_multiply_16(*_leaf(av), *_leaf(bv), c, MultiplyConfig(tau=1e-30))
    assert counters.products4 == 1
    assert counters.skipped4 == 63
    want = av.astype(np.float64) @ bv.astype(np.float64)
    assert np.abs(c - want).max() < 1e-5


def test_block_product_gating_skips_small_work():
    av, a_sub = _rand_leaf(8)
    bv = rng_matrix(16, 16, seed=9)
    bv[8:, :] *= 1e-7  # bottom half of B nearly zero => k sub-blocks 2,3 tiny
    b_sub = sub_norms(bv)
    c = np.zeros((16, 16), np.float32)
    tau = 1e-4
    counters = block_multiply_16(av, a_sub, bv, b_sub, c, MultiplyConfig(tau=tau))
    assert counters.products4 + counters.skipped4 == 64
    assert counters.skipped4 >= 32
    # every executed or skipped decision must follow the norm product rule
    want = np.zeros((16, 16), np.float32)
    cw = want.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
    a4 = av.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
    b4 = bv.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
    for r in range(4):
        for p in range(4):
            for q in range(4):
                if float(a_sub[p, r]) * float(b_sub[r, q]) >= tau:
                    for k in range(4):  # rank-1 updates in ascending k
                        cw[p, q] += a4[p, r][:, k, None] * b4[r, q][k, None, :]
    assert np.array_equal(c, want)


def test_block_multiply_shape_validation():
    with pytest.raises(ValueError):
        block_multiply_16(*_rand_leaf(0), *_rand_leaf(1, nb=8),
                          np.zeros((16, 16), np.float32), MultiplyConfig())


# -- config validation -------------------------------------------------------

def test_multiply_config_validation():
    assert GRANULARITIES == ("fine4", "coarse16")
    with pytest.raises(ValueError):
        MultiplyConfig(granularity="dense16")
    with pytest.raises(ValueError):
        MultiplyConfig(tau=-1.0)
    with pytest.raises(ValueError):
        MultiplyConfig(tau=float("nan"))
    with pytest.raises(ValueError):
        MultiplyConfig(alpha=float("inf"))
    with pytest.raises(ValueError):
        MultiplyConfig(beta=float("nan"))


def test_counters_accounting():
    assert ExecCounters() == ExecCounters(0, 0, 0.0)
    for nb in LEAF_SIZES:
        a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=10).data, nb)
        plan = build_plan(a, a, 1e-6)
        _, counters = execute_plan(plan, a, a, None, MultiplyConfig(tau=1e-6))
        assert counters.products4 + counters.skipped4 == (a.n_b // 4) ** 3 * len(plan.tasks)
        assert counters.seconds > 0
        assert counters.kernel == _kernel_isa(a.n_b)
        _, counters = execute_plan_dense_leaf(plan, a, a, None)
        assert counters.kernel == "matmul"
        # no block product runs: no kernel is named
        _, _, counters = multiply(a, a, MultiplyConfig(alpha=0.0, beta=1.0), c=a)
        assert counters == ExecCounters(0, 0, counters.seconds, "")
    empty = QuadtreeMatrix(64, 64)
    _, _, counters = multiply(empty, empty)
    assert counters == ExecCounters(0, 0, counters.seconds, "")
    _, counters = execute_plan_dense_leaf(build_plan(empty, empty, 0.0), empty, empty, None)
    assert counters == ExecCounters(0, 0, counters.seconds, "")


# -- plan execution ----------------------------------------------------------

@pytest.mark.parametrize("tau,granularity", [
    (0.0, "fine4"), (0.0, "coarse16"),
    (1e-6, "fine4"), (1e-6, "coarse16"),
    (1e-3, "fine4"),
])
def test_batched_matches_sequential_bitwise(tau, granularity):
    for nb in LEAF_SIZES:
        a = QuadtreeMatrix.from_dense(decay_matrix(96, seed=11, lam=0.3).data, nb)
        b = QuadtreeMatrix.from_dense(decay_matrix(96, seed=12, lam=0.4).data, nb)
        cfg = MultiplyConfig(tau=tau, granularity=granularity)
        plan = build_plan(a, b, tau)
        c, counters = execute_plan(plan, a, b, None, cfg)
        want, want_counters = sequential_execute(plan, a, b, cfg)
        got = dict(zip(c.keys.tolist(), c.values))
        assert set(got) == set(want)
        for key, vals in want.items():
            assert np.array_equal(got[key], vals), f"c leaf {key} differs"
        assert counters.products4 == want_counters.products4
        assert counters.skipped4 == want_counters.skipped4


def test_tau_zero_multiply_equals_naive_single_dense():
    a = rng_matrix(64, 64, seed=13)
    b = rng_matrix(64, 64, seed=14)
    for nb in LEAF_SIZES:
        qa, qb = QuadtreeMatrix.from_dense(a, nb), QuadtreeMatrix.from_dense(b, nb)
        c, plan, counters = multiply(qa, qb)
        want = dense_multiply_single(DenseMatrix(a), DenseMatrix(b))
        assert np.array_equal(c.to_dense().data, want.data)
        assert counters.products4 == (qa.n_b // 4) ** 3 * len(plan.tasks)
        assert counters.skipped4 == 0


def test_tau_zero_multiply_nb8_equals_naive_single_dense():
    a = rng_matrix(24, 40, seed=15)
    b = rng_matrix(40, 16, seed=16)
    qa = QuadtreeMatrix.from_dense(a, 8)
    qb = QuadtreeMatrix.from_dense(b, 8)
    c, _, _ = multiply(qa, qb)
    want = dense_multiply_single(DenseMatrix(a), DenseMatrix(b))
    assert (c.m, c.n) == (24, 16)
    assert np.array_equal(c.to_dense().data, want.data)


def test_counter_conservation_under_gating():
    for nb in LEAF_SIZES:
        a = QuadtreeMatrix.from_dense(decay_matrix(128, seed=17).data, nb)
        plan = build_plan(a, a, 1e-5)
        _, counters = execute_plan(plan, a, a, None, MultiplyConfig(tau=1e-5))
        per_task = (a.n_b // 4) ** 3
        assert counters.products4 + counters.skipped4 == per_task * len(plan.tasks)
        assert counters.products4 < per_task * len(plan.tasks)  # decay => some gating
        _, coarse = execute_plan(plan, a, a, None,
                                 MultiplyConfig(tau=1e-5, granularity="coarse16"))
        assert coarse.skipped4 == 0
        assert coarse.products4 == per_task * len(plan.tasks)


def test_result_norms_are_fresh():
    for nb in LEAF_SIZES:
        a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=18).data, nb)
        c, _, _ = multiply(a, a, MultiplyConfig(tau=1e-7))
        assert_norm_invariant(c)


def test_task_order_across_c_keys_is_free():
    for nb in LEAF_SIZES:
        a = QuadtreeMatrix.from_dense(decay_matrix(96, seed=19, lam=0.35).data, nb)
        plan = build_plan(a, a, 1e-7)
        cfg = MultiplyConfig(tau=1e-7)
        base, _ = execute_plan(plan, a, a, None, cfg)
        # permute whole c_key groups, keeping order inside each group
        keys = np.unique(plan.c_key)
        group_rank = np.random.default_rng(20).permutation(keys.size)
        order = np.argsort(group_rank[np.searchsorted(keys, plan.c_key)], kind="stable")
        assert not np.array_equal(order, np.arange(order.size))
        permuted = MultiplyPlan(plan.a_slot[order], plan.b_slot[order], plan.norm_product[order],
                                a.keys, a.keys, plan.tau, plan.stats)
        perm, _ = execute_plan(permuted, a, a, None, cfg)
        assert np.array_equal(base.to_dense().data, perm.to_dense().data)


def test_removing_a_task_row_drops_exactly_that_product():
    a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=23).data, 16)
    plan = build_plan(a, a, 0.0)
    rows = list(plan.tasks)
    gone = rows[5]
    plan.tasks.remove(gone)
    kept = rows[:5] + rows[6:]
    assert list(plan.tasks) == kept
    assert len(plan.tasks) == len(kept)
    with pytest.raises(ValueError, match="not in the plan"):
        plan.tasks.remove(gone)
    cfg = MultiplyConfig()
    c, counters = execute_plan(plan, a, a, None, cfg)
    assert counters.products4 == 64 * len(kept)
    leaves = dict(zip(a.keys.tolist(), zip(a.values, a.subnorms)))
    want: dict[int, np.ndarray] = {}
    for t in kept:
        block = want.setdefault(t.c_key, np.zeros((16, 16), np.float32))
        block_multiply_16(*leaves[t.a], *leaves[t.b], block, cfg)
    assert c.keys.tolist() == sorted(want)
    for key, vals in zip(c.keys.tolist(), c.values):
        assert np.array_equal(vals.view(np.uint32), want[key].view(np.uint32))
    full, _ = execute_plan(build_plan(a, a, 0.0), a, a, None, cfg)
    changed = [k for k, x, y in zip(c.keys.tolist(), c.values, full.values)
               if not np.array_equal(x, y)]
    assert full.keys.tolist() == c.keys.tolist() and changed == [gone.c_key]


def _scaled(dense_leaf: bool, plan, a, c, alpha: float, beta: float):
    """alpha A A + beta C and its counters, from the gated executor or the
    dense-leaf foil."""
    if dense_leaf:
        return execute_plan_dense_leaf(plan, a, a, c, alpha, beta)
    return execute_plan(plan, a, a, c, MultiplyConfig(alpha=alpha, beta=beta))


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint32)  # so -0.0 differs from +0.0


def test_alpha_scaling_and_beta_accumulation():
    # each element is alpha P + beta C0 in float32, each product rounded
    # first, a side with no leaf read as +0, so the zeros' signs match too;
    # P is the executor's own product, gated kernel and dense-leaf foil
    zero_row = rng_matrix(128, 128, seed=20)
    zero_row[0] = 0  # the product's leaves along block row 0 hold exact zeros
    corner = rng_matrix(128, 128, seed=22)
    corner[:64] = corner[:, :64] = 0  # C0 has no leaf beside them
    cases = [(decay_matrix(64, seed=21).data, rng_matrix(64, 64, seed=22), 2.0, 0.5),
             (zero_row, corner, -1.0, 2.0)]
    for dense_leaf, nb, (a_dense, c0_dense, alpha, beta) in itertools.product(
            (False, True), LEAF_SIZES, cases):
        a = QuadtreeMatrix.from_dense(a_dense, nb)
        plan = build_plan(a, a, 0.0)
        p = _scaled(dense_leaf, plan, a, None, 1.0, 0.0)[0].to_dense().data
        doubled, _ = _scaled(dense_leaf, plan, a, None, 2.0, 0.0)
        assert np.array_equal(_bits(doubled.to_dense().data), _bits(np.float32(2) * p))
        c0 = QuadtreeMatrix.from_dense(c0_dense, nb)
        mixed, _ = _scaled(dense_leaf, plan, a, c0, alpha, beta)
        want = np.float32(alpha) * p + np.float32(beta) * c0_dense
        assert np.array_equal(_bits(mixed.to_dense().data), _bits(want))


def test_alpha_zero_skips_the_product_pass():
    # no product is formed: C = beta C exactly, a zero's sign included, and
    # at beta = 0 C has no leaves; gated kernel and dense-leaf foil alike
    c0_dense = rng_matrix(64, 64, seed=24)
    c0_dense[::3] = -0.0
    c0_dense[1::3, ::2] = 0.0
    for dense_leaf, nb, beta in itertools.product((False, True), LEAF_SIZES, (1.0, -1.0, 0.0)):
        a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=23).data, nb)
        c0 = QuadtreeMatrix.from_dense(c0_dense, nb)
        plan = build_plan(a, a, 0.0)
        out, counters = _scaled(dense_leaf, plan, a, c0, 0.0, beta)
        assert counters.products4 == 0 and counters.skipped4 == 0
        if beta:
            want = np.float32(beta) * c0_dense
            assert np.array_equal(_bits(out.to_dense().data), _bits(want))
        else:
            assert out.leaf_count == 0 and out.norm == 0


def test_accumulator_path_holds_about_one_leaf_stack():
    # C is laid out once and finished in place: the peak is its leaf stack and
    # its norm arrays (1.32x measured), on the purification step C = 2 X - X X
    # with C = X
    x = QuadtreeMatrix.from_dense(bench_purification_start(1024, seed=0), 64)
    stack = x.values.nbytes
    cfg = MultiplyConfig(tau=1e-8, alpha=-1.0, beta=2.0)
    plan = build_plan(x, x, cfg.tau)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out, _ = execute_plan(plan, x, x, x, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.values.nbytes == stack
    assert peak < 1.4 * stack


def test_beta_zero_discards_accumulator_content():
    for nb in LEAF_SIZES:
        a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=25).data, nb)
        plan = build_plan(a, a, 0.0)
        fresh, _ = execute_plan(plan, a, a, None, MultiplyConfig())
        dirty = QuadtreeMatrix.from_dense(rng_matrix(64, 64, seed=26), nb)
        wiped, _ = execute_plan(plan, a, a, dirty, MultiplyConfig())
        assert wiped is dirty
        assert np.array_equal(wiped.to_dense().data, fresh.to_dense().data)
        assert np.array_equal(wiped.keys, fresh.keys)


def test_beta_one_with_empty_plan_keeps_accumulator():
    c0_dense = rng_matrix(32, 32, seed=27)
    c0 = QuadtreeMatrix.from_dense(c0_dense)
    empty = QuadtreeMatrix(32, 32)
    plan = build_plan(empty, empty, 0.0)
    out, _ = execute_plan(plan, empty, empty, c0, MultiplyConfig(beta=1.0))
    assert np.array_equal(out.to_dense().data, c0_dense)


def test_stale_plan_handles_are_rejected():
    a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=28).data, 16)
    plan = build_plan(a, a, 0.0)
    base, _ = execute_plan(plan, a, a, None, MultiplyConfig())
    # the same leaf keys in another tree: the plan runs and gives the same bits
    twin = QuadtreeMatrix.from_leaves(64, 64, a.keys.copy(), a.values, 16)
    for x, y in ((twin, twin), (a, twin), (twin, a)):
        c, _ = execute_plan(plan, x, y, None, MultiplyConfig())
        assert np.array_equal(c.keys, base.keys)
        assert np.array_equal(c.values.view(np.uint32), base.values.view(np.uint32))
    # lacks a leaf the plan still references
    stale = QuadtreeMatrix.from_leaves(64, 64, a.keys[1:], a.values[1:], 16)
    with pytest.raises(ValueError, match="stale"):
        execute_plan(plan, stale, stale, None, MultiplyConfig())
    with pytest.raises(ValueError, match="stale"):
        execute_plan(plan, a, stale, None, MultiplyConfig())
    # holds every leaf the plan references, and one more
    with pytest.raises(ValueError, match="stale"):
        execute_plan(build_plan(stale, stale, 0.0), a, a, None, MultiplyConfig())
    b = QuadtreeMatrix(64, 64, 16)
    with pytest.raises(ValueError, match="stale"):
        execute_plan(plan, b, b, None, MultiplyConfig())
    with pytest.raises(ValueError, match="stale"):
        execute_plan_dense_leaf(plan, b, b, None)
    # a slot outside its key array fails where the plan is made
    for a_slot, b_slot in ((plan.a_slot + a.leaf_count, plan.b_slot),
                           (plan.a_slot, plan.b_slot - a.leaf_count)):
        with pytest.raises(ValueError, match=r"slots in \[0, 16\)"):
            MultiplyPlan(a_slot, b_slot, plan.norm_product, a.keys, a.keys, 0.0)
    with pytest.raises(ValueError, match="int64 slots"):
        MultiplyPlan(plan.a_slot.astype(np.int32), plan.b_slot, plan.norm_product,
                     a.keys, a.keys, 0.0)


@pytest.mark.parametrize("dense", [False, True], ids=["gated", "dense-leaf"])
def test_reassigned_plan_arrays_are_rejected_before_a_slot_is_read(dense):
    a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=28).data, 16)  # 16 leaves
    cases = (
        ("a_slot", lambda v: v + 100, r"a_slot must hold int64 slots in \[0, 16\)"),
        ("b_slot", lambda v: v - 100, r"b_slot must hold int64 slots in \[0, 16\)"),
        ("b_slot", lambda v: v.astype(np.int32), "int64 slots"),
        ("norm_product", lambda v: v[1:], "one length"),
        ("a_slot", lambda v: v.tolist(), "1-D"),
    )
    for name, corrupt, match in cases:
        plan = build_plan(a, a, 0.0)
        setattr(plan, name, corrupt(getattr(plan, name)))
        with pytest.raises(ValueError, match=match):
            if dense:
                execute_plan_dense_leaf(plan, a, a, None)
            else:
                execute_plan(plan, a, a, None, MultiplyConfig())


def test_execute_plan_validation():
    a = QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=29))
    plan = build_plan(a, a, 1e-8)
    with pytest.raises(ValueError, match="tau"):
        execute_plan(plan, a, a, None, MultiplyConfig(tau=1e-6))
    plan0 = build_plan(a, a, 0.0)
    with pytest.raises(ValueError, match="accumulator"):
        execute_plan(plan0, a, a, QuadtreeMatrix(16, 16), MultiplyConfig())
    with pytest.raises(ValueError, match="one length"):
        MultiplyPlan(plan0.a_slot, plan0.b_slot[1:], plan0.norm_product, a.keys, a.keys, 0.0)
    with pytest.raises(ValueError, match="block size must be a power of two of at least 4"):
        QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=30), 2)


@pytest.mark.parametrize("m,k,n,nb,tau,alpha,beta", [
    (64, 64, 64, 16, 1e-7, 1.0, 0.0),
    (64, 64, 64, 16, 1e-7, -1.0, 2.0),
    *[(m, k, n, nb, tau, 1.0, 0.0)
      for m, k, n in ((200, 72, 300), (40, 260, 24))
      for nb in (4, 8, 16, 32) for tau in (0.0, 1e-3)],
])
def test_dense_leaf_executor_matches_matmul_accumulation(m, k, n, nb, tau, alpha, beta):
    # the foil adds a k lane's products at once: each leaf must still see
    # them in plan order, so the bits (-0.0 included) are the per-task loop's
    dense = decay_matrix(max(m, k, n), seed=31).data
    a = QuadtreeMatrix.from_dense(dense[:m, :k], nb)
    b = QuadtreeMatrix.from_dense(dense[:k, :n], nb)
    old = QuadtreeMatrix.from_dense(dense[:m, :n], nb)
    plan = build_plan(a, b, tau)
    c = QuadtreeMatrix.from_dense(dense[:m, :n], nb) if beta else None
    c, counters = execute_plan_dense_leaf(plan, a, b, c, alpha, beta)
    assert counters.products4 == (nb // 4) ** 3 * len(plan.tasks)
    assert counters.skipped4 == 0
    a_leaves = dict(zip(a.keys.tolist(), a.values))
    b_leaves = dict(zip(b.keys.tolist(), b.values))
    sums: dict[int, np.ndarray] = {}
    for t in plan.tasks:
        buf = sums.setdefault(t.c_key, np.zeros((nb, nb), np.float32))
        buf += np.matmul(a_leaves[t.a], b_leaves[t.b])
    want = {key: np.float32(alpha) * s for key, s in sums.items()}
    if beta:
        for key, v in zip(old.keys.tolist(), old.values):
            scaled = np.float32(beta) * v
            want[key] = want[key] + scaled if key in want else scaled
    got = dict(zip(c.keys.tolist(), c.values))
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(got[key].view(np.uint32), want[key].view(np.uint32))


def test_dense_leaf_adds_a_repeated_leaf_of_a_lane_in_plan_order():
    # a hand-made plan may run one product twice in a lane: both must count
    a = QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=35), 16)  # keys 0..3
    plan = MultiplyPlan(np.array([0, 0, 1]), np.array([0, 0, 2]), np.zeros(3),
                        a.keys, a.keys, 0.0)
    c, _ = execute_plan_dense_leaf(plan, a, a, None)
    want = np.zeros((16, 16), np.float32)
    for i, j in ((0, 0), (0, 0), (1, 2)):
        want += np.matmul(a.values[i], a.values[j])
    assert c.keys.tolist() == [0]
    assert np.array_equal(c.values[0].view(np.uint32), want.view(np.uint32))


def test_dense_leaf_close_to_gated_kernels():
    a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=32).data)
    c1, plan, k1 = multiply(a, a, MultiplyConfig(tau=0.0, granularity="coarse16"))
    c2, k2 = execute_plan_dense_leaf(plan, a, a, None)
    assert k1.products4 == k2.products4
    scale = float(np.abs(c1.to_dense().data).max())
    assert np.abs(c1.to_dense().data - c2.to_dense().data).max() <= 1e-5 * max(scale, 1.0)


def test_leaves_built_by_key_multiply_like_from_dense():
    # two 16x16 leaves placed by key in a 32x32 tree
    vals = np.stack([rng_matrix(16, 16, seed=33), rng_matrix(16, 16, seed=34)])
    built = QuadtreeMatrix.from_leaves(32, 32, [0, 3], vals, 16)
    dense = np.zeros((32, 32), np.float32)
    dense[:16, :16], dense[16:, 16:] = vals
    ref = QuadtreeMatrix.from_dense(dense, 16)
    for tau in (0.0, 1e-2):
        got, _, k_got = multiply(built, built, MultiplyConfig(tau=tau))
        want, _, k_want = multiply(ref, ref, MultiplyConfig(tau=tau))
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.values.view(np.uint32), want.values.view(np.uint32))
        assert (k_got.products4, k_got.skipped4) == (k_want.products4, k_want.skipped4)


@pytest.mark.filterwarnings("error")
def test_overflowing_product_names_the_leaf():
    a = QuadtreeMatrix.from_dense(np.eye(32, dtype=np.float32) * 1e30)
    c0 = QuadtreeMatrix.from_dense(rng_matrix(32, 32, seed=35))
    before = c0.values.copy()
    with pytest.raises(OverflowError, match="block row 0, column 0"):
        multiply(a, a)
    with pytest.raises(OverflowError, match="block row 0, column 0"):
        multiply(a, a, MultiplyConfig(beta=1.0), c0)
    assert np.array_equal(c0.values, before)  # accumulator untouched


def _overflow_pair(b00: float):
    """A 32x32 times B 32x32, one leaf each: A at block (1, 0), B at (0, 1).

    Leaf norms near 1e20 keep the one task in a plan at tau = 1e39.  In k
    sub-block 0, micro product (p, q) = (0, 0) is a[0, 0] b[0, 0] = 2e19 * b00
    with a gate of the same value, and the three others are open (gates of
    2e39 and 1e40) but add only a[4, 2] b[2, 4] = 1e20, because their other
    nonzero factors meet zeros.
    """
    av = np.zeros((16, 16), np.float32)
    bv = np.zeros((16, 16), np.float32)
    av[0, 0], av[4, 1], av[4, 2] = 2e19, 1e20, 1.0
    bv[0, 0], bv[2, 4] = b00, 1e20
    a = QuadtreeMatrix.from_leaves(32, 32, [2], av[None], 16)  # block (1, 0)
    b = QuadtreeMatrix.from_leaves(32, 32, [1], bv[None], 16)  # block (0, 1)
    return a, b


@pytest.mark.filterwarnings("error")
def test_gated_off_overflowing_product_is_skipped():
    a, b = _overflow_pair(2e19)  # 4e38: overflows float32, gate 4e38 < tau
    cfg = MultiplyConfig(tau=1e39)
    c, plan, counters = multiply(a, b, cfg)
    assert len(plan.tasks) == 1
    assert (counters.products4, counters.skipped4) == (3, 61)
    assert np.isfinite(c.values).all()
    assert c.values[0, 4, 4] == np.float32(1e20)
    want, want_counters = sequential_execute(plan, a, b, cfg)
    assert c.keys.tolist() == sorted(want)
    assert np.array_equal(c.values[0].view(np.uint32), want[c.keys[0]].view(np.uint32))
    assert (want_counters.products4, want_counters.skipped4) == (3, 61)


@pytest.mark.filterwarnings("error")
def test_open_overflowing_product_names_the_leaf():
    a, b = _overflow_pair(1e20)  # 2e39: overflows float32, gate 2e39 >= tau
    with pytest.raises(OverflowError, match="block row 1, column 1"):
        multiply(a, b, MultiplyConfig(tau=1e39))
