"""Symbolic phase: lane and norm order, pruned convolution, plan text."""

import warnings

import numpy as np
import pytest

from helpers import (
    assert_plans_equal,
    decay_matrix,
    leaf_norms,
    matched_pairs,
    rng_matrix,
    sequential_execute,
    sequential_plan,
)
from spamm.core import QuadtreeMatrix
from spamm.morton import c_index, encode, encode_array
from spamm.numeric import MultiplyConfig, execute_plan
from spamm.reference import dense_multiply_single
from spamm.symbolic import build_plan, plan_dump


def _block_constant(layout: dict[tuple[int, int], float], n: int = 32) -> QuadtreeMatrix:
    """Matrix of constant 16x16 blocks; block (i, j) filled with layout value."""
    a = np.zeros((n, n), np.float32)
    for (bi, bj), v in layout.items():
        a[16 * bi : 16 * (bi + 1), 16 * bj : 16 * (bj + 1)] = v
    return QuadtreeMatrix.from_dense(a)


def _leaf_tree(norms: dict[tuple[int, int], float], n: int = 64, nb: int = 4):
    """Tree whose leaf (i, j) holds one element, so its norm is exactly the
    given value."""
    a = np.zeros((n, n), np.float32)
    for (bi, bj), v in norms.items():
        a[nb * bi, nb * bj] = v
    return QuadtreeMatrix.from_dense(a, nb)


def test_kblocks_descending_norm_ties_on_key():
    # one A lane (column 0) holding keys 0, 2, 8 with norms 5, 2, 2, then
    # lane 1 (key 1); B has one leaf per lane
    a = _leaf_tree({(2, 0): 2.0, (1, 0): 2.0, (0, 0): 5.0, (0, 1): 7.0})
    b = _leaf_tree({(0, 0): 1.0, (1, 0): 1.0})
    assert a.keys.tolist() == [0, 1, 2, 8]
    plan = build_plan(a, b, 0.0)
    assert plan.a.tolist() == [0, 2, 8, 1]


def test_dense_plan_is_complete():
    a = QuadtreeMatrix.from_dense(rng_matrix(64, 64, seed=1))
    b = QuadtreeMatrix.from_dense(rng_matrix(64, 64, seed=2))
    plan = build_plan(a, b, 0.0)
    assert plan.a.size == 64  # 4^3 block triples
    st = plan.stats
    assert (st.emitted, st.examined, st.pruned) == (64, 64, 0)
    assert set(zip(plan.a.tolist(), plan.b.tolist())) == matched_pairs(a, b, 0.0)
    for ka, kb, ck in zip(plan.a.tolist(), plan.b.tolist(), plan.c_key.tolist()):
        assert ck == c_index(ka, kb)


def test_plan_order_and_dump_pinned():
    a = _block_constant({(0, 0): 0.25, (0, 1): 0.5, (1, 0): 1.0})
    b = _block_constant({(0, 0): 0.25, (1, 0): 0.125, (1, 1): 0.5})
    # constant blocks have exact norms: 16 * value
    assert leaf_norms(a)[encode(1, 0)] == 16.0
    plan = build_plan(a, b, 0.0)
    assert plan_dump(plan) == (
        "2 0 2 6.400000000e+01\n"
        "0 0 0 1.600000000e+01\n"
        "1 3 1 6.400000000e+01\n"
        "1 2 0 1.600000000e+01\n"
    )
    pruned = build_plan(a, b, 32.0)
    assert plan_dump(pruned) == (
        "2 0 2 6.400000000e+01\n"
        "1 3 1 6.400000000e+01\n"
    )
    st = pruned.stats
    assert (st.emitted, st.examined, st.pruned) == (2, 4, 2)


def test_convolve_outer_break_loses_nothing():
    # one k block; A norms descending [10, 1], B norms [5, 3]
    a = _leaf_tree({(0, 0): 10.0, (1, 0): 1.0})
    b = _leaf_tree({(0, 0): 5.0, (0, 1): 3.0})
    plan = build_plan(a, b, 20.0)
    assert [(t.a, t.b, t.norm_product) for t in plan.tasks] == [
        (encode(0, 0), encode(0, 0), 50.0),
        (encode(0, 0), encode(0, 1), 30.0),
    ]
    st = plan.stats
    assert (st.emitted, st.examined, st.pruned) == (2, 3, 1)


def test_tau_boundary_is_kept():
    a = _leaf_tree({(0, 0): 2.0})
    b = _leaf_tree({(0, 0): 3.0})
    assert build_plan(a, b, 6.0).a.size == 1
    assert build_plan(a, b, 6.0 + 1e-12).a.size == 0


def test_plan_equals_brute_force_on_random_sparse_trees():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = 128
        a = np.zeros((n, n), np.float32)
        b = np.zeros((n, n), np.float32)
        for mat in (a, b):
            for bi in range(8):
                for bj in range(8):
                    if rng.random() < 0.4:
                        mat[16 * bi : 16 * bi + 16, 16 * bj : 16 * bj + 16] = (
                            rng.random((16, 16)) * rng.choice([1e-6, 1e-3, 1.0])
                        )
        qa = QuadtreeMatrix.from_dense(a)
        qb = QuadtreeMatrix.from_dense(b)
        for tau in (0.0, 1e-9, 1e-4, 1.0, 1e6):
            plan = build_plan(qa, qb, tau)
            pairs = set(zip(plan.a.tolist(), plan.b.tolist()))
            assert pairs == matched_pairs(qa, qb, tau)
            assert len(pairs) == plan.a.size
            st = plan.stats
            assert st.examined == st.emitted + st.pruned


def test_plan_deterministic_and_insertion_order_free():
    a = decay_matrix(128, seed=5)
    qa = QuadtreeMatrix.from_dense(a.data)
    qb = QuadtreeMatrix.from_dense(a.data)
    dump1 = plan_dump(build_plan(qa, qb, 1e-6))
    dump2 = plan_dump(build_plan(qa, qb, 1e-6))
    assert dump1 == dump2
    # the same leaves built through the bulk constructor
    qc = QuadtreeMatrix.from_leaves(128, 128, qa.keys, qa.values, qa.n_b)
    assert plan_dump(build_plan(qc, qb, 1e-6)) == dump1


def test_empty_operands_give_empty_plan():
    qa = QuadtreeMatrix(64, 64)
    qb = QuadtreeMatrix.from_dense(rng_matrix(64, 64, seed=3))
    plan = build_plan(qa, qb, 0.0)
    assert len(plan.tasks) == 0
    assert plan_dump(plan) == ""
    st = plan.stats
    assert (st.emitted, st.examined, st.pruned) == (0, 0, 0)


def test_build_plan_validation():
    qa = QuadtreeMatrix(32, 32, 16)
    with pytest.raises(ValueError):
        build_plan(qa, QuadtreeMatrix(32, 32, 8), 0.0)
    with pytest.raises(ValueError):
        build_plan(qa, QuadtreeMatrix(64, 32, 16), 0.0)
    with pytest.raises(ValueError):
        build_plan(qa, QuadtreeMatrix(32, 32, 16), -1.0)
    with pytest.raises(ValueError):
        build_plan(qa, QuadtreeMatrix(32, 32, 16), float("nan"))


def test_norm_products_are_double_of_stored_singles():
    a = decay_matrix(64, seed=8)
    qa = QuadtreeMatrix.from_dense(a.data)
    plan = build_plan(qa, qa, 0.0)
    norms = leaf_norms(qa)
    for ka, kb, p in zip(plan.a.tolist(), plan.b.tolist(), plan.norm_product.tolist()):
        assert p == norms[ka] * norms[kb]


def test_plan_equals_loop_on_tied_norms():
    # one-element leaves with norms from a small set: many equal norms in
    # each lane and many equal products, with tau on and just above each
    rng = np.random.default_rng(29)
    for trial in range(4):
        layouts = [{(i, j): float(rng.choice([0.25, 0.5, 1.0, 3.0]))
                    for i in range(16) for j in range(16) if rng.random() < 0.5}
                   for _ in range(2)]
        qa, qb = (_leaf_tree(layout) for layout in layouts)
        products = np.unique(sequential_plan(qa, qb, 0.0).norm_product)
        for p in products.tolist():
            for tau in (p, float(np.nextafter(p, np.inf))):
                assert_plans_equal(build_plan(qa, qb, tau), sequential_plan(qa, qb, tau))


def _tree_with_zero_leaves(m: int, n: int, zeros: list[tuple[int, int]], seed: int):
    """Every 16x16 block stored, decaying off the diagonal; the blocks at
    zeros are stored as all-zero leaves of norm 0."""
    bi, bj = np.divmod(np.arange((m // 16) * (n // 16)), n // 16)
    order = np.argsort(encode_array(bi, bj))
    bi, bj = bi[order], bj[order]
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((bi.size, 16, 16)) * 10.0 ** (-2.0 * np.abs(bi - bj))[:, None, None]
    for i, j in zeros:
        vals[(bi == i) & (bj == j)] = 0.0
    return QuadtreeMatrix.from_leaves(m, n, encode_array(bi, bj), vals, 16)


@pytest.mark.parametrize("tau", [0.0, 5e-324, 1e-3])
def test_zero_norm_leaves_follow_the_loop(tau):
    # 5e-324 / norm underflows to 0, the quotient of every zero B norm
    qa = _tree_with_zero_leaves(64, 48, [(0, 0), (2, 1), (3, 0)], seed=31)
    qb = _tree_with_zero_leaves(48, 80, [(0, 0), (1, 4), (2, 2)], seed=32)
    assert (qa.norms == 0).sum() == 3 and (qb.norms == 0).sum() == 3
    cfg = MultiplyConfig(tau=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = build_plan(qa, qb, tau)
        c, counters = execute_plan(plan, qa, qb, None, cfg)
    assert_plans_equal(plan, sequential_plan(qa, qb, tau))
    assert (plan.stats.pruned == 0) == (tau == 0)
    want, want_counters = sequential_execute(plan, qa, qb, cfg)
    assert c.keys.tolist() == sorted(want)
    for key, vals in zip(c.keys.tolist(), c.values):
        assert np.array_equal(vals.view(np.uint32), want[key].view(np.uint32))
    assert (counters.products4, counters.skipped4) == (
        want_counters.products4, want_counters.skipped4)
    if tau == 0:
        dense = dense_multiply_single(qa.to_dense(), qb.to_dense()).data
        assert np.array_equal(c.to_dense().data.view(np.uint32), dense.view(np.uint32))
