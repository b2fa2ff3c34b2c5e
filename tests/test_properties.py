"""Property tests of the multiply on drawn shapes, block sizes and tolerances.

Operands are rectangular (so their trees often differ in depth), carry a
drawn decay envelope and a share of exactly zero blocks, and use every
block size whose 4x4 sub-norm grid the numeric phase supports.  The fine4
product itself does not depend on the block size: the leaf only schedules
the micro products that the 4x4 gate lets through; nor, but for the signs
of some zeros when alpha < 0 and beta <= 0, does alpha A B + beta C.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import assert_plans_equal, matched_pairs, sequential_execute, sequential_plan
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.numeric import GRANULARITIES, MultiplyConfig, execute_plan, multiply
from spamm.reference import dense_multiply_single
from spamm.symbolic import build_plan

DIMS = st.integers(1, 96)
BLOCKS = st.sampled_from([4, 8, 16, 32])
KERNEL_BLOCKS = st.sampled_from([4, 8, 16, 32, 64])  # the kernel has no n_b cap
SEEDS = st.integers(0, 2**32 - 1)
TAUS = st.sampled_from([1e-6, 1e-3, 1e-1, 1.0])


def _operand(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """float32 m x n matrix: normal entries under exp(-|i - j| / width),
    with a drawn share of its 4x4 tiles set to zero."""
    width = rng.uniform(0.5, 8.0)
    i = np.arange(m)[:, None] * (n / m)
    j = np.arange(n)[None, :]
    vals = rng.standard_normal((m, n)) * np.exp(-np.abs(i - j) / width)
    tiles = rng.random((-(-m // 4), -(-n // 4))) < rng.uniform(0.0, 0.6)
    vals[np.kron(tiles, np.ones((4, 4), bool))[:m, :n]] = 0.0
    return vals.astype(np.float32)


def _pair(seed, m, k, n, nb):
    rng = np.random.default_rng(seed)
    a, b = _operand(rng, m, k), _operand(rng, k, n)
    return a, b, QuadtreeMatrix.from_dense(a, nb), QuadtreeMatrix.from_dense(b, nb)


@settings(max_examples=150, deadline=None)
@given(m=DIMS, k=DIMS, n=DIMS, nb=BLOCKS, seed=SEEDS, granularity=st.sampled_from(GRANULARITIES))
@example(m=16, k=32, n=128, nb=16, seed=0, granularity="fine4")
def test_tau_zero_equals_single_precision_loop(m, k, n, nb, seed, granularity):
    a, b, qa, qb = _pair(seed, m, k, n, nb)
    plan = build_plan(qa, qb, 0.0)
    c, counters = execute_plan(plan, qa, qb, None, MultiplyConfig(granularity=granularity))
    want = dense_multiply_single(DenseMatrix(a), DenseMatrix(b)).data
    assert (c.m, c.n) == (m, n)
    assert np.array_equal(c.to_dense().data.view(np.uint32), want.view(np.uint32))
    assert counters.products4 == (nb // 4) ** 3 * plan.a.size
    assert counters.skipped4 == 0


@settings(max_examples=150, deadline=None)
@given(m=DIMS, k=DIMS, n=DIMS, nb=BLOCKS, seed=SEEDS, tau=TAUS)
@example(m=16, k=32, n=128, nb=16, seed=0, tau=1e-1)
def test_plan_pairs_equal_all_pairs_oracle(m, k, n, nb, seed, tau):
    _, _, qa, qb = _pair(seed, m, k, n, nb)
    plan = build_plan(qa, qb, tau)
    pairs = list(zip(plan.a.tolist(), plan.b.tolist()))
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == matched_pairs(qa, qb, tau)


@settings(max_examples=150, deadline=None)
@given(m=DIMS, k=DIMS, n=DIMS, nb=BLOCKS, seed=SEEDS,
       tau_kind=st.sampled_from(["zero", "drawn", "tie", "above tie"]), data=st.data())
def test_plan_equals_sequential_loop(m, k, n, nb, seed, tau_kind, data):
    # tau is 0, a drawn value, a product the loop examines (p == tau keeps
    # it) or the next float64 above one (p < tau prunes it)
    _, _, qa, qb = _pair(seed, m, k, n, nb)
    tau = 0.0
    if tau_kind == "drawn":
        tau = 10.0 ** data.draw(st.floats(-9.0, 1.0), label="log10 tau")
    elif tau_kind != "zero":
        products = sequential_plan(qa, qb, 0.0).norm_product
        assume(products.size)
        tau = float(products[data.draw(st.integers(0, products.size - 1), label="row")])
        if tau_kind == "above tie":
            tau = float(np.nextafter(tau, np.inf))
    assert_plans_equal(build_plan(qa, qb, tau), sequential_plan(qa, qb, tau))


@settings(max_examples=120, deadline=None)
@given(m=DIMS, k=DIMS, n=DIMS, nb=KERNEL_BLOCKS, seed=SEEDS, tau=TAUS,
       granularity=st.sampled_from(GRANULARITIES))
@example(m=16, k=32, n=128, nb=16, seed=0, tau=1e-1, granularity="fine4")
@example(m=96, k=80, n=72, nb=64, seed=1, tau=1e-1, granularity="fine4")
def test_executor_equals_sequential_block_loop(m, k, n, nb, seed, tau, granularity):
    _, _, qa, qb = _pair(seed, m, k, n, nb)
    cfg = MultiplyConfig(tau=tau, granularity=granularity)
    plan = build_plan(qa, qb, tau)
    c, counters = execute_plan(plan, qa, qb, None, cfg)
    want, want_counters = sequential_execute(plan, qa, qb, cfg)
    assert c.keys.tolist() == sorted(want)
    for key, vals in zip(c.keys.tolist(), c.values):
        assert np.array_equal(vals.view(np.uint32), want[key].view(np.uint32))
    assert (counters.products4, counters.skipped4) == (
        want_counters.products4, want_counters.skipped4)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 160), k=st.integers(1, 160), n=st.integers(1, 160), seed=SEEDS,
       tau=st.sampled_from([0.0, 1e-6, 1e-3, 1e-1, 1.0]),
       alpha_beta=st.sampled_from([(1.0, 0.0), (-1.0, 2.0), (1.0, 1.0), (2.0, -0.5)]))
@example(m=150, k=40, n=70, seed=0, tau=1e-3, alpha_beta=(1.0, 0.0))  # depths 6, 5 at n_b 4
@example(m=150, k=40, n=70, seed=0, tau=1e-3, alpha_beta=(-1.0, 2.0))
def test_fine4_product_is_the_same_at_every_block_size(m, k, n, seed, tau, alpha_beta):
    """alpha A B + beta C has the same bits at every n_b.

    A leaf norm is at least each of its sub-norms, so leaf pruning drops no
    open micro product: the same ones run, in ascending k, at every n_b.
    Each stored element is alpha S + beta old with a side that has no leaf
    read as +0, which is also what an element reads where no leaf is stored.
    C holds no -0: one in an all-zero block is dropped at small n_b.  alpha
    < 0 with beta <= 0 is left out: there alpha (+0) + beta (+0) is -0 in a
    stored leaf but +0 where no leaf is stored, so the sign of a zero
    depends on the layout.
    """
    alpha, beta = alpha_beta
    rng = np.random.default_rng(seed)
    a, b = _operand(rng, m, k), _operand(rng, k, n)
    c0 = _operand(rng, m, n) + np.float32(0)
    cfg = MultiplyConfig(tau=tau, alpha=alpha, beta=beta)
    bits, work = [], []
    for nb in (4, 8, 16, 32, 64):
        c, _, counters = multiply(QuadtreeMatrix.from_dense(a, nb),
                                  QuadtreeMatrix.from_dense(b, nb), cfg,
                                  QuadtreeMatrix.from_dense(c0, nb))
        bits.append(c.to_dense().data.view(np.uint32))  # so -0.0 counts
        work.append(counters.products4)
    for got in bits[1:]:
        assert np.array_equal(got, bits[0])
    if tau > 0:  # at 0, zero padding sub-blocks pass the 0 >= 0 gate
        assert work == [work[0]] * len(work)
