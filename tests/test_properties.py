"""Property tests of the multiply on drawn shapes, block sizes and tolerances.

Operands are rectangular (so their trees often differ in depth), carry a
drawn decay envelope and a share of exactly zero blocks, and use every
block size whose 4x4 sub-norm grid the numeric phase supports.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import matched_pairs, sequential_execute
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.numeric import GRANULARITIES, MultiplyConfig, execute_plan
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
    assert counters.products4 == (nb // 4) ** 3 * len(plan.tasks)
    assert counters.skipped4 == 0


@settings(max_examples=150, deadline=None)
@given(m=DIMS, k=DIMS, n=DIMS, nb=BLOCKS, seed=SEEDS, tau=TAUS)
@example(m=16, k=32, n=128, nb=16, seed=0, tau=1e-1)
def test_plan_pairs_equal_all_pairs_oracle(m, k, n, nb, seed, tau):
    _, _, qa, qb = _pair(seed, m, k, n, nb)
    pairs = [(t.a, t.b) for t in build_plan(qa, qb, tau).tasks]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == matched_pairs(qa, qb, tau)


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
