"""Reference products, the recursive pruned oracle, metrics, flop model."""

import numpy as np
import pytest

from helpers import decay_matrix, matched_pairs, rng_matrix
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.reference import (
    dense_multiply_double,
    dense_multiply_single,
    effective_performance,
    flop_model,
    max_norm_error,
    recursive_spamm,
)
from spamm.symbolic import build_plan


def test_double_product_pinned():
    a = DenseMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    c = dense_multiply_double(a, a)
    assert np.array_equal(c.data, np.array([[7.0, 10.0], [15.0, 22.0]]))
    assert c.precision == "double"


def test_double_product_alpha_beta():
    a = DenseMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    c0 = DenseMatrix(np.ones((2, 2)))
    c = dense_multiply_double(a, a, alpha=2.0, beta=3.0, c=c0)
    assert np.array_equal(c.data, 2.0 * np.array([[7.0, 10.0], [15.0, 22.0]]) + 3.0)
    with pytest.raises(ValueError):
        dense_multiply_double(a, a, beta=1.0)
    with pytest.raises(ValueError):
        dense_multiply_double(a, a, beta=1.0, c=DenseMatrix(np.ones((3, 2))))
    with pytest.raises(ValueError):
        dense_multiply_double(a, DenseMatrix(np.ones((3, 3))))


def test_identity_is_exact_in_both_precisions():
    b = DenseMatrix(rng_matrix(32, 20, seed=0))
    eye = DenseMatrix(np.eye(32, dtype=np.float32))
    assert np.array_equal(dense_multiply_double(eye, b).data, b.data.astype(np.float64))
    assert np.array_equal(dense_multiply_single(eye, b).data, b.data)


def test_single_vs_double_error_bound():
    for n in (32, 128):
        a = DenseMatrix(rng_matrix(n, n, seed=n))
        b = DenseMatrix(rng_matrix(n, n, seed=n + 1))
        c32 = dense_multiply_single(a, b)
        c64 = dense_multiply_double(a, b)
        bound = n * 2.0**-24 * np.abs(a.data).max() * np.abs(b.data).max() * 8
        assert max_norm_error(c32, c64).delta <= bound


def test_flop_model_pinned_values():
    assert flop_model(1, 1, 1) == 2
    assert flop_model(16, 16, 16) == 8192
    for n in (1, 2, 3, 7, 64):
        assert flop_model(n, n, n) == 2 * n**3
    assert flop_model(2, 3, 4) == 2 * (3 * (1 + 8) - 4)
    with pytest.raises(ValueError):
        flop_model(0, 1, 1)


def test_effective_performance():
    assert effective_performance(100, 2.0) == 50.0
    assert effective_performance(flop_model(16, 16, 16), 0.5) == 16384.0
    with pytest.raises(ValueError):
        effective_performance(100, 0.0)


def test_max_norm_error_location_first_tie():
    c = DenseMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    ref = DenseMatrix(np.zeros((2, 2)))
    rep = max_norm_error(c, ref)
    assert (rep.delta, rep.row, rep.col) == (1.0, 0, 1)
    same = max_norm_error(ref, ref)
    assert (same.delta, same.row, same.col) == (0.0, 0, 0)
    with pytest.raises(ValueError):
        max_norm_error(c, DenseMatrix(np.zeros((2, 3))))


def test_recursive_block_diagonal_visits():
    a = np.zeros((32, 32), np.float32)
    a[:16, :16] = rng_matrix(16, 16, seed=1)
    a[16:, 16:] = rng_matrix(16, 16, seed=2)
    q = QuadtreeMatrix.from_dense(a)
    c, visits = recursive_spamm(q, q, 0.0)
    assert visits == {(0, 0), (3, 3)}
    want = a.astype(np.float64) @ a.astype(np.float64)
    assert np.abs(c.to_dense().data - want).max() < 1e-4


def test_recursive_huge_tau_prunes_everything():
    q = QuadtreeMatrix.from_dense(rng_matrix(64, 64, seed=3))
    c, visits = recursive_spamm(q, q, float("inf"))
    assert visits == set()
    assert c.leaf_count == 0
    assert np.array_equal(c.to_dense().data, np.zeros((64, 64), np.float32))


def test_recursive_visits_match_flat_plan():
    a = QuadtreeMatrix.from_dense(decay_matrix(128, seed=4).data)
    for tau in (0.0, 1e-8, 1e-5, 1e-2):
        plan = build_plan(a, a, tau)
        _, visits = recursive_spamm(a, a, tau)
        assert visits == {(t.a, t.b) for t in plan.tasks}
        assert visits == matched_pairs(a, a, tau)


def test_recursive_visits_shrink_as_tau_grows():
    a = QuadtreeMatrix.from_dense(decay_matrix(128, seed=5).data)
    prev = None
    for tau in (0.0, 1e-8, 1e-5, 1e-2, 1.0):
        _, visits = recursive_spamm(a, a, tau)
        if prev is not None:
            assert visits <= prev
        prev = visits


def test_recursive_tau_zero_matches_flat_product_within_bound():
    from spamm.numeric import multiply

    a = QuadtreeMatrix.from_dense(decay_matrix(64, seed=6).data)
    c_rec, _ = recursive_spamm(a, a, 0.0)
    c_flat, _, _ = multiply(a, a)
    n = 64
    bound = 1e-5 * a.norm * a.norm / n
    assert np.abs(c_rec.to_dense().data - c_flat.to_dense().data).max() <= bound


def test_recursive_validation():
    q16 = QuadtreeMatrix.from_dense(rng_matrix(16, 16, seed=7))
    q8 = QuadtreeMatrix.from_dense(rng_matrix(16, 16, seed=8), 8)
    with pytest.raises(ValueError):
        recursive_spamm(q16, q8, 0.0)
    with pytest.raises(ValueError):
        recursive_spamm(q16, QuadtreeMatrix(32, 16), 0.0)
    with pytest.raises(ValueError):
        recursive_spamm(q16, QuadtreeMatrix(16, 40), 0.0)  # depth 0 vs 2
    with pytest.raises(ValueError):
        recursive_spamm(q16, q16, -1.0)
    with pytest.raises(ValueError):
        recursive_spamm(q16, q16, float("nan"))
