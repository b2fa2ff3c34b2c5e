"""Whole-library gates, one test per go/no-go criterion.

Each test checks one end-to-end property of the assembled package: exactness
with pruning disabled, symbolic plans against an all-pairs oracle, recursive
against flat execution, index algebra over the full coordinate range, norm
bookkeeping on every construction path, sub-cubic work growth, the error/work
tradeoff, coarse versus fine gating cost, the flop model, tolerance
calibration, and storage round trips.  Tests print the measured numbers so a
log shows what was observed next to each verdict.  Pinned seeds and matrix
families keep every run identical; wall-clock limits are asserted only where
the gate itself is about runtime.
"""

import itertools
import time

import numpy as np

from helpers import (
    LEAF_SIZES,
    assert_norm_invariant,
    decay_matrix,
    fitted_slope,
    recursive_spamm,
)
from spamm.bench import calibrate_tau, ratio_table, run_scenario, sweep
from spamm.core import DenseMatrix, QuadtreeMatrix
from spamm.generators import KINDS, GeneratorSpec, generate
from spamm.io import load_matrix, load_quadtree, save_matrix, save_quadtree
from spamm.morton import (
    EVEN_MASK,
    ODD_MASK,
    c_index,
    decode,
    decode_array,
    dilate_array,
    encode_array,
    undilate_array,
)
from spamm.numeric import MultiplyConfig, multiply
from spamm.reference import (
    dense_multiply_double,
    dense_multiply_single,
    flop_model,
    max_norm_error,
)
from spamm.symbolic import build_plan

_U = np.uint64


def _random_dense(n: int, seed: int) -> DenseMatrix:
    return generate(GeneratorSpec(kind="random-dense", n=n, c=1.0, seed=seed))


def _decay_family(n: int) -> DenseMatrix:
    # workload for the scaling and error/work gates
    return generate(
        GeneratorSpec(kind="blocked-decay", n=n, lam=0.5, blocks=(5, 15), c=1.0, seed=0)
    )


def _calibration_family(n: int) -> DenseMatrix:
    # small blocks and weak off-diagonal mass: fine4 and coarse16 settle on
    # clearly separated taus here, which is what the calibration gates probe
    return generate(
        GeneratorSpec(kind="blocked-decay", n=n, lam=0.55, blocks=(1, 3), c=0.125, seed=7)
    )


def _plan_pairs(plan) -> set:
    return set(zip(plan.a.tolist(), plan.b.tolist()))


def _all_pairs_oracle(tree: QuadtreeMatrix, tau: float) -> set:
    """Kept product set straight from the definition, no tree traversal.

    Every leaf pair whose contraction lanes agree and whose float64 norm
    product is not below tau.
    """
    keys, norms = tree.keys, tree.norms.astype(np.float64)
    k_a = keys & _U(ODD_MASK)
    k_b = (keys & _U(EVEN_MASK)) >> _U(1)
    keep = (k_a[:, None] == k_b[None, :]) & ~(norms[:, None] * norms[None, :] < tau)
    ia, ib = np.nonzero(keep)
    return {(int(keys[i]), int(keys[j])) for i, j in zip(ia, ib)}


# -- 1: pruning disabled costs no accuracy over a plain single product ------

def test_criterion_01_exact_at_zero_tolerance():
    t0 = time.perf_counter()
    cfg = MultiplyConfig(tau=0.0, granularity="fine4")
    worst = 0.0
    seed = 0
    for n, count in ((64, 32), (256, 14), (1024, 4)):
        for _ in range(count):
            a = _random_dense(n, seed)
            seed += 1
            tree = QuadtreeMatrix.from_dense(a.data)
            c_tree, _, _ = multiply(tree, tree, cfg)
            oracle = dense_multiply_double(a, a)
            e_tree = max_norm_error(c_tree.to_dense(), oracle).delta
            e_naive = max_norm_error(dense_multiply_single(a, a), oracle).delta
            if e_naive == 0.0:
                assert e_tree == 0.0, f"n={n} seed={seed - 1}"
                continue
            assert e_tree <= 4.0 * e_naive, f"n={n} seed={seed - 1}: {e_tree} vs {e_naive}"
            worst = max(worst, e_tree / e_naive)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: 50 matrices, worst error ratio {worst:.3f} (limit 4), "
          f"{elapsed:.0f}s")
    assert elapsed < 120.0


# -- 2: symbolic plans equal the all-pairs definition -----------------------

def test_criterion_02_plan_equals_all_pairs_oracle():
    lams = (0.3, 0.45, 0.6, 0.75)
    blocks = ((5, 15), (4, 8), (16,), (1, 3), (2, 6, 10))
    tasks = 0
    for i in range(100):
        a = generate(GeneratorSpec(kind="blocked-decay", n=256, lam=lams[i % 4],
                                   blocks=blocks[i % 5], c=1.0, seed=i))
        for nb in LEAF_SIZES:
            tree = QuadtreeMatrix.from_dense(a.data, nb)
            for tau in (0.0, 1e-8, 1e-4):
                plan = build_plan(tree, tree, tau)
                assert _plan_pairs(plan) == _all_pairs_oracle(tree, tau), (i, nb, tau)
                tasks += plan.a.size
    print(f"criterion 2: 600 plans / {tasks} tasks matched the all-pairs oracle")


# -- 3: recursive traversal equals the flat plan ----------------------------

def test_criterion_03_recursive_matches_flat():
    cases = (("exponential", 64, 11), ("algebraic", 128, 12),
             ("blocked-decay", 256, 13), ("random-dense", 64, 14))
    cfg = MultiplyConfig(tau=0.0, granularity="fine4")
    worst = 0.0
    for (kind, n, seed), nb in itertools.product(cases, LEAF_SIZES):
        a = decay_matrix(n, seed=seed, kind=kind,
                         **({"blocks": (4, 8)} if kind == "blocked-decay" else {}))
        tree = QuadtreeMatrix.from_dense(a.data, nb)
        plan = build_plan(tree, tree, 0.0)
        flat, _, _ = multiply(tree, tree, cfg)
        rec, visits = recursive_spamm(tree, tree, 0.0)
        assert visits == _plan_pairs(plan), (kind, n, nb)
        fro = float(np.linalg.norm(a.data.astype(np.float64)))
        bound = 1e-5 * fro * fro / n
        err = max_norm_error(rec.to_dense(), flat.to_dense()).delta
        assert err <= bound, (kind, n, nb, err, bound)
        worst = max(worst, err / bound)
    print(f"criterion 3: visit sets identical on {len(cases)} matrices "
          f"at n_b {LEAF_SIZES}, "
          f"worst error at {worst:.3f} of bound")


# -- 4: index algebra over the full coordinate range ------------------------

def test_criterion_04_interleave_bijection_exhaustive():
    t0 = time.perf_counter()
    coords = np.arange(1 << 16, dtype=np.uint64)
    d_j = dilate_array(coords)
    # dilation is invertible on every 16 bit value and stays in its lane
    assert np.array_equal(undilate_array(d_j), coords)
    assert not np.any(d_j & _U(EVEN_MASK))
    d_i = d_j << _U(1)
    # every key over [0, 2^16)^2 splits into the two dilated lanes; decode
    # undilates exactly those lanes, so this plus invertibility above pins
    # decode(encode(i, j)) == (i, j) for the whole square
    for lo in range(0, 1 << 16, 128):
        keys = encode_array(coords[lo:lo + 128, None], coords[None, :])
        assert np.all(keys & _U(ODD_MASK) == d_j[None, :])
        assert np.all(keys & _U(EVEN_MASK) == d_i[lo:lo + 128, None])
    rng = np.random.default_rng(4)
    si = rng.integers(0, 1 << 16, 1 << 20).astype(np.uint64)
    sj = rng.integers(0, 1 << 16, 1 << 20).astype(np.uint64)
    ri, rj = decode_array(encode_array(si, sj))
    assert np.array_equal(ri, si) and np.array_equal(rj, sj)
    sample = rng.integers(0, 1 << 32, 4096).astype(np.uint64)
    vi, vj = decode_array(sample)
    for t, key in enumerate(sample):
        assert decode(int(key)) == (int(vi[t]), int(vj[t]))
    # product key composition for every i, k, j below 64
    r = np.arange(64, dtype=np.uint64)
    i3, k3, j3 = np.meshgrid(r, r, r, indexing="ij")
    assert np.array_equal(c_index(encode_array(i3, k3), encode_array(k3, j3)),
                          encode_array(i3, j3))
    print(f"criterion 4: 2^32 key lanes plus 64^3 compositions checked, "
          f"{time.perf_counter() - t0:.0f}s")


# -- 5: norm bookkeeping on every construction path -------------------------

def test_criterion_05_norm_invariant_everywhere(tmp_path):
    rng = np.random.default_rng(5)
    trees = {}
    for idx, kind in enumerate(KINDS):
        extra = {"blocks": (4, 8)} if kind == "blocked-decay" else {}
        a = decay_matrix(160, seed=20 + idx, kind=kind, **extra)
        trees[kind] = QuadtreeMatrix.from_dense(a.data)
    trees["identity"] = QuadtreeMatrix.from_dense(np.eye(64, dtype=np.float32))
    trees["from_leaves"] = QuadtreeMatrix.from_leaves(
        64, 64, [0, 3, 9, 14], rng.random((4, 16, 16), dtype=np.float32), 16)
    base = QuadtreeMatrix.from_dense(decay_matrix(128, seed=32).data)
    trees["product"], _, _ = multiply(base, base,
                                      MultiplyConfig(tau=1e-8, granularity="fine4"))
    # the one in-place path: X <- 2X - X X stores into X itself
    x = QuadtreeMatrix.from_dense(decay_matrix(96, seed=30).data)
    trees["accumulator"], _, _ = multiply(x, x, MultiplyConfig(1e-8, "fine4", -1.0, 2.0), c=x)
    assert trees["accumulator"] is x
    path = tmp_path / "tree.spamm"
    save_quadtree(path, trees["blocked-decay"])
    trees["loaded"] = load_quadtree(path)
    for name, tree in trees.items():
        assert tree.leaf_count > 0, name
        assert_norm_invariant(tree)
    print(f"criterion 5: norm invariant held on {len(trees)} construction paths")


# -- 6: work grows sub-cubically on decaying input --------------------------

def test_criterion_06_sub_cubic_work_growth():
    t0 = time.perf_counter()
    reports = [run_scenario("spamm4", _decay_family(n), tau=1e-8, repeats=1,
                            compute_error=False)
               for n in (1024, 2048, 4096, 8192)]
    for r in reports:
        assert r.products4 < (r.n // 4) ** 3, (r.n, r.products4)
    slope = fitted_slope(reports[-3:])
    elapsed = time.perf_counter() - t0
    fracs = ", ".join(f"n={r.n}: {r.products4 / (r.n // 4) ** 3:.4f}" for r in reports)
    print(f"criterion 6: dense work fraction {fracs}; tail slope {slope:.3f} "
          f"(limit 2); {elapsed:.0f}s")
    assert slope < 2.0
    assert elapsed < 600.0


# -- 7: tolerance trades work for error monotonically -----------------------

def test_criterion_07_error_work_tradeoff():
    taus = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)
    a = _decay_family(2048)
    tree = QuadtreeMatrix.from_dense(a.data)
    oracle = dense_multiply_double(a, a)
    rows = [run_scenario("spamm4", a, tau=tau, repeats=1, tree=tree, oracle=oracle)
            for tau in taus]
    for row in rows:
        print(f"criterion 7: tau={row.tau:g} products4={row.products4} "
              f"error={row.max_norm_error:.3e}")
    for prev, nxt in zip(rows, rows[1:]):
        assert nxt.products4 <= prev.products4, (prev.tau, nxt.tau)
        # error may wobble at the single precision floor but never improves
        # by more than 2x while work shrinks
        assert nxt.max_norm_error >= prev.max_norm_error / 2.0, (prev.tau, nxt.tau)


# -- 8: coarse gating always keeps at least as much work --------------------

def test_criterion_08_coarse_work_ratio():
    t0 = time.perf_counter()
    rows = []
    for family, sizes in ((_decay_family, (512, 1024)),
                          (_calibration_family, (1024, 2048))):
        reports = sweep(family, sizes, (1e-8, 1e-6), repeats=1, compute_error=False)
        rows.extend(ratio_table(reports))
    assert rows
    for n, tau, c_ratio, _ in rows:
        assert c_ratio >= 1.0, (n, tau, c_ratio)
    # at matched error the coarse gate must pay a clear work premium
    a = _calibration_family(4096)
    tree = QuadtreeMatrix.from_dense(a.data, 16)
    oracle = dense_multiply_double(a, a)
    cal4 = calibrate_tau(tree, oracle, 1e-6, "fine4")
    cal16 = calibrate_tau(tree, oracle, 1e-6, "coarse16")
    assert cal4.converged and cal16.converged
    r4 = run_scenario("spamm4", a, tau=cal4.tau, repeats=1, tree=tree, oracle=oracle)
    r16 = run_scenario("spamm16", a, tau=cal16.tau, repeats=1, tree=tree, oracle=oracle)
    matched = r16.products4 / r4.products4
    print(f"criterion 8: {len(rows)} sweep ratios all >= 1 "
          f"(min {min(r[2] for r in rows):.3f}); matched-error ratio {matched:.3f} "
          f"at n=4096 (limit 1.5); {time.perf_counter() - t0:.0f}s")
    assert matched > 1.5


# -- 9: the flop model is the classical count --------------------------------

def test_criterion_09_flop_model_pinned():
    assert flop_model(16, 16, 16) == 8192
    for n in range(1, 1025):
        assert flop_model(n, n, n) == 2 * n ** 3
    print("criterion 9: flop model equals 2n^3 on every square size through 1024")


# -- 10: calibration separates the two gating granularities -----------------

def test_criterion_10_calibrated_tau_separation():
    # coarse16 gates at the leaf, so 16x16 leaves make it the paper's 16x16 gate
    a = _calibration_family(1024)
    tree = QuadtreeMatrix.from_dense(a.data, 16)
    oracle = dense_multiply_double(a, a)
    cal4 = calibrate_tau(tree, oracle, 1e-6, "fine4")
    cal16 = calibrate_tau(tree, oracle, 1e-6, "coarse16")
    ratio = cal16.tau / cal4.tau
    print(f"criterion 10: tau(fine4)={cal4.tau:.3e} err={cal4.error:.3e}, "
          f"tau(coarse16)={cal16.tau:.3e} err={cal16.error:.3e}, ratio {ratio:.2f}")
    assert cal4.converged and cal16.converged
    assert cal4.tau < cal16.tau
    assert 2.0 <= ratio <= 10.0


# -- 11: storage round trips are bit exact ----------------------------------

def test_criterion_11_round_trips_bit_exact(tmp_path):
    shapes = [(3, 2), (5, 3), (1, 1), (16, 16), (17, 16), (16, 17),
              (40, 24), (1, 200), (200, 1), (128, 64)]
    rng = np.random.default_rng(2026)
    while len(shapes) < 20:
        m, n = rng.integers(1, 300, 2)
        shapes.append((int(m), int(n)))
    for idx, (m, n) in enumerate(shapes):
        x = rng.random((m, n), dtype=np.float32) * 2.0 - 1.0
        if idx == 3:
            x[:] = 0.0  # empty tree edge
        elif idx % 2:
            x[: max(1, m // 3), :] = 0.0
        tree = QuadtreeMatrix.from_dense(x)
        back = tree.to_dense().data
        assert back.dtype == np.float32 and np.array_equal(back, x), (m, n)
        qt_path = tmp_path / f"m{idx}.spamm"
        save_quadtree(qt_path, tree)
        loaded = load_quadtree(qt_path)
        assert (loaded.m, loaded.n, loaded.n_b, loaded.depth) == \
            (tree.m, tree.n, tree.n_b, tree.depth)
        assert np.array_equal(loaded.keys, tree.keys)
        assert np.array_equal(loaded.values, tree.values)
        assert np.array_equal(loaded.norms, tree.norms)
        mm_path = tmp_path / f"m{idx}.mtx"
        save_matrix(mm_path, DenseMatrix(x))
        assert np.array_equal(load_matrix(mm_path).data, x.astype(np.float64))
    print(f"criterion 11: {len(shapes)} shapes round tripped bit exact")
