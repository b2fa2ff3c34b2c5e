"""Benchmark harness: scenarios, CSV schema, ratios, slope fit, calibration."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import decay_matrix, fitted_slope
from spamm.bench import (
    BENCH_BLOCK,
    CSV_HEADER,
    RATIO_HEADER,
    SCENARIOS,
    RunReport,
    calibrate_tau,
    ratio_table,
    ratios_to_csv,
    reports_to_csv,
    run_scenario,
    sweep,
)
from spamm.core import QuadtreeMatrix
from spamm.reference import dense_multiply_double


def _family(n, seed=0):
    return decay_matrix(n, seed=seed, kind="blocked-decay", lam=0.5,
                        blocks=(5, 15), c=0.125)


def test_scenario_and_header_constants():
    assert SCENARIOS == (
        "spamm4", "spamm16", "spamm-dense-leaf", "dense-single", "dense-double"
    )
    assert CSV_HEADER == (
        "scenario,n,tau,granularity,seconds,products4,"
        "flops_model,effective_rate,max_norm_error"
    )
    assert RATIO_HEADER == "n,tau,c16_over_c4,t16_over_t4"


def test_csv_row_format_pinned():
    r = RunReport("spamm4", 256, 1e-08, "fine4", 0.5, 1000,
                  33554432, 67108864.0, 1.5e-07)
    out = reports_to_csv([r])
    assert out.splitlines()[1] == (
        "spamm4,256,1e-08,fine4,0.5,1000,33554432,6.71089e+07,1.5e-07"
    )
    assert out.splitlines()[0] == CSV_HEADER
    assert out.endswith("\n")
    assert ratios_to_csv([(256, 1e-08, 1.25, 0.5)]) == (
        RATIO_HEADER + "\n256,1e-08,1.25,0.5\n"
    )


def test_dense_single_work_pinned():
    rep = run_scenario("dense-single", _family(256), repeats=1)
    assert rep.products4 == 262144  # 256^3 / 64
    assert rep.flops_model == 2 * 256**3
    assert rep.granularity == "none"
    assert rep.max_norm_error >= 0.0


def test_dense_double_has_zero_error():
    rep = run_scenario("dense-double", _family(128), repeats=1)
    assert rep.max_norm_error == 0.0


def test_spamm_scenarios_report_work_and_error():
    a = _family(128)
    oracle = dense_multiply_double(a, a)
    tree = QuadtreeMatrix.from_dense(a.data, BENCH_BLOCK)
    r4 = run_scenario("spamm4", a, tau=0.0, repeats=1, tree=tree, oracle=oracle)
    assert r4.granularity == "fine4"
    assert r4.products4 == (128 // 4) ** 3
    assert r4.max_norm_error < 1e-5
    r16 = run_scenario("spamm16", a, tau=1e-8, repeats=1, tree=tree, oracle=oracle)
    assert r16.granularity == "coarse16"
    rdl = run_scenario("spamm-dense-leaf", a, tau=1e-8, repeats=1, tree=tree,
                       oracle=oracle)
    assert rdl.granularity == "dense16"
    assert rdl.products4 == r16.products4


def test_skip_error_leaves_nan():
    rep = run_scenario("spamm4", _family(64), tau=1e-8, repeats=1,
                       compute_error=False)
    assert math.isnan(rep.max_norm_error)


def test_run_scenario_validation():
    a = _family(64)
    with pytest.raises(ValueError):
        run_scenario("spamm2", a)
    with pytest.raises(ValueError):
        run_scenario("spamm4", decay_matrix(64, seed=0), repeats=0)
    from spamm.core import DenseMatrix

    with pytest.raises(ValueError):
        run_scenario("spamm4", DenseMatrix(np.ones((4, 8))))


def test_sweep_order_and_ratio_table():
    reports = sweep(lambda n: _family(n), [64, 128], [0.0, 1e-6], repeats=1)
    shape = [(r.n, r.tau, r.scenario) for r in reports]
    assert shape == [
        (64, 0.0, "spamm4"), (64, 0.0, "spamm16"),
        (64, 1e-6, "spamm4"), (64, 1e-6, "spamm16"),
        (128, 0.0, "spamm4"), (128, 0.0, "spamm16"),
        (128, 1e-6, "spamm4"), (128, 1e-6, "spamm16"),
    ]
    rows = ratio_table(reports)
    assert [(n, tau) for n, tau, _, _ in rows] == [
        (64, 0.0), (64, 1e-6), (128, 0.0), (128, 1e-6)
    ]
    for _, _, c_ratio, t_ratio in rows:
        assert c_ratio >= 1.0  # coarse gating can never run less work
        assert t_ratio > 0.0
    csv = ratios_to_csv(rows)
    assert csv.splitlines()[0] == RATIO_HEADER
    assert len(csv.splitlines()) == 5


def test_bench_trees_have_16x16_leaves():
    # coarse16 gates at the leaf, so spamm16 is the paper's 16x16 gate only
    # on 16x16 leaves, whatever the library default
    assert BENCH_BLOCK == 16
    a = _family(256)
    tree = QuadtreeMatrix.from_dense(a.data, 16)
    want = run_scenario("spamm16", a, tau=1e-6, repeats=1, compute_error=False,
                        tree=tree).products4
    got = run_scenario("spamm16", a, tau=1e-6, repeats=1, compute_error=False)
    assert got.products4 == want
    swept = sweep(lambda n: a, [256], [1e-6], repeats=1, compute_error=False)
    assert [r.products4 for r in swept if r.scenario == "spamm16"] == [want]


def test_sweep_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        sweep(lambda n: _family(n), [64], [0.0], scenarios=("nope",))


def test_fitted_slope_on_synthetic_powers():
    reports = [RunReport("spamm4", n, 0.0, "fine4", 1.0, n * n, 1, 1.0, 0.0)
               for n in (64, 128, 256)]
    assert fitted_slope(reports) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        fitted_slope(reports[:1])
    with pytest.raises(ValueError):
        fitted_slope([reports[0], reports[0]])


def test_calibrate_tau_reaches_target():
    a = _family(256, seed=7)
    tree = QuadtreeMatrix.from_dense(a.data)
    oracle = dense_multiply_double(a, a)
    res = calibrate_tau(tree, oracle, 1e-6, "fine4", iters=6)
    assert res.converged
    assert res.error <= 1e-6
    assert res.tau >= 1e-12
    assert res.granularity == "fine4"
    assert len(res.trace) == 7  # floor probe + 6 bisection steps
    taus = [t for t, _ in res.trace]
    assert taus[0] == 1e-12
    assert all(t > 0 for t in taus)


def test_calibrate_tau_unconverged_floor():
    a = _family(128, seed=1)
    tree = QuadtreeMatrix.from_dense(a.data)
    oracle = dense_multiply_double(a, a)
    res = calibrate_tau(tree, oracle, 1e-30, "fine4", iters=3)
    assert not res.converged
    assert res.tau == 1e-12
    assert len(res.trace) == 1


def test_calibrate_tau_capped_by_hi_is_unconverged():
    # every probe meets a target this loose, so bisection only creeps up to hi
    a = _family(128, seed=1)
    tree = QuadtreeMatrix.from_dense(a.data)
    oracle = dense_multiply_double(a, a)
    res = calibrate_tau(tree, oracle, 1e30, "fine4", hi=1e-3, iters=3)
    assert all(e <= 1e30 for _, e in res.trace) and len(res.trace) == 4
    assert res.error <= res.target
    assert not res.converged
    assert res.tau == res.trace[-1][0] < 1e-3


def test_calibrate_tau_validation():
    a = _family(64)
    tree = QuadtreeMatrix.from_dense(a.data)
    oracle = dense_multiply_double(a, a)
    with pytest.raises(ValueError):
        calibrate_tau(tree, oracle, 0.0)
    with pytest.raises(ValueError):
        calibrate_tau(tree, oracle, 1e-6, lo=1e-3, hi=1e-6)
    with pytest.raises(ValueError):
        calibrate_tau(tree, oracle, 1e-6, iters=0)


def test_sweep_runs_dense_baselines_once_per_n(monkeypatch):
    import spamm.bench as bench

    runs = []
    run = bench.run_scenario

    def counting(scenario, a, **kwargs):
        runs.append((scenario, a.n))
        return run(scenario, a, **kwargs)

    monkeypatch.setattr(bench, "run_scenario", counting)
    scenarios = ("spamm4", "dense-single", "dense-double")
    reports = sweep(lambda n: _family(n), [32, 64], [0.0, 1e-6], scenarios, repeats=1)
    for n in (32, 64):
        assert runs.count(("dense-single", n)) == runs.count(("dense-double", n)) == 1
        assert runs.count(("spamm4", n)) == 2
    assert [(r.n, r.tau, r.scenario) for r in reports] == [
        (n, tau, s) for n in (32, 64) for tau in (0.0, 1e-6) for s in scenarios
    ]
    for first, again in zip(reports[1:3], reports[4:6]):
        assert (first.tau, again.tau) == (0.0, 1e-6)
        assert replace(first, tau=1e-6) == again
