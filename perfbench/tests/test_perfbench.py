"""The benchmark's own tests: every workload runs at test size and passes,
and every check fails on a corrupted result.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import measure
import probe
import workloads
from spamm.core import QuadtreeMatrix
from spamm.numeric import MultiplyConfig, execute_plan
from spamm.symbolic import build_plan

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.FULL)
    assert list(workloads.SMALL) == list(workloads.FULL)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", list(workloads.FULL))
def test_small_run_passes_and_reports_every_metric(name, traced):
    result, record = measure.run_workload(name, 5, 0.0, traced, small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert bool(record["spans"]) == traced


def _cli(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-512", "--seed", "2",
         "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_cli_last_line_is_the_result():
    out = _cli(BENCH.parent, "--trace", "0", "--small")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_cli_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = _cli(tmp_path, "--trace", "0")
    assert out.returncode != 0 and out.stdout == ""


def test_failed_operations_are_counted(monkeypatch):
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) > 1:  # the warm-up in set-up succeeds
            raise RuntimeError("injected")
        return execute_plan(*args)

    monkeypatch.setattr(workloads, "execute_plan", failing)
    result, _ = measure.run_workload("square-1024", 0, 0.0, False, small=True)
    assert result["correct"] and result["attempted"] == result["failed"] >= 1


@pytest.mark.parametrize("where", ["check_repeatable", "check_exact_product"])
def test_a_failed_check_is_reported(monkeypatch, where):
    def wrong(*args):
        raise checks.CheckFailed("injected")

    monkeypatch.setattr(checks, where, wrong)
    result, _ = measure.run_workload("exact-512", 0, 0.0, True, small=True)
    assert result["correct"] is False and result["failed"] == 0


def test_inputs_follow_the_seed():
    def make(seed):
        return checks.decay_matrix(64, np.random.default_rng(seed))

    assert np.array_equal(make(3), make(3))
    assert not np.array_equal(make(3), make(4))
    h, nocc = checks.hamiltonian(64, np.random.default_rng(0))
    assert np.array_equal(h, h.T) and nocc == 32
    _, gap = checks.spectrum_summary(h, nocc)
    assert gap > 1.0


def test_times_are_scaled_by_the_probe():
    _, record = measure.run_workload("exact-512", 0, 0.0, False, small=True)
    scale = probe.REFERENCE_S / np.mean(record["probe_seconds"])
    assert record["probe_scale"] == pytest.approx(scale)
    metrics = record["result"]["metrics"]
    for name in ("setup_s", "op_s"):
        assert metrics[name]["value"] == pytest.approx(record["wall"][name] * scale)


def test_probe_fails_when_subnormals_flush():
    p = probe.Probe()
    x, y = p.passes[1]
    p.passes = (p.passes[0], (np.zeros_like(x), y))  # what flush-to-zero leaves
    with pytest.raises(checks.CheckFailed, match="flushed"):
        p.run()


# -- each check fails on a corrupted result ---------------------------------

def _product(n, tau, drop_top_task=False):
    a = checks.decay_matrix(n, np.random.default_rng(0))
    tree = QuadtreeMatrix.from_dense(a)
    plan = build_plan(tree, tree, tau)
    if drop_top_task:
        plan.tasks.remove(max(plan.tasks, key=lambda t: t.norm_product))
    c, counters = execute_plan(plan, tree, tree, None, MultiplyConfig(tau=tau))
    counts = {"products4": counters.products4, "skipped4": counters.skipped4,
              "pruned": plan.stats.pruned}
    return a, c.to_dense().data.copy(), counts


def _zero_leaf(x, i=1, j=1):
    x = x.copy()
    x[16 * i:16 * (i + 1), 16 * j:16 * (j + 1)] = 0
    return x


def _exact(a):
    a64 = a.astype(np.float64)
    return a64 @ a64


def test_pruned_check_fails_on_a_zeroed_leaf():
    a, c, _ = _product(128, workloads.TAU)
    checks.check_pruned_product(a, c, _exact(a), workloads.TAU)
    with pytest.raises(checks.CheckFailed):
        checks.check_pruned_product(a, _zero_leaf(c), _exact(a), workloads.TAU)


def test_pruned_check_fails_on_a_dropped_task():
    a, c, _ = _product(128, workloads.TAU, drop_top_task=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_pruned_product(a, c, _exact(a), workloads.TAU)


def test_block_error_rises_with_a_pruned_block():
    a, c, _ = _product(128, workloads.TAU)
    far = c.copy()
    far[-16:, :16] = 0  # the farthest block, as a product that prunes it would leave
    assert checks.errors(far, _exact(a))[0] > checks.errors(c, _exact(a))[0]


def test_exact_check_fails_on_corrupted_results():
    a, c, counts = _product(64, 0.0)
    checks.check_exact_product(a, c, counts)
    one_ulp = c.copy()
    one_ulp[5, 7] = np.nextafter(one_ulp[5, 7], np.float32(np.inf))
    for bad in (_zero_leaf(c), one_ulp):
        with pytest.raises(checks.CheckFailed):
            checks.check_exact_product(a, bad, counts)
    with pytest.raises(checks.CheckFailed):
        checks.check_exact_product(a, c, {**counts, "skipped4": 1})
    a, dropped, counts = _product(64, 0.0, drop_top_task=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_exact_product(a, dropped, counts)


def test_repeatable_check_fails_on_one_bit():
    _, c, _ = _product(64, 0.0)
    checks.check_repeatable(c, c.copy())
    flipped = c.copy()
    flipped.view(np.uint32)[3, 3] ^= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_repeatable(c, flipped)


def test_purified_check_fails_on_corrupted_results():
    wl = workloads.SMALL["purify-1024"]()
    tracer = workloads.Tracer()
    wl.setup(1, tracer)
    wl.round(tracer)
    projector, _ = checks.spectrum_summary(wl.h, wl.nocc)
    checks.check_purified(wl.first, projector, wl.nocc)
    with pytest.raises(checks.CheckFailed):
        checks.check_purified(_zero_leaf(wl.first), projector, wl.nocc)
    with pytest.raises(checks.CheckFailed, match="trace"):
        checks.check_purified(wl.first, projector, wl.nocc + 1)
