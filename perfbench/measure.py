"""Run one workload for a time budget and turn its spans into metrics."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback

import numpy as np

from checks import CheckFailed
from spans import Tracer, mean, median
from workloads import FULL, SMALL

MICRO_FLOPS = 128   # flops of one 4x4x4 product, 4*4*(2*4)
SGEMM_REPS = 5


def run_workload(name: str, seed: int, seconds: float, traced: bool, small: bool = False):
    """Returns (result line, full record) for one run.

    Rounds repeat until `seconds` have passed, whole rounds only.  A traced
    run does every round twice, untraced then traced, so the tracing
    overhead is measured on the same inputs in the same process.
    `setup_s` and `op_s` are means of wall times scaled to the reference
    host speed by the probe (probe.py); the unscaled means go to the record.
    """
    table = SMALL if small else FULL
    if name not in table:
        sys.exit(f"unknown workload {name!r}; choose from {', '.join(FULL)}")
    wl = table[name]()
    tracer = Tracer()
    tracer.on = traced
    wl.setup(seed, tracer)

    failed = 0
    problem = None
    start = time.perf_counter()
    try:
        while True:
            for on in (False, True) if traced else (False,):
                tracer.on = on
                try:
                    wl.round(tracer)
                except CheckFailed:
                    raise
                except Exception:  # an operation failed; count it and go on
                    failed += 1
                    traceback.print_exc()
            if time.perf_counter() - start >= seconds:
                break
    except CheckFailed as exc:
        problem = exc
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    max_err = max_norm_err = None
    if problem is None and any(op.counts for op in tracer.ops(False)):
        try:
            max_err, max_norm_err = wl.check()
        except CheckFailed as exc:
            problem = exc
    if problem is not None:
        print(f"{name}: check failed: {problem}", file=sys.stderr)

    untraced = [op for op in tracer.ops(False) if op.counts]
    wall = {"setup_s": mean(wl.setup_times), "op_s": mean(op.seconds for op in untraced)}
    scale = wl.probe.scale()
    if traced:
        metrics = _layer_metrics(wl, tracer, untraced)
    else:
        metrics = {
            "setup_s": (wall["setup_s"] * scale, "s"),
            "op_s": (wall["op_s"] * scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "max_err": (max_err, "1"),
        }
    attempted = len(tracer.ops(False)) + len(tracer.ops(True))
    result = {
        "correct": problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "small": small, "inputs": wl.info, "result": result,
        "max_norm_err": max_norm_err,
        "wall": wall, "probe_scale": scale,
        "op_seconds": [op.seconds for op in untraced],
        "setup_seconds": wl.setup_times,
        "probe_seconds": wl.probe.times,
        "spans": tracer.dump() if traced else [],
    }
    return result, record


def _mean(ops, key: str) -> float:
    return statistics.fmean(op.counts[key] for op in ops) if ops else 0.0


def _sgemm_seconds(a: np.ndarray) -> float:
    times = []
    for _ in range(SGEMM_REPS):
        t0 = time.perf_counter()
        np.matmul(a, a)
        times.append(time.perf_counter() - t0)
    return median(times)


def _layer_metrics(wl, tracer: Tracer, untraced) -> dict:
    ops = [op for op in tracer.ops(True) if op.counts]
    per = [tracer.per_op(op) for op in ops]
    exec_s = [p["numeric.execute_plan"] for p in per]
    p4 = sum(op.counts["products4"] for op in ops)
    s4 = sum(op.counts["skipped4"] for op in ops)
    uniform = np.random.default_rng(wl.seed).random(wl.operand.shape, dtype=np.float32)
    return {
        "core.from_dense_s": (median(tracer.layer_seconds("core.from_dense")), "s"),
        "core.to_dense_s": (median(tracer.layer_seconds("core.to_dense")), "s"),
        "core.leaves": (wl.leaves, "count"),
        "symbolic.build_plan_s": (median(p["symbolic.build_plan"] for p in per), "s"),
        "symbolic.tasks": (_mean(ops, "tasks"), "count"),
        "symbolic.examined": (_mean(ops, "examined"), "count"),
        "symbolic.pruned": (_mean(ops, "pruned"), "count"),
        "numeric.execute_plan_s": (median(exec_s), "s"),
        "numeric.gflops": (median(MICRO_FLOPS * op.counts["products4"] / s / 1e9
                                  for op, s in zip(ops, exec_s)), "GFLOP/s"),
        "numeric.gather_mb": (_mean(ops, "tasks") * 2 * wl.n_b**2 * 4 / 1e6, "MB"),
        "numeric.products4": (_mean(ops, "products4"), "count"),
        "numeric.skipped4": (_mean(ops, "skipped4"), "count"),
        "numeric.c_leaves": (_mean(ops, "c_leaves"), "count"),
        "numeric.gate_pass": (p4 / (p4 + s4) if p4 + s4 else 0.0, "1"),
        "op.self_s": (median(p["op.self"] for p in per), "s"),
        "purify.steps": (wl.steps, "count"),
        "trace.overhead_s": (median(op.seconds for op in ops)
                             - median(op.seconds for op in untraced), "s"),
        "host.probe_s": (mean(wl.probe.times), "s"),
        "ref.sgemm_s": (_sgemm_seconds(wl.operand), "s"),
        "ref.sgemm_uniform_s": (_sgemm_seconds(uniform), "s"),
    }
