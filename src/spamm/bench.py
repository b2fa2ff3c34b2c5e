"""Benchmark harness: timed scenarios, tau sweeps, and tau calibration.

Every scenario squares its input (C = A A) so one matrix fully determines a
run.  Tree construction and the error oracle are kept outside the timed
region; the timed region is the symbolic phase plus the numeric phase for
the tree scenarios, or the plain dense product for the baselines.  Reported
seconds are the median over `repeats` runs.

Scenarios:

    spamm4            pruned multiply, 4x4 gated micro kernels
    spamm16           pruned multiply, gating at 16x16 blocks only
    spamm-dense-leaf  pruned plan, unconditional library kernel per leaf
    dense-single      classical float32 product, no tree: the ascending-k
                      Python loop dense_multiply_single (the tau = 0
                      oracle), not a BLAS SGEMM, so its seconds cannot
                      show the paper's SGEMM crossover; perfbench's
                      ref.sgemm_s is the SGEMM reference
    dense-double      classical float64 product, no tree

Trees built here have the paper's 16x16 leaves (BENCH_BLOCK), not the
library default of 64: coarse16 gates at the leaf, so 16x16 leaves make
spamm16 the paper's 16x16 gate, and both gates run on one tree.

CSV output is one fixed header plus one row per run; work ratios
between the two gating granularities go in a separate small table rather
than extra columns.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from .core import DenseMatrix, QuadtreeMatrix
from .numeric import MultiplyConfig, execute_plan, execute_plan_dense_leaf, multiply
from .reference import (
    dense_multiply_double,
    dense_multiply_single,
    effective_performance,
    flop_model,
    max_norm_error,
)
from .symbolic import build_plan

__all__ = [
    "SCENARIOS",
    "BENCH_BLOCK",
    "CSV_HEADER",
    "RATIO_HEADER",
    "RunReport",
    "run_scenario",
    "reports_to_csv",
    "sweep",
    "ratio_table",
    "ratios_to_csv",
    "CalibrationResult",
    "calibrate_tau",
]

SCENARIOS = ("spamm4", "spamm16", "spamm-dense-leaf", "dense-single", "dense-double")

_GRAIN = {
    "spamm4": "fine4",
    "spamm16": "coarse16",
    "spamm-dense-leaf": "dense16",
    "dense-single": "none",
    "dense-double": "none",
}

CSV_HEADER = (
    "scenario,n,tau,granularity,seconds,products4,"
    "flops_model,effective_rate,max_norm_error"
)

RATIO_HEADER = "n,tau,c16_over_c4,t16_over_t4"

# Leaf size of the trees run_scenario, sweep and the CLI's sweep-tau build.
BENCH_BLOCK = 16


@dataclass
class RunReport:
    """One benchmark run, one CSV row."""

    scenario: str
    n: int
    tau: float
    granularity: str
    seconds: float
    products4: int
    flops_model: int
    effective_rate: float
    max_norm_error: float

    def csv_row(self) -> str:
        return (
            f"{self.scenario},{self.n},{self.tau:.6g},{self.granularity},"
            f"{self.seconds:.6g},{self.products4},"
            f"{self.flops_model},{self.effective_rate:.6g},{self.max_norm_error:.6g}"
        )


def _tree_product(scenario, a, b, c, tau, alpha=1.0, beta=0.0):
    """Plan and execute C = alpha A B + beta C on trees under a spamm scenario.

    Returns (plan, C tree, counters); c is the accumulator tree or None.
    """
    plan = build_plan(a, b, tau)
    if scenario == "spamm-dense-leaf":
        c, counters = execute_plan_dense_leaf(plan, a, b, c, alpha, beta)
    else:
        cfg = MultiplyConfig(tau=tau, granularity=_GRAIN[scenario], alpha=alpha, beta=beta)
        c, counters = execute_plan(plan, a, b, c, cfg)
    return plan, c, counters


def reports_to_csv(reports: Iterable[RunReport]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def run_scenario(
    scenario: str,
    a: DenseMatrix,
    tau: float = 0.0,
    repeats: int = 5,
    compute_error: bool = True,
    tree: QuadtreeMatrix | None = None,
    oracle: DenseMatrix | None = None,
) -> RunReport:
    """Time one scenario on C = A A.

    `tree` and `oracle` let callers reuse the quadtree of A and the double
    precision product of A A across runs; both are derived from `a` when
    absent.  The dense baselines ignore tau (it is only recorded in the
    report).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if a.m != a.n:
        raise ValueError(f"benchmark squares its input, got {a.m}x{a.n}")
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    n = a.n
    times = []
    if scenario.startswith("spamm"):
        if tree is None:
            tree = QuadtreeMatrix.from_dense(a.data, BENCH_BLOCK)
        for _ in range(repeats):
            t0 = time.perf_counter()
            _, c, counters = _tree_product(scenario, tree, tree, None, tau)
            times.append(time.perf_counter() - t0)
        result = c.to_dense()
        products4 = counters.products4
    else:
        for _ in range(repeats):
            t0 = time.perf_counter()
            if scenario == "dense-single":
                result = dense_multiply_single(a, a)
            else:
                result = dense_multiply_double(a, a)
            times.append(time.perf_counter() - t0)
        # classical work, expressed in the same 4x4x4 product unit
        products4 = (n * n * n) // 64
    seconds = statistics.median(times)
    err = float("nan")
    if compute_error:
        if oracle is None:
            oracle = dense_multiply_double(a, a)
        err = max_norm_error(result, oracle).delta
    flops = flop_model(n, n, n)
    return RunReport(
        scenario=scenario,
        n=n,
        tau=tau,
        granularity=_GRAIN[scenario],
        seconds=seconds,
        products4=products4,
        flops_model=flops,
        effective_rate=effective_performance(flops, seconds),
        max_norm_error=err,
    )


def sweep(
    make_matrix: Callable[[int], DenseMatrix],
    ns: Sequence[int],
    taus: Sequence[float],
    scenarios: Sequence[str] = ("spamm4", "spamm16"),
    repeats: int = 3,
    compute_error: bool = True,
) -> list[RunReport]:
    """All (n, tau, scenario) runs, n-major then tau then scenario order.

    The matrix, its tree, and the error oracle are built once per n and
    shared across the whole tau grid.  The dense baselines ignore tau, so
    each runs once per n and its report is repeated at every tau.
    """
    for s in scenarios:
        if s not in SCENARIOS:
            raise ValueError(f"unknown scenario {s!r}")
    reports = []
    needs_tree = any(s.startswith("spamm") for s in scenarios)
    for n in ns:
        a = make_matrix(n)
        tree = QuadtreeMatrix.from_dense(a.data, BENCH_BLOCK) if needs_tree else None
        oracle = dense_multiply_double(a, a) if compute_error else None
        dense: dict[str, RunReport] = {}
        for tau in taus:
            for s in scenarios:
                if s in dense:
                    reports.append(replace(dense[s], tau=tau))
                    continue
                report = run_scenario(
                    s, a, tau=tau, repeats=repeats,
                    compute_error=compute_error, tree=tree, oracle=oracle,
                )
                if s.startswith("dense"):
                    dense[s] = report
                reports.append(report)
    return reports


def ratio_table(reports: Iterable[RunReport]) -> list[tuple[int, float, float, float]]:
    """(n, tau, c16/c4, t16/t4) for every (n, tau) holding both scenarios."""
    fours = {}
    for r in reports:
        if r.scenario == "spamm4":
            fours[(r.n, r.tau)] = r
    rows = []
    for r in reports:
        if r.scenario != "spamm16":
            continue
        base = fours.get((r.n, r.tau))
        if base is None or base.products4 == 0 or base.seconds <= 0:
            continue
        rows.append(
            (r.n, r.tau, r.products4 / base.products4, r.seconds / base.seconds)
        )
    return rows


def ratios_to_csv(rows: Iterable[tuple[int, float, float, float]]) -> str:
    lines = [RATIO_HEADER]
    lines.extend(f"{n},{tau:.6g},{c:.6g},{t:.6g}" for n, tau, c, t in rows)
    return "\n".join(lines) + "\n"


@dataclass
class CalibrationResult:
    """Outcome of a tau search against an error target."""

    tau: float
    error: float
    target: float
    granularity: str
    trace: list[tuple[float, float]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """The error meets the target and some probe missed it, so the
        target was bracketed; a tau that only the search bound capped is not
        converged."""
        return self.error <= self.target and any(e > self.target for _, e in self.trace)


def calibrate_tau(
    tree: QuadtreeMatrix,
    oracle: DenseMatrix,
    target: float,
    granularity: str = "fine4",
    lo: float = 1e-12,
    hi: float = 1e-3,
    iters: int = 8,
) -> CalibrationResult:
    """Largest tau keeping max-norm error of C = A A within `target`.

    Bisection in log tau: each step probes the geometric midpoint and keeps
    the half interval that brackets the target.  The floor `lo` is probed
    first; if even that misses the target, it is returned unconverged.  If
    every probe meets the target, the result is the last probe below `hi`,
    also unconverged: the bound, not the error, set it.
    """
    if not target > 0:
        raise ValueError(f"target must be positive, got {target}")
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    if iters < 1:
        raise ValueError(f"iters must be positive, got {iters}")

    def err_at(tau: float) -> float:
        c, _, _ = multiply(tree, tree, MultiplyConfig(tau=tau, granularity=granularity))
        return max_norm_error(c.to_dense(), oracle).delta

    trace = []
    e_lo = err_at(lo)
    trace.append((lo, e_lo))
    if e_lo > target:
        return CalibrationResult(lo, e_lo, target, granularity, trace)
    best_tau, best_err = lo, e_lo
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        e = err_at(mid)
        trace.append((mid, e))
        if e <= target:
            lo, best_tau, best_err = mid, mid, e
        else:
            hi = mid
    return CalibrationResult(best_tau, best_err, target, granularity, trace)
