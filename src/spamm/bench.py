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

_product maps a scenario to the code that runs it, for run_scenario and
for the CLI's multiply and verify alike, and _csv writes every table here
and in the CLI, each cell by one rule.  CSV output is one fixed header
plus one row per run; work ratios between the two gating granularities go
in a separate small table rather than extra columns.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import astuple, dataclass, field, replace
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
from .symbolic import _check_tau, build_plan

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

_GRAIN = {
    "spamm4": "fine4",
    "spamm16": "coarse16",
    "spamm-dense-leaf": "dense16",
    "dense-single": "none",
    "dense-double": "none",
}

SCENARIOS = tuple(_GRAIN)

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


def _csv_row(cells: Iterable) -> str:
    """One CSV line: a float cell by %.6g, a bool in lower case, any other by str."""
    return ",".join(f"{x:.6g}" if isinstance(x, float) else
                    str(x).lower() if isinstance(x, bool) else str(x) for x in cells)


def _csv(header: str, rows: Iterable[Iterable]) -> str:
    """A table: the header line, then one _csv_row line per row."""
    return "".join(line + "\n" for line in [header, *map(_csv_row, rows)])


def _product(scenario, a, b, tau, alpha=1.0, beta=0.0, c=None):
    """C = alpha A B + beta C under a scenario, as (C, plan, counters).

    The spamm scenarios take and return trees; the dense ones take and
    return DenseMatrix and return no plan or counters.  Every scenario
    rejects a bad tau, the dense ones too, though they do not read it; a
    shape fault is reported first.
    """
    if scenario.startswith("dense") and a.n == b.m:  # else the product names the shapes
        _check_tau(tau)
    if scenario == "dense-double":
        return dense_multiply_double(a, b, alpha, beta, c), None, None
    if scenario == "dense-single":
        if alpha != 1.0 or beta != 0.0:
            raise ValueError("dense-single supports only alpha=1, beta=0")
        return dense_multiply_single(a, b), None, None
    # plan first, so a shape fault is reported before a bad tau, alpha or beta
    plan = build_plan(a, b, tau)
    if scenario == "spamm-dense-leaf":
        c, counters = execute_plan_dense_leaf(plan, a, b, c, alpha, beta)
    else:
        cfg = MultiplyConfig(tau, _GRAIN[scenario], alpha, beta)
        c, counters = execute_plan(plan, a, b, c, cfg)
    return c, plan, counters


def reports_to_csv(reports: Iterable[RunReport]) -> str:
    return _csv(CSV_HEADER, map(astuple, reports))


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
    absent.  The dense baselines check tau but do not read it (it is only
    recorded in the report).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if a.m != a.n:
        raise ValueError(f"benchmark squares its input, got {a.m}x{a.n}")
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    n = a.n
    x = a
    if scenario.startswith("spamm"):
        x = QuadtreeMatrix.from_dense(a.data, BENCH_BLOCK) if tree is None else tree
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        c, _, counters = _product(scenario, x, x, tau)
        times.append(time.perf_counter() - t0)
    if counters is None:
        # classical work, expressed in the same 4x4x4 product unit
        result, products4 = c, (n * n * n) // 64
    else:
        result, products4 = c.to_dense(), counters.products4
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
        tau=float(tau),
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
    shared across the whole tau grid.  The dense baselines do not read tau,
    so each runs once per n and its report is repeated at every tau; every
    tau of the grid is checked first.
    """
    for s in scenarios:
        if s not in SCENARIOS:
            raise ValueError(f"unknown scenario {s!r}")
    for tau in taus:
        _check_tau(tau)
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
                    reports.append(replace(dense[s], tau=float(tau)))
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
    return _csv(RATIO_HEADER, rows)


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
