"""The three workloads: set-up, one round of operations, and the checks.

Each workload owns its inputs (made by checks.py from the seed), builds its
operand trees in set-up, and runs rounds of operations: one product for
square-1024 and exact-512, one whole purification chain for purify-1024.
The library is reached only through its public functions, each call
wrapped by the tracer.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import checks
from probe import Probe
from spans import Tracer

from spamm.core import QuadtreeMatrix
from spamm.numeric import MultiplyConfig, execute_plan
from spamm.symbolic import build_plan

SETUP_REPS = 5      # operand builds before the first operation
TAU = 1e-8          # the paper's regime: below 2e-8 SpAMM beats SGEMM's error


class Workload:
    """Set-up times: builds of the operand tree from its dense input.

    Besides SETUP_REPS builds at set-up, one more build follows every
    operation (outside its timing), so `setup_s` spans the whole run
    rather than the second it starts in; on a shared machine a build
    slows by a third at times.  A host-speed probe runs after every build,
    so its times cover the same stretch of the run as the times it scales.
    """

    def time_build(self, tracer: Tracer, dense: np.ndarray) -> QuadtreeMatrix:
        gc.collect()
        t0 = time.perf_counter()
        tree = tracer.call("core.from_dense", QuadtreeMatrix.from_dense, dense)
        self.setup_times.append(time.perf_counter() - t0)
        self.probe.run()
        return tree

    def build(self, tracer: Tracer, dense: np.ndarray) -> QuadtreeMatrix:
        self.setup_times = []
        self.probe = Probe()
        for _ in range(SETUP_REPS):
            tree = self.time_build(tracer, dense)
        return tree


def _counts(plan, counters, c: QuadtreeMatrix) -> dict:
    return {
        "tasks": len(plan.tasks),
        "examined": plan.stats.examined,
        "pruned": plan.stats.pruned,
        "products4": counters.products4,
        "skipped4": counters.skipped4,
        "c_leaves": c.leaf_count,
    }


def _multiply(tracer: Tracer, a, b, c, cfg: MultiplyConfig):
    """build_plan + execute_plan, as spamm.numeric.multiply runs them."""
    plan = tracer.call("symbolic.build_plan", build_plan, a, b, cfg.tau)
    out, counters = tracer.call("numeric.execute_plan", execute_plan, plan, a, b, c, cfg)
    return out, _counts(plan, counters, out)


class Squaring(Workload):
    """C = A A on a resident operand tree, one product per operation."""

    def __init__(self, n: int, tau: float):
        self.n, self.tau = n, tau

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.a = self.operand = checks.decay_matrix(self.n, np.random.default_rng(seed))
        self.tree = self.build(tracer, self.a)
        self.leaves, self.n_b, self.steps = self.tree.leaf_count, self.tree.n_b, 0
        self.info = {"n": self.n, "tau": self.tau, "seed": seed, "lambda": checks.LAMBDA,
                     "block_sizes": checks.BLOCK_SIZES}
        self.cfg = MultiplyConfig(tau=self.tau, granularity="fine4")
        self.first = None
        self.counts = None
        _multiply(tracer, self.tree, self.tree, None, self.cfg)  # warm-up

    def round(self, tracer: Tracer) -> None:
        gc.collect()
        with tracer.op("op.multiply") as op:
            c, op.counts = _multiply(tracer, self.tree, self.tree, None, self.cfg)
        dense = tracer.call("core.to_dense", c.to_dense).data
        self.time_build(tracer, self.a)
        if self.first is None:
            self.first, self.counts = dense, op.counts
        else:
            checks.check_repeatable(self.first, dense)
            if op.counts != self.counts:
                raise checks.CheckFailed(f"counts moved: {op.counts} vs {self.counts}")

    def check(self) -> tuple[float, float]:
        """Checks the product; returns its (block, max-norm) error."""
        a64 = self.a.astype(np.float64)
        exact = a64 @ a64
        if self.tau == 0:
            checks.check_exact_product(self.a, self.first, self.counts)
        else:
            checks.check_pruned_product(self.a, self.first, exact, self.tau)
        return checks.errors(self.first, exact)


class Purification(Workload):
    """Second-order trace-correcting purification of a gapped Hamiltonian.

    One operation is one step: read tr(X) through to_dense, then form
    X <- X X when the trace is above the occupation, else X <- 2X - X X on
    the accumulator path (alpha = -1, beta = 2, C = X).
    """

    def __init__(self, n: int, tau: float):
        self.n, self.tau = n, tau

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.h, self.nocc = checks.hamiltonian(self.n, np.random.default_rng(seed))
        self.x0 = self.operand = checks.purification_start(self.h)
        tree = self.build(tracer, self.x0)
        self.leaves, self.n_b = tree.leaf_count, tree.n_b
        self.info = {"n": self.n, "tau": self.tau, "seed": seed, "lambda": checks.LAMBDA,
                     "block_sizes": checks.BLOCK_SIZES, "coupling": checks.COUPLING,
                     "onsite": checks.ONSITE, "occupation": self.nocc}
        self.square = MultiplyConfig(tau=self.tau, granularity="fine4")
        self.grow = MultiplyConfig(tau=self.tau, granularity="fine4", alpha=-1.0, beta=2.0)
        self.first = None
        self.steps = 0

    def round(self, tracer: Tracer) -> None:
        # the accumulator path overwrites X, so every chain starts from a new tree
        x = self.time_build(tracer, self.x0)
        traces = []
        while len(traces) < checks.MAX_STEPS:
            gc.collect()
            with tracer.op("op.purify_step") as op:
                d = tracer.call("core.to_dense", x.to_dense).data
                traces.append(float(np.trace(d, dtype=np.float64)))
                if traces[-1] > self.nocc:
                    x, op.counts = _multiply(tracer, x, x, None, self.square)
                else:
                    x, op.counts = _multiply(tracer, x, x, x, self.grow)
            self.time_build(tracer, self.x0)
            if len(traces) > 1 and abs(traces[-1] - traces[-2]) < checks.STOP_TRACE:
                break
        else:
            raise checks.CheckFailed(f"no convergence in {checks.MAX_STEPS} steps")
        final = tracer.call("core.to_dense", x.to_dense).data
        if self.first is None:
            self.first, self.steps = final, len(traces)
        else:
            checks.check_repeatable(self.first, final)

    def check(self) -> tuple[float, float]:
        """Checks the final X; returns its (block, max-norm) error against P."""
        projector, self.info["gap"] = checks.spectrum_summary(self.h, self.nocc)
        checks.check_purified(self.first, projector, self.nocc)
        return checks.errors(self.first, projector)


FULL = {
    "square-1024": lambda: Squaring(1024, TAU),
    "exact-512": lambda: Squaring(512, 0.0),
    "purify-1024": lambda: Purification(1024, TAU),
}

# Same code and checks on sizes that run in seconds, for the tests.
SMALL = {
    "square-1024": lambda: Squaring(128, TAU),
    "exact-512": lambda: Squaring(64, 0.0),
    "purify-1024": lambda: Purification(128, TAU),
}
