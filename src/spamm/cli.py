"""Command line front end.

    spamm generate   make a synthetic decay matrix and write it out
    spamm multiply   product of two MatrixMarket files under a scenario
    spamm verify     product vs the double-precision reference
    spamm bench      timed scenario grid over n and tau, CSV out
    spamm sweep-tau  bisect tau against an error target, tau table out

Exit codes: 0 on success, also when the reader of stdout closes it early
(`spamm ... | head`), 1 when a verify limit is exceeded, 2 for bad
arguments, for values or products that overflow float32 and for arrays too
large to allocate, 3 for I/O and file format problems.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .bench import (
    BENCH_BLOCK,
    SCENARIOS,
    _csv,
    _product,
    calibrate_tau,
    ratio_table,
    ratios_to_csv,
    reports_to_csv,
    sweep,
)
from .core import DEFAULT_BLOCK, QuadtreeMatrix
from .generators import KINDS, GeneratorSpec, generate
from .io import MatrixFormatError, load_matrix, save_matrix, save_quadtree
from .numeric import GRANULARITIES
from .reference import dense_multiply_double, max_norm_error

__all__ = ["main", "build_parser", "CALIBRATION_HEADER"]

CALIBRATION_HEADER = "granularity,n,target,tau,error,converged"


def _csv_list(item, what, allowed=None):
    """argparse type: a nonempty comma list of `item`s, each in `allowed` if given."""

    def parse(text: str) -> tuple:
        try:
            vals = tuple(item(p.strip()) for p in text.split(",") if p.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma list of {what}s: {text!r}")
        if not vals:
            raise argparse.ArgumentTypeError(f"empty {what} list")
        for v in vals:
            if allowed is not None and v not in allowed:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {v!r}, choose from {', '.join(allowed)}"
                )
        return vals

    return parse


def _add_generator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=KINDS, default="exponential",
                   help="decay profile (default: exponential)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="decay parameter (default: 0.5)")
    p.add_argument("--c", type=float, default=1.0,
                   help="envelope scale (default: 1.0)")
    p.add_argument("--blocks", type=_csv_list(int, "integer"), default=(),
                   help="block sizes for --kind blocked-decay, e.g. 1,5")
    p.add_argument("--seed", type=int, default=0,
                   help="generator seed (default: 0)")
    p.add_argument("--symmetrize", action="store_true",
                   help="mirror the upper triangle onto the lower")


def _add_product_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", help="left operand, MatrixMarket")
    p.add_argument("b", nargs="?", default=None,
                   help="right operand (default: reuse A, computing A A)")
    p.add_argument("--scenario", choices=SCENARIOS, default="spamm4",
                   help="product path (default: spamm4)")
    p.add_argument("--tau", type=float, default=0.0,
                   help="norm-product tolerance (default: 0, exact)")
    p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK,
                   help=f"quadtree leaf size (default: {DEFAULT_BLOCK})")


def _spec_from_args(args, n: int) -> GeneratorSpec:
    return GeneratorSpec(
        kind=args.kind, n=n, lam=args.lam, c=args.c,
        blocks=tuple(args.blocks), seed=args.seed, symmetrize=args.symmetrize,
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spamm",
        description="sparse approximate matrix multiply for matrices with decay",
    )
    top.add_argument("--version", action="version", version=f"spamm {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic decay matrix")
    _add_generator_args(g)
    g.add_argument("--n", type=int, required=True, help="matrix dimension")
    g.add_argument("--out", required=True, help="output MatrixMarket path")
    g.add_argument("--layout", choices=("array", "coordinate"), default="array",
                   help="MatrixMarket layout (default: array)")

    m = sub.add_parser("multiply", help="C = alpha A B + beta C from files")
    _add_product_args(m)
    m.add_argument("--alpha", type=float, default=1.0)
    m.add_argument("--beta", type=float, default=0.0)
    m.add_argument("--c-in", default=None,
                   help="accumulator matrix, required when beta is nonzero")
    m.add_argument("--out", default=None, help="write C as MatrixMarket")
    m.add_argument("--tree-out", default=None, help="write C as a binary tree dump")

    v = sub.add_parser("verify", help="compare a product to float64")
    _add_product_args(v)
    v.add_argument("--limit", type=float, default=None,
                   help="exit 1 when the max-norm error exceeds this")

    b = sub.add_parser("bench", help="timed scenario grid on synthetic matrices")
    _add_generator_args(b)
    b.add_argument("--n", type=_csv_list(int, "integer"), default=(256, 512),
                   help="matrix dimensions, comma list (default: 256,512)")
    b.add_argument("--tau", type=_csv_list(float, "number"), default=(1e-8,),
                   help="tolerances, comma list (default: 1e-8)")
    b.add_argument("--scenario", type=_csv_list(str, "scenario", SCENARIOS),
                   default=SCENARIOS,
                   help=f"comma list from: {', '.join(SCENARIOS)} (default: all)")
    b.add_argument("--repeats", type=int, default=5,
                   help="timing repeats, median reported (default: 5)")
    b.add_argument("--no-error", action="store_true",
                   help="skip the float64 oracle and error column")
    b.add_argument("--out", default="-", help="CSV path (default: stdout)")
    b.add_argument("--ratios-out", default=None,
                   help="also write the 16-vs-4 ratio table to this path")

    s = sub.add_parser("sweep-tau",
                       help="calibrate tau to an error target by bisection")
    _add_generator_args(s)
    s.add_argument("--n", type=int, default=1024, help="matrix dimension")
    s.add_argument("--target", type=float, default=1e-6,
                   help="max-norm error target (default: 1e-6)")
    s.add_argument("--granularity", type=_csv_list(str, "granularity", GRANULARITIES),
                   default=GRANULARITIES,
                   help="comma list (default: fine4,coarse16)")
    s.add_argument("--tau-lo", type=float, default=1e-12)
    s.add_argument("--tau-hi", type=float, default=1e-3)
    s.add_argument("--iters", type=int, default=8)
    s.add_argument("--out", default="-", help="CSV path (default: stdout)")
    return top


def _run_product(args, a, b, alpha=1.0, beta=0.0, c_in=None):
    """Product of dense operands under args.scenario, by bench._product.

    `c_in` is the dense accumulator, or None; when `b is a` the tree scenarios
    build one tree for both sides.  Returns (result dense, result tree or
    None, plan or None, counters or None).
    """
    if args.scenario.startswith("spamm"):
        qa = QuadtreeMatrix.from_dense(a, args.block_size)
        b = qa if b is a else QuadtreeMatrix.from_dense(b, args.block_size)
        c_in = None if c_in is None else QuadtreeMatrix.from_dense(c_in, args.block_size)
        a = qa
    c, plan, counters = _product(args.scenario, a, b, args.tau, alpha, beta, c_in)
    if plan is None:
        return c, None, None, None
    return c.to_dense(), c, plan, counters


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args, args.n)
    save_matrix(args.out, generate(spec), layout=args.layout)
    print(f"wrote {spec.kind} {spec.n}x{spec.n} matrix to {args.out}")
    return 0


def _cmd_multiply(args) -> int:
    if args.beta != 0.0 and args.c_in is None:
        raise ValueError("nonzero beta needs --c-in")
    c_in = None if args.c_in is None else load_matrix(args.c_in)
    a = load_matrix(args.a)
    b = a if args.b is None else load_matrix(args.b)
    result, c, plan, counters = _run_product(args, a, b, args.alpha, args.beta, c_in)
    # files first: a reader that leaves stdout early (`| head`) cannot cut them short
    if args.out:
        save_matrix(args.out, result)
    if args.tree_out:
        save_quadtree(args.tree_out, c if c is not None
                      else QuadtreeMatrix.from_dense(result.data, args.block_size))
    if plan is not None:
        st = plan.stats
        print(f"plan: tasks={len(plan.a_slot)} examined={st.examined} pruned={st.pruned}")
        print(f"exec: products4={counters.products4} skipped4={counters.skipped4} "
              f"mirrored={counters.mirrored} seconds={counters.seconds:.6g} "
              f"kernel={counters.kernel} threads={counters.threads}")
    print(f"C: {result.m}x{result.n} norm={result.frobenius():.6g}")
    if args.out:
        print(f"wrote product to {args.out}")
    if args.tree_out:
        print(f"wrote product tree to {args.tree_out}")
    return 0


def _cmd_verify(args) -> int:
    if args.limit is not None and math.isnan(args.limit):
        raise ValueError("--limit must be a number, got nan")
    a = load_matrix(args.a)
    b = a if args.b is None else load_matrix(args.b)
    result, _, _, _ = _run_product(args, a, b)
    rep = max_norm_error(result, dense_multiply_double(a, b))
    print(f"max_norm_error={rep.delta:.9e} at ({rep.row}, {rep.col}) "
          f"tau={args.tau:.6g} scenario={args.scenario}")
    if args.limit is not None and rep.delta > args.limit:
        print(f"error exceeds limit {args.limit:.6g}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    base = _spec_from_args(args, max(args.n))

    def make(n):
        return generate(replace(base, n=n))

    reports = sweep(
        make, args.n, args.tau, scenarios=args.scenario,
        repeats=args.repeats, compute_error=not args.no_error,
    )
    _write_text(args.out, reports_to_csv(reports))
    if args.ratios_out:
        _write_text(args.ratios_out, ratios_to_csv(ratio_table(reports)))
    return 0


def _cmd_sweep_tau(args) -> int:
    spec = _spec_from_args(args, args.n)
    a = generate(spec)
    tree = QuadtreeMatrix.from_dense(a.data, BENCH_BLOCK)
    oracle = dense_multiply_double(a, a)
    rows, taus = [], {}
    for g in args.granularity:
        r = calibrate_tau(tree, oracle, args.target, g,
                          lo=args.tau_lo, hi=args.tau_hi, iters=args.iters)
        taus[g] = r.tau
        rows.append((g, args.n, r.target, r.tau, r.error, r.converged))
    _write_text(args.out, _csv(CALIBRATION_HEADER, rows))
    if "fine4" in taus and "coarse16" in taus and taus["fine4"] > 0:
        print(f"tau(coarse16)/tau(fine4) = {taus['coarse16'] / taus['fine4']:.3g}",
              file=sys.stderr)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "multiply": _cmd_multiply,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "sweep-tau": _cmd_sweep_tau,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed its end, as `| head` does: end quietly, like a
        # Unix filter, and send what is still buffered to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (OSError, MatrixFormatError) as exc:
        print(f"spamm: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"spamm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
