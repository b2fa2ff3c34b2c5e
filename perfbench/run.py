"""SpAMM benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload square-1024 --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src.  The last
line of standard output is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics (setup_s, op_s, peak_rss_mb, max_err;
the two times scaled to a reference host speed, see probe.py), with
--trace 1 the per-layer metrics.  The same object, the workload's
inputs and (traced) every span go to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS threads capped at the cores this process may use, set before numpy loads.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CORES


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "spamm" / "__init__.py").is_file():
        sys.exit(f"run.py: no spamm package under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true",
                   help="run the workload at test size (seconds, not minutes)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    from measure import run_workload

    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.small)
    OUT.mkdir(exist_ok=True)
    size = "small" if args.small else "full"
    path = OUT / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
