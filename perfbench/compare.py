"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files written by run.py, or directories of them
(perfbench/out/ by default holds one file per run).  For each workload and
metric it prints the median of each side, each side's quartile spread as a
share of its median, and the change of the median.  An end-to-end metric is
WORSE when the new median is worse than the old one by more than the bound
in BENCHMARK.json, and UNRESOLVED when a spread is wider than that bound
and not every new run reads better than every old one.
Exits 1 when any metric is WORSE.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: Path) -> dict:
    """{workload: {metric: [values]}} over the result files at path."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        rec = json.loads(f.read_text())
        key = rec["workload"] + (" (small)" if rec["small"] else "")
        for name, m in rec["result"]["metrics"].items():
            if m["value"] is not None:
                out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def spread(values: list) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (load(Path(p)) for p in argv)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    worse_any = False
    print(f"{'workload':18} {'metric':24} {'old':>11} {'new':>11} {'change':>8} "
          f"{'spread':>13}  verdict")
    for key in sorted(old.keys() & new.keys()):
        for name in sorted(old[key].keys() & new[key].keys()):
            a, b = old[key][name], new[key][name]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            sa, sb = spread(a), spread(b)
            verdict = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                lower = better[name] == "lower"
                worse = change if lower else -change
                all_better = max(b) < min(a) if lower else min(b) > max(a)
                if max(sa, sb) > bound and not all_better:
                    verdict = "UNRESOLVED"
                elif worse > bound:
                    verdict, worse_any = "WORSE", True
                else:
                    verdict = f"ok (bound {bound:.0%})"
            print(f"{key:18} {name:24} {ma:11.4g} {mb:11.4g} {change:+8.1%} "
                  f"{sa:6.1%}/{sb:6.1%}  {verdict}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
