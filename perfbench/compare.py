"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records that `perfbench/run.py --results DIR`
writes.  Per workload and metric it prints each side's median and
quartiles, the change's delta against the base median, and for end-to-end
metrics the bound from BENCHMARK.json.  A metric whose spread (quartile
distance over median) on either side exceeds its bound is "unresolved",
unless every change run beats every base run.  The report never gates: the
exit code is 0 whatever the deltas.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """(workload, metric) -> list of values, over every correct run."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if not record["result"]["correct"]:
            print(f"skipping {path}: run was not correct", file=sys.stderr)
            continue
        workload = record["provenance"]["workload"]
        for name, metric in record["result"]["metrics"].items():
            runs[workload, name].append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, spec) -> str:
    """How the change's median compares with the base's, for a metric with a bound."""
    if spec is None or "bound" not in spec:
        return "-"
    lower = spec["better"] == "lower"
    b_med, c_med = statistics.median(base), statistics.median(change)
    worse = (c_med - b_med) / abs(b_med) if b_med else 0.0
    if not lower:
        worse = -worse
    noise = max(spread(base), spread(change))
    if noise > spec["bound"]:
        all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
        return "better (every run)" if all_better else "unresolved"
    if worse > spec["bound"]:
        return "WORSE than bound"
    if abs(worse) <= noise:
        return "no change beyond spread"
    return "better" if worse < 0 else "worse, within bound"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_runs(args.base), load_runs(args.change)
    rows = [("workload", "metric", "runs", "base median [q1, q3]",
             "change median [q1, q3]", "delta", "bound", "verdict")]
    for key in sorted(set(base) & set(change)):
        workload, name = key
        b, c = base[key], change[key]
        bq, cq = quartiles(b), quartiles(c)
        delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        bound = specs.get(name, {}).get("bound")
        rows.append((
            workload, name, f"{len(b)}/{len(c)}",
            f"{bq[1]:.6g} [{bq[0]:.4g}, {bq[2]:.4g}]",
            f"{cq[1]:.6g} [{cq[0]:.4g}, {cq[2]:.4g}]",
            f"{100 * delta:+.1f}%", "-" if bound is None else f"{bound:.2f}",
            verdict(b, c, specs.get(name)),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]} {key[1]}: only in {'base' if key in base else 'change'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
