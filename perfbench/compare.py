"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the output of several runs of one
workload; only the result lines (the JSON object each run prints last)
are read.  A metric regresses when NEW's median is worse than BASE's
median by more than the metric's bound, as a share of BASE's median.
When BASE's own quartile spread is wider than the bound, a change
within that spread is reported as unresolved, not as unchanged.  Exits
1 when any metric regresses.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(path) -> list:
    results = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            payload = json.loads(line)
            if "metrics" in payload:
                results.append(payload)
    return results


def spread(values) -> float:
    """Quartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base, new, spec) -> list:
    """One row per end-to-end metric present in both sets of runs."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        before = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        after = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not before or not after:
            continue
        base_median, new_median = statistics.median(before), statistics.median(after)
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse_by = sign * (new_median - base_median) / base_median
        if worse_by > metric["bound"]:
            status = "REGRESSION"
        elif abs(worse_by) <= spread(before) and spread(before) > metric["bound"]:
            status = "unresolved"
        else:
            status = "ok"
        rows.append(
            {
                "name": name,
                "unit": metric["unit"],
                "base": base_median,
                "new": new_median,
                "worse_by": worse_by,
                "bound": metric["bound"],
                "status": status,
            }
        )
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_results(args[0]), load_results(args[1]), spec)
    for row in rows:
        print(
            f"{row['name']:<14} {row['base']:>12.5g} -> {row['new']:<12.5g} "
            f"{row['unit']:<5} worse by {row['worse_by']:+.1%} "
            f"(bound {row['bound']:.0%})  {row['status']}"
        )
    return 1 if any(row["status"] == "REGRESSION" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
