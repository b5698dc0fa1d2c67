#!/usr/bin/env python3
"""Summarise or compare sets of benchmark runs.

Save the standard output of runs to files (several runs may share one
file), then::

    python3 perfbench/compare.py runs.log            # spread of one set
    python3 perfbench/compare.py before.log after.log

For one set it prints, per workload and end-to-end metric, the median
and the quartile spread ``(Q3 - Q1) / median`` next to the metric's
bound from ``BENCHMARK.json``.  For two sets it prints each median and
the change, and marks a metric worse by more than its bound.  It refuses
to compare runs whose host or engine records differ (a host without a C
compiler runs the NumPy engine instead of the native kernel), and exits
non-zero if any run was incorrect or any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_runs(path: str):
    """``(header, result)`` pairs, one per run found in ``path``."""
    runs, header = [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("perfbench-run "):
            header = json.loads(line[len("perfbench-run "):])
        elif line.startswith("{") and header is not None:
            runs.append((header, json.loads(line)))
            header = None
    return runs


def host_record(header) -> str:
    env = header["env"]
    return json.dumps({"host": env["host"], "engine": env["engine"]}, sort_keys=True)


def by_workload(runs):
    values = defaultdict(lambda: defaultdict(list))
    for header, result in runs:
        for name, metric in result["metrics"].items():
            values[header["workload"]][name].append(metric["value"])
    return values


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [read_runs(path) for path in argv]
    hosts = {host_record(header) for runs in sets for header, _ in runs}
    if len(hosts) != 1:
        print("refusing to compare: host or engine records differ:", file=sys.stderr)
        for record in sorted(hosts):
            print(f"  {record}", file=sys.stderr)
        return 2
    status = 0
    for runs in sets:
        bad = [(h["workload"], h["seed"]) for h, r in runs if not r["correct"]]
        if bad:
            print(f"incorrect runs: {bad}")
            status = 1
    tables = [by_workload(runs) for runs in sets]
    for workload in sorted(tables[0]):
        for name, values in sorted(tables[0][workload].items()):
            if name not in metrics:
                continue
            bound = metrics[name]["bound"]
            lower = metrics[name]["better"] == "lower"
            line = (f"{workload:6s} {name:12s} n={len(values):2d} "
                    f"median={statistics.median(values):10.4f}")
            if len(values) >= 2:
                line += f" spread={spread(values):6.3f} (bound {bound})"
            if len(tables) == 2:
                after = tables[1].get(workload, {}).get(name)
                if not after:
                    line += "  missing in second set"
                    status = 1
                else:
                    a, b = statistics.median(values), statistics.median(after)
                    worse = (b - a) / a if lower else (a - b) / a
                    line += f"  -> {b:10.4f} ({worse:+.3f} worse)"
                    if worse > bound:
                        line += "  REGRESSION"
                        status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
