"""Compare two sets of end-to-end benchmark runs, metric by metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``run.py --out DIR`` writes, one per
workload and seed. For every workload and end-to-end metric of
``BENCHMARK.json`` the table gives each side's median and quartiles, the
share of (parent, change) run pairs the change wins (ties count for
neither) and a verdict:

* ``improved`` — the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's interquartile range;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — not regressed, but the parent's own spread is wider
  than the bound and the change does not beat every parent run;
* ``no-worse`` — otherwise.

The exit code is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the run records in ``directory``."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        if path.name.startswith("TRACE_"):
            continue
        record = json.loads(path.read_text())
        for line in record["lines"]:
            values[(line["workload"], line["metric"])].append(float(line["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    """The verdict of ``change`` against ``parent`` and the change's win share."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(p, c) for p in parent for c in change]
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 and gain > p3 - p1:
        return "improved", wins
    if -gain > bound * abs(p_med):
        return "regressed", wins
    if (p3 - p1) > bound * abs(p_med) and wins < 1.0:
        return "unresolved", wins
    return "no-worse", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)

    header = (
        f"{'workload':18} {'metric':17} {'n':>5} "
        f"{'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>5}  verdict"
    )
    print(header)
    print("-" * len(header))
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if not parent.get(key) or not change.get(key):
                print(f"{workload:18} {metric['name']:17}  missing on one side")
                regressed = True
                continue
            result, wins = verdict(
                parent[key], change[key], metric["better"], metric["bound"]
            )
            regressed |= result == "regressed"
            cells = [
                "/".join(f"{q:.4g}" for q in quartiles(side[key]))
                for side in (parent, change)
            ]
            n = f"{len(parent[key])}/{len(change[key])}"
            print(
                f"{workload:18} {metric['name']:17} {n:>5} "
                f"{cells[0]:>32} {cells[1]:>32} {wins:5.2f}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
