#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by ``run.py`` (``perfbench/out/``
copied aside after each set of runs).  Records taken with different kernels
are not comparable, so the comparison is refused when the kernels differ.
For every end-to-end metric of every workload it prints both medians, the
base's quartile spread as a share of its median, the change, and whether
the change is worse than the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        sys.exit(f"compare: no records in {directory}")
    return records


def by_metric(records):
    out: dict = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["meta"]["workload"], r["meta"]["trace"], name), []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    kernels = {r["meta"]["kernel"] for r in base + new}
    if len(kernels) != 1:
        sys.exit(f"compare: refusing to compare records taken with different kernels: {sorted(kernels)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    a, b = by_metric(base), by_metric(new)
    worse = 0
    print(f"kernel {kernels.pop()}; bound = allowed worsening as a share of the base median")
    for key in sorted(set(a) & set(b)):
        workload, trace, name = key
        if trace or name not in bounds:
            continue
        bound, better = bounds[name]
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / ma if ma else float("nan")
        bad = change > bound if better == "lower" else -change > bound
        worse += bad
        print(f"{workload:<14} {name:<12} base {ma:<12.6g} new {mb:<12.6g} "
              f"base spread {spread(a[key]):6.3f}  change {change:+7.3f}  bound {bound}"
              f"{'  WORSE' if bad else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
