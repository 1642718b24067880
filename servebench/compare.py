#!/usr/bin/env python3
"""Compare two sets of servebench results measured on the same host.

    python3 servebench/compare.py BASE.log HEAD.log

Each file holds the standard output of one or more benchmark runs. For
every workload and metric the script prints each side's median and
quartiles and the HEAD/BASE ratio, and marks an end-to-end metric that
got worse by more than its bound in BENCHMARK.json.

Results are only comparable when they come from the same host: the
script refuses (exit 2) when the CPU model, core count, kernel or rustc
differ between any two runs, instead of dividing numbers that measure
different machines.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("cpu", "nproc", "kernel", "rustc")


def load(path):
    """Details objects of every run in the file, in order."""
    runs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith('{"servebench":'):
            runs.append(json.loads(line)["servebench"])
    if not runs:
        sys.exit(f"compare: no servebench results in {path}")
    return runs


def host(run):
    return {key: run["provenance"][key] for key in HOST_KEYS}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, head = load(argv[1]), load(argv[2])
    reference = host(base[0])
    for path, runs in ((argv[1], base), (argv[2], head)):
        for run in runs:
            if host(run) != reference:
                print(f"compare: refusing: {path} has a run from {host(run)}, "
                      f"but {argv[1]} starts with one from {reference}", file=sys.stderr)
                return 2
    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    worse = 0
    workloads = sorted({(r["workload"], r["trace"]) for r in base + head})
    for workload, trace in workloads:
        sides = [[r for r in runs if (r["workload"], r["trace"]) == (workload, trace)]
                 for runs in (base, head)]
        if not all(sides):
            print(f"{workload} (trace {trace}): only one side has runs; skipped")
            continue
        print(f"{workload} (trace {trace}): {len(sides[0])} base runs, {len(sides[1])} head runs")
        for name in sides[0][0]["metrics"]:
            values = [[r["metrics"][name]["value"] for r in side] for side in sides]
            (b1, bm, b3), (h1, hm, h3) = summary(values[0]), summary(values[1])
            ratio = hm / bm if bm else float("nan")
            note = ""
            spec = bounds.get(name)
            if spec and trace == 0:
                change = (hm - bm) / bm if spec["better"] == "lower" else (bm - hm) / bm
                if change > spec["bound"]:
                    note = f"  WORSE by {change:.1%} > bound {spec['bound']:.0%}"
                    worse += 1
            unit = sides[0][0]["metrics"][name]["unit"]
            print(f"  {name:24} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  head {hm:.6g} [{h1:.6g}, {h3:.6g}] "
                  f"{unit}  head/base {ratio:.4f}{note}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
