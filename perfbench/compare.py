#!/usr/bin/env python3
"""Compare saved benchmark outputs of two commits.

Usage:

    python3 perfbench/compare.py BASE.txt... -- CHANGE.txt...

Each file is the standard output of one `perfbench/run.py` run. The
script refuses (exit 2) when the runs' host and build stamps differ:
nproc, compiler, build type, SIMD dispatch level, REAPER_SIMD or
REAPER_OBS. The git sha and source digest are expected
to differ and are only printed. Otherwise it prints, per workload and
metric, each side's median and quartiles and the change of the medians.
"""

import json
import statistics
import sys

# Stamp keys that must match for two runs to be comparable.
HOST_KEYS = ("nproc", "compiler", "build_type", "simd_level",
             "REAPER_SIMD", "REAPER_OBS")


def load(path):
    stamp, result = None, None
    with open(path) as f:
        lines = f.read().splitlines()
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    if lines:
        result = json.loads(lines[-1])
    if stamp is None or result is None:
        sys.exit(f"{path}: not a perfbench output")
    return stamp, stamp.get("workload", "?"), result


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    sides = [[load(p) for p in argv[:cut]], [load(p) for p in argv[cut + 1:]]]
    if not sides[0] or not sides[1]:
        sys.exit(__doc__)
    ref = sides[0][0][0]
    for side in sides:
        for stamp, _, _ in side:
            diff = [k for k in HOST_KEYS if stamp.get(k) != ref.get(k)]
            if diff:
                print("refusing to compare: stamps differ in " +
                      ", ".join(f"{k} ({ref.get(k)} vs {stamp.get(k)})"
                                for k in diff))
                return 2
    for name, side in (("base", sides[0]), ("change", sides[1])):
        shas = sorted({s.get("git_sha", "?") for s, _, _ in side})
        print(f"{name}: {len(side)} runs, git {', '.join(shas)}")

    rows = {}
    for i, side in enumerate(sides):
        for _, workload, result in side:
            if not result.get("correct"):
                print(f"warning: an incorrect run of {workload} is included")
            for metric, m in result["metrics"].items():
                key = (workload, metric, m["unit"])
                rows.setdefault(key, ([], []))[i].append(m["value"])
    for (workload, metric, unit), (base, change) in sorted(rows.items()):
        if not base or not change:
            continue

        def summary(v):
            if len(v) < 2:
                return v[0], v[0], v[0]
            q = statistics.quantiles(v, n=4)
            return q[0], statistics.median(v), q[2]

        b, c = summary(base), summary(change)
        delta = (c[1] - b[1]) / b[1] if b[1] else float("nan")
        print(f"{workload:13s} {metric:32s} {unit:6s} "
              f"base {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
              f"change {c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]  {delta:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
