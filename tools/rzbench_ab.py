#!/usr/bin/env python3
"""A/B comparison of two checkouts on the repo benchmark.

    tools/rzbench_ab.py PARENT_TREE CHANGE_TREE --workload W --seed S \\
        --pairs N [--seconds T]

Runs each tree's own `rzbench/run.py --workload W --seed S --seconds T`
(from the root of that tree) N times per side in alternating order:
pair i runs the parent first when i is even and the change first when
it is odd, so drift of the shared host lands on both sides. Neither
tree is modified beyond the build directory run.py keeps itself.

For every end-to-end metric that the parent tree's BENCHMARK.json
declares it prints the median of each side, the change in the median,
the interquartile range (q3 - q1) of the parent's runs and the number
of pairs the change won (strictly better in the metric's direction).
A metric marked `*` moved by more than the parent's IQR in the better
direction; one marked `!` moved by more than the IQR in the worse
direction. `!!` marks a change median worse than the parent's by more
than the metric's `bound` in BENCHMARK.json (a fraction of the parent's
median). `gain` marks a claimable improvement: the change won at least
9 of every 10 pairs and its median moved by more than the parent's IQR
in the better direction. Virtual-clock metrics repeat exactly for a
given seed, so a `!=` mark on one of them means the two trees simulate
different work.
Each run's `correct` flag and `failed` count are checked too; the exit
status is 1 when any run is incorrect, has failures, or does not end
with run.py's JSON line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, workload, seed, seconds):
    """Runs one benchmark process in `tree`; returns its JSON result."""
    cmd = [sys.executable, os.path.join("rzbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: run.py exited %d\n%s" %
                           (tree, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def main():
    ap = argparse.ArgumentParser(
        description="Alternating A/B runs of rzbench/run.py in two trees.")
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as f:
        e2e = json.load(f)["end_to_end"]

    results = {"parent": [], "change": []}
    bad = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(trees[side], args.workload, args.seed, args.seconds)
            results[side].append(r)
            if not r.get("correct") or r.get("failed", 0) != 0:
                bad.append("%s pair %d: correct=%s failed=%s" %
                           (side, i, r.get("correct"), r.get("failed")))
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]),
              file=sys.stderr)

    print("== %s seed=%d, %d pairs, %g s runs" %
          (args.workload, args.seed, args.pairs, args.seconds))
    print("  %-20s %14s %14s %8s %12s %6s" %
          ("metric", "parent p50", "change p50", "change", "parent IQR",
           "wins"))
    for m in e2e:
        name, lower = m["name"], m["better"] == "lower"
        par = [r["metrics"][name]["value"] for r in results["parent"]
               if name in r["metrics"]]
        chg = [r["metrics"][name]["value"] for r in results["change"]
               if name in r["metrics"]]
        if not par or len(par) != len(chg):
            continue
        pm, cm = statistics.median(par), statistics.median(chg)
        spread = iqr(par)
        wins = sum(1 for p, c in zip(par, chg) if (c < p if lower else c > p))
        rel = (cm - pm) / pm * 100 if pm else 0.0
        gain = pm - cm if lower else cm - pm
        marks = []
        if len(set(par)) == 1 and len(set(chg)) == 1:
            if par[0] != chg[0]:
                marks.append("!=")
        elif gain > spread:
            marks.append("*")
        elif -gain > spread:
            marks.append("!")
        bound = m.get("bound")
        if bound is not None and pm and -gain / abs(pm) > bound:
            marks.append("!!")
        if 10 * wins >= 9 * len(par) and gain > spread:
            marks.append("gain")
        print("  %-20s %14.6g %14.6g %+7.1f%% %12.4g %3d/%-2d %s" %
              (name, pm, cm, rel, spread, wins, len(par), " ".join(marks)))
    for line in bad:
        print("  PROBLEM: " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
