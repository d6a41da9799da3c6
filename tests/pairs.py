"""Alternating pairs of benchmark runs of two checkouts.

    python tests/pairs.py BEFORE AFTER [--workload flat] [--seed 3]
        [--seconds 20] [--pairs 10]

BEFORE and AFTER are two checkouts of the repository (made with git
clone or git archive). Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T

once in each checkout, BEFORE first in odd pairs and AFTER first in
even ones, so drift in the machine's speed falls on both sides alike.
For each end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles over the pairs, the ratio of the medians (AFTER
over BEFORE), in how many pairs AFTER was better (by the metric's
declared direction), and the gap between the medians over BEFORE's
interquartile range. A run that reports a failed solve is listed.

pytest does not collect this file; it is a script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    """One benchmark run in checkout: its metrics and failure count."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    last = json.loads(out.strip().splitlines()[-1])
    return ({name: m["value"] for name, m in last["metrics"].items()},
            last["failed"])


def quartiles(values):
    """Median, first and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--workload", default="flat")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    with open(os.path.join(args.after, "BENCHMARK.json")) as f:
        lower = {m["name"]: m["better"] == "lower"
                 for m in json.load(f)["end_to_end"]}
    sides = {"before": [], "after": []}
    for k in range(args.pairs):
        order = ("before", "after") if k % 2 == 0 else ("after", "before")
        for side in order:
            metrics, failed = run(getattr(args, side), args.workload,
                                  args.seed, args.seconds)
            sides[side].append(metrics)
            if failed:
                print("pair %d: %s failed %d solves" % (k + 1, side, failed))
        print("pair %d: solve_s %.4f -> %.4f" % (
            k + 1, sides["before"][-1]["solve_s"],
            sides["after"][-1]["solve_s"]), file=sys.stderr)
    print("%s seed %d, %d pairs of %g s runs" % (
        args.workload, args.seed, args.pairs, args.seconds))
    print("%-15s %-30s %-30s %6s %5s %7s" % (
        "metric", "before median [q1, q3]", "after median [q1, q3]", "ratio",
        "won", "gap/iqr"))
    for name, down in lower.items():
        b = [m[name] for m in sides["before"]]
        a = [m[name] for m in sides["after"]]
        (bm, b1, b3), (am, a1, a3) = quartiles(b), quartiles(a)
        won = sum((y < x) if down else (y > x) for x, y in zip(b, a))
        iqr = b3 - b1
        print("%-15s %-30s %-30s %6.3f %5s %7s" % (
            name, "%.4g [%.4g, %.4g]" % (bm, b1, b3),
            "%.4g [%.4g, %.4g]" % (am, a1, a3), am / bm if bm else 0.0,
            "%d/%d" % (won, len(b)),
            "%.2f" % (abs(am - bm) / iqr) if iqr else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
