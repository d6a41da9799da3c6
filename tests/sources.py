"""Census of the generated sources one benchmark pass compiles.

    PYTHONPATH=src python tests/sources.py [--seed 3] [WORKLOAD ...]

For each perfbench workload named (all, when none is), in the table
that perfbench/run.py keeps (read here, not changed), it solves every
instance of one pass at seed S once, in a process of its own, so the
per-process caches (puts by shape, compiled sources, plain delivery
loops) start empty. It prints the number of distinct generated sources
the pass compiled and their characters, in all and per kind (run,
deliver, site, tries, put), as count/characters.

pytest does not collect this file; it is a script.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("run", "deliver", "site", "tries", "put")


def census(workload, seed):
    """Per kind, the count and characters of the distinct sources that
    one pass of workload at seed compiles in this process."""
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import modetab.engine as engine_mod
    from modetab.lang import parse_program
    from perfbench import run

    seen = {}  # source text -> kind
    real = engine_mod._code

    def recorded(kind, source):
        seen[source] = kind
        return real(kind, source)

    engine_mod._code = recorded
    for case in run.make_cases(workload, seed):
        engine_mod.Engine(parse_program(case.text), case.strategy).solve(
            case.query)
    out = {kind: [0, 0] for kind in KINDS}
    for source, kind in seen.items():
        out[kind][0] += 1
        out[kind][1] += len(source)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--one", help=argparse.SUPPRESS)  # a child's workload
    p.add_argument("workloads", nargs="*",
                   default=["flat", "dp", "batched"])
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(census(args.one, args.seed)))
        return
    print("%-8s %8s %8s  %s" % ("workload", "sources", "chars", "  ".join(
        "%-12s" % kind for kind in KINDS)))
    for workload in args.workloads:
        out = json.loads(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--seed",
             str(args.seed), "--one", workload],
            capture_output=True, text=True, check=True).stdout)
        n = sum(c for c, _ in out.values())
        chars = sum(c for _, c in out.values())
        print("%-8s %8d %7.1fk  %s" % (workload, n, chars / 1000, "  ".join(
            "%-12s" % ("%d/%.1fk" % (c, k / 1000)) for c, k in (
                out[kind] for kind in KINDS))))


if __name__ == "__main__":
    main()
