"""Command line entry points: run a program file, or run a benchmark.

Exit codes: 0 when the query produced answers (or the benchmark ran),
1 when it produced none (or --check found a mismatch), 2 on any error.
"""

import argparse
import json
import sys

from .bench import FAMILIES, run_benchmark
from .engine import Engine
from .errors import ModetabError
from .lang import parse_program, validate
from .terms import term_to_str
from .tries import iterate_answers

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modetab",
        description="tabled logic programs with answer aggregation modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a query against a program file")
    run.add_argument("file", help="program source file")
    run.add_argument("--query", required=True, metavar="GOAL",
                     help="query to evaluate, e.g. 'path(a, X)'")
    run.add_argument("--sched", choices=("local", "batched"), default="local",
                     help="default scheduling strategy (default: local)")
    run.add_argument("--stats", action="store_true",
                     help="print evaluation counters to stderr")
    run.add_argument("--trace-events", metavar="PATH", dest="trace_events",
                     help="write one JSON event per line to PATH")

    b = sub.add_parser("bench", help="generate, run, and time a benchmark")
    b.add_argument("name", choices=FAMILIES, help="benchmark family")
    b.add_argument("--size", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--sched", choices=("local", "batched"), default="local",
                   help="scheduling strategy (default: local)")
    b.add_argument("--check", action="store_true",
                   help="compare answers against the oracle; mismatch exits 1")
    b.add_argument("--json", metavar="PATH", dest="json_path",
                   help="write the full report to PATH as JSON")
    return parser


def _cmd_run(args):
    with open(args.file) as f:
        text = f.read()
    program = parse_program(text)
    problems = validate(program)
    fatal = False
    for p in problems:
        print(p, file=sys.stderr)
        fatal = fatal or p.startswith("error:")
    if fatal:
        return 2
    engine = Engine(program, args.sched, trace=args.trace_events is not None)
    answers, stats = engine.solve(args.query)
    for a in answers:
        if a:
            # unbound variables print as _G1, _G2, ... within a row, so two
            # distinct ones never print alike
            names = {}
            print(", ".join("%s = %s" % (n, term_to_str(t, names))
                            for n, t in a.items()))
        else:
            print("true")
    if args.trace_events:
        with open(args.trace_events, "w") as f:
            for event in engine.events:
                f.write(json.dumps(event) + "\n")
    if args.stats:
        print("%% %d answers, %s" % (len(answers), " ".join(
            "%s=%d" % kv for kv in stats.as_dict().items())), file=sys.stderr)
        # one line per table, numbered per predicate in call order
        for entry in engine.space.entries.values():
            for k, frame in enumerate(entry.frames, 1):
                print(
                    "%% table %s #%d: answers=%d inserted=%d invalidated=%d"
                    " purged=%d"
                    % (frame.name(), k, sum(1 for _ in iterate_answers(frame)),
                       frame.n_inserted, frame.n_invalidated, frame.n_purged),
                    file=sys.stderr,
                )
    return 0 if answers else 1


def _cmd_bench(args):
    report = run_benchmark(args.name, args.size, args.seed, args.sched)
    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    line = "%s size=%d seed=%d %s: answers=%d ms=%s" % (
        args.name, args.size, args.seed, args.sched, report["answers"],
        "/".join("%.1f" % x for x in report["ms"]),
    )
    if args.check:
        line += " check=%s" % ("ok" if report["match"] else "MISMATCH")
    print(line)
    if args.check and not report["match"]:
        return 1
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_bench(args)
    except (ModetabError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
