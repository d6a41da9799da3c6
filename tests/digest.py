"""Digest of the engine's observable work, for comparing two trees.

    PYTHONPATH=src python tests/digest.py [SWEEP ...]

Prints one sha256 per sweep, for the sweeps named (all eight when none
is, in the order below: families, randprog, randfloat, randcompound,
randheads, events, randcalls, programs). The first seven are over, for
every run in order: the answers in order, the Stats counters, and each
table's n_inserted, n_invalidated and n_purged in table and frame
creation order. Two trees that print the same digests gave the same
answers by the same work, from the same parsed programs.

The sweeps:
- families: the eight benchmark families at the acceptance-07 sizes,
  seeds 1-10, under local and batched scheduling (pagerank local only);
- randprog: tests/randprog.py seeds 0-399 under both strategies;
- randfloat: the same programs with each e(U,V,W). weight written as
  W.5, so the min, max and all tables get float costs, which the
  generated puts walk as (FLT, v) tokens and compare by value;
- randcompound: the same programs, but those of seed % 7 == 5, whose
  rules do arithmetic on nodes, with each node U written n(U) in the
  e(U,V,W). and s(S). facts, so the tables hold compound answers,
  which the generated puts hand to modes.insert_answer;
- randheads: the randcompound programs with each node variable (S, X,
  Y, Z) of their rules written n(V) as well, so rule heads hold
  compounds with variables and the recursive calls pass compounds that
  hold unbound variables; each queried as written and from a bound
  start (?- s(X), d(X, C). for ?- d(X, C).), which passes the tabled
  goal a ground compound;
- events: the trace event stream (calls, inserts with their outcome,
  invalidation count, seq and total, deliveries, completions) of the
  eight families at the acceptance-07 sizes, seeds 1-3, under both
  strategies (pagerank local only);
- randcalls: the randcompound programs with randfloat's weights, and an
  untabled c(Case, Goal) whose clauses call the queried predicate with
  a ground compound, 1 and 1.0, a repeated variable (free, or bound by
  s/1), a slot bound to a float or to a ground compound (one of them
  holding a Var that s/1 binds), and, for the general path, a compound
  that holds a variable and a slot that holds one; each queried as
  written and as ?- c(K, G);
- programs: what parse_program returns for every program text the
  other seven sweeps parse: each declaration with its line, each
  table_strategy override, and each clause's line, its printed text
  and its preorder keys, which number its variables by first
  occurrence, so they show which occurrences share a variable.

pytest does not collect this file; it is a script.
"""

import hashlib
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for _p in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from modetab import bench  # noqa: E402
from modetab.engine import Engine  # noqa: E402
from modetab.lang import clause_to_text, parse_program  # noqa: E402
from modetab.terms import term_keys, term_to_str  # noqa: E402

from randprog import generate  # noqa: E402

SIZES = (("shortest", 50), ("shortest_first", 50), ("shortest_all", 50),
         ("shortest_pref", 50), ("knapsack", 14), ("lcs", 18), ("matrix", 8),
         ("pagerank", 50))
STRATEGIES = ("local", "batched")


def record(program, query, strategy):
    """One run's answers, Stats and table counters, as text."""
    engine = Engine(program, strategy)
    answers, stats = engine.solve(query)
    lines = [strategy]
    for answer in answers:
        lines.append(", ".join("%s=%s:%s" % (k, type(v).__name__,
                                             term_to_str(v))
                               for k, v in answer.items()))
    lines.append(repr(stats))
    for entry in engine.space.entries.values():
        for frame in entry.frames:
            lines.append("%s %d %d %d" % (frame.name(), frame.n_inserted,
                                          frame.n_invalidated, frame.n_purged))
    return "\n".join(lines) + "\n"


def events(program, query, strategy):
    """One traced run's event stream, as text."""
    engine = Engine(program, strategy, trace=True)
    engine.solve(query)
    return "".join(" ".join("%s=%r" % kv for kv in sorted(event.items()))
                   + "\n" for event in engine.events)


def families(seeds=range(1, 11), run=record):
    digest = hashlib.sha256()
    for name, size in SIZES:
        for seed in seeds:
            inst = bench.gen_instance(name, size, seed)
            program = parse_program(bench.program_text(inst))
            for strategy in STRATEGIES:
                if name == "pagerank" and strategy != "local":
                    continue
                digest.update(("%s/%d/%d " % (name, size, seed)).encode())
                digest.update(run(program, bench.query_text(inst),
                                  strategy).encode())
    return digest.hexdigest()


def randprogs(edit=None, name="randprog", seeds=range(400),
              queries=lambda query: (query,)):
    digest = hashlib.sha256()
    for seed in seeds:
        text, query, _ = generate(seed)
        if edit is not None:
            text = edit(text)
        program = parse_program(text)
        for query in queries(query):
            for strategy in STRATEGIES:
                digest.update(("%s/%d " % (name, seed)).encode())
                digest.update(record(program, query, strategy).encode())
    return digest.hexdigest()


def compound_nodes(text):
    """Write each node U of the e(U,V,W). and s(S). facts as n(U)."""
    text = re.sub(r"^e\((\d+),(\d+),", r"e(n(\1),n(\2),", text, flags=re.M)
    return re.sub(r"^s\((\d+)\)\.$", r"s(n(\1)).", text, flags=re.M)


def node_rules(text):
    """compound_nodes, with each node variable of the rules written n(V)."""
    return re.sub(r"^\w+\(.*:-.*$", lambda rule: re.sub(
        r"\b([SXYZ])\b", r"n(\1)", rule.group()), compound_nodes(text),
        flags=re.M)


def bound_start(query):
    """The query as written, and from a bound start: ?- s(X), d(X, C)."""
    return query, re.sub(r"^\?- (\w+)\((\w+)", r"?- s(\2), \1(\2", query)


def float_weights(text):
    """Each e(U,V,W). weight written as W.5."""
    return re.sub(r"^(e\(\d+,\d+,\d+)\)\.$", r"\1.5).", text, flags=re.M)


def call_shapes(text):
    """compound_nodes with float weights, and c/2 as the docstring says."""
    text = compound_nodes(float_weights(text))
    *_, (name, slash, modes) = re.findall(
        r"^:- table (\w+)(?:/(\d+)|\((.*)\))\.$", text, flags=re.M)
    n = int(slash) if slash else modes.count(",") + 1
    rest = ["V%d" % k for k in range(2, n + 1)]
    init = ["V%d" % k for k in range(1, n)]
    cases = [
        ("", ["n(0)"] + rest),
        ("", init + ["1"]),
        ("", init + ["1.0"]),
        ("F = 2.5, ", init + ["F"]),
        ("s(N), ", ["N"] + rest),
        ("N = n(K), s(N), ", ["N"] + rest),
        ("", ["n(K)"] + rest),
        ("N = n(K), ", ["N"] + rest),
    ]
    if n > 1:
        twice = ["V", "V"] + rest[1:]
        cases += [("", twice), ("s(V), ", twice)]
    goals = ["%s(%s)" % (name, ", ".join(args)) for _, args in cases]
    # G is built after the call, so the call's variables are still free
    return text + "".join(
        "c(%d, G) :- %s%s, G = %s.\n" % (k, before, goal, goal)
        for k, ((before, _), goal) in enumerate(zip(cases, goals)))


def with_calls(query):
    """The query as written, and ?- c(K, G). for call_shapes's c/2."""
    return query, "?- c(K, G)."


# the randprog seeds whose rules do no arithmetic on nodes
NODE_SEEDS = [seed for seed in range(400) if seed % 7 != 5]


def programs():
    digest = hashlib.sha256()
    texts = [bench.program_text(bench.gen_instance(name, size, seed))
             for name, size in SIZES for seed in range(1, 11)]
    for edit, seeds in ((None, range(400)), (float_weights, range(400)),
                        (compound_nodes, NODE_SEEDS),
                        (node_rules, NODE_SEEDS),
                        (call_shapes, NODE_SEEDS)):
        for seed in seeds:
            text = generate(seed)[0]
            texts.append(edit(text) if edit else text)
    for text in texts:
        program = parse_program(text)
        for d in program.declarations:
            digest.update(("%r %s\n" % (d, d.line)).encode())
        for (name, arity), strategy in program.strategy_overrides.items():
            digest.update(("%s/%d %s\n" % (name, arity, strategy)).encode())
        for c in program.clauses:
            digest.update(("%s %s %r\n" % (
                c.line, clause_to_text(c),
                term_keys((c.head,) + c.body))).encode())
        digest.update(b"\n")
    return digest.hexdigest()


SWEEPS = {
    "families": families,
    "randprog": randprogs,
    "randfloat": lambda: randprogs(float_weights),
    "randcompound": lambda: randprogs(compound_nodes, "randcompound",
                                      NODE_SEEDS),
    "randheads": lambda: randprogs(node_rules, "randheads", NODE_SEEDS,
                                   bound_start),
    "events": lambda: families(range(1, 4), events),
    "randcalls": lambda: randprogs(call_shapes, "randcalls", NODE_SEEDS,
                                   with_calls),
    "programs": programs,
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(SWEEPS)
    unknown = [name for name in names if name not in SWEEPS]
    if unknown:
        sys.exit("unknown sweep %s; the sweeps are %s"
                 % (", ".join(unknown), ", ".join(SWEEPS)))
    for name in names:
        print("%s %s" % (name, SWEEPS[name]()))
