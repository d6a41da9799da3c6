"""Generated clause tries on every call and head shape: head constants
of every kind, repeated head variables, compounds with variables in a
head, linked constants, zero-arity tables, calls with compound, float
and repeated-variable arguments, and predicates whose clauses span
several tries functions, under both strategies.

Each case's answers, Stats and per-table counters must equal those in
heads_outcomes.json. They were recorded from commit 61d9bc6, where a
separate loop of clause copies ran every call that the tries declined
(a float, compound or variable argument, a head that holds a compound
with variables, a predicate of more than 16 clauses) and gave the same
outcomes as the tries on every other call. One fix was applied first:
a fact goal matches a compound as strictly as unify, so ?- c(f(1.0), V).
of the clause cases finds no answer. Where a case's tables are all
index-only, the same queries untabled, whose heads meet their calls
through Engine._clause_copy and terms.unify, must give the same answer
sets.

    PYTHONPATH=src python tests/test_heads.py

rewrites heads_outcomes.json from the engine in the tree, for a change
that means to alter these outcomes.
"""

import json
import os
import re
from collections import Counter

import pytest

import modetab.engine as engine_mod
from modetab import bench
from modetab.engine import Engine
from modetab.lang import parse_program
from modetab.terms import term_to_str

import digest

BOTH = ("local", "batched")
RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "heads_outcomes.json")

# h's heads hold an atom, integers, a float, a quoted atom that reads
# like an integer and ground compounds; calls come from the query and
# from call sites, bound to atoms, integers, a large integer built by
# arithmetic, and floats
CONSTANTS = """
:- table h(index, index).
h(a, atom).
h(1, int).
h(1.0, float).
h('1', quoted).
h(f(a), compound).
h(100000, large).
h(f(1), g(2)).
h(K, any) :- k(K).
k(a). k(2).
:- table q/2.
q(K, V) :- k(K), h(K, V).
q(big, V) :- X is 99999 + 1, h(X, V).
q(one, V) :- h(1, V).
"""

# p's clauses repeat a head variable; r's first clause repeats one and
# holds a constant, its second links a constant
REPEATED = """
:- table p(index, index).
p(X, X).
p(X, b) :- e(X).
p(c, Y) :- e(Y).
e(a). e(b). e(1).
:- table r(index, index, max).
r(X, X, 1) :- e(X).
r(X, Y, 0) :- e(X), e(Y).
:- table s/2.
s(X, Y) :- e(X), p(X, Y).
s(X, Y) :- e(Y), p(X, Y).
"""

# t's heads hold compounds with variables in them
TEMPLATES = """
:- table t(index, index).
t(f(X), X) :- e(X).
t(g(X, Y), Y) :- e(X), e(Y).
t(a, b).
e(a). e(b).
:- table u/1.
u(Y) :- t(Z, Y), Z = f(_).
"""

# lcs's first two clauses link a constant, as the benchmark's do
LINKED = """
:- table lcs(index, index, max).
lcs(0, _, 0).
lcs(_, 0, 0).
lcs(I, J, L) :- I > 0, J > 0, a(I, S), b(J, S), I1 is I - 1, J1 is J - 1,
    lcs(I1, J1, L1), L is L1 + 1.
lcs(I, J, L) :- I > 0, I1 is I - 1, lcs(I1, J, L).
lcs(I, J, L) :- J > 0, J1 is J - 1, lcs(I, J1, L).
a(1, x). a(2, y). a(3, x).
b(1, y). b(2, x). b(3, x).
"""

ZERO = """
:- table z/0.
z :- e(a).
z.
z :- e(c).
e(a). e(b).
:- table w/1.
w(X) :- z, e(X), z.
"""

# calls with a compound, a float, a repeated variable or a Var passed
# through an untabled rule
GENERAL = """
:- table n(index, index).
n(f(a), 1).
n(f(X), 2) :- e(X).
n(X, X).
n(1.5, 3).
e(a). e(b).
via(X, Y) :- n(X, Y).
"""

# more clauses than one tries function takes
MANY = ":- table m(index, index).\n" + "".join(
    "m(%d, v%d).\n" % (i % 5, i) for i in range(20))

# clause i of c has the head kind i % 6: an integer, a ground compound,
# a float, a compound with a variable, a repeated variable, and a
# compound with variables in each argument; d calls c from a body
HEADS = ("c(%d, i{i}).", "c(f(%d), f{i}).", "c(%d.0, x{i}).",
         "c(g(X, %d), X) :- e(X).", "c(X, X) :- e(X), %d >= 0.",
         "c(h(X, Y), p(Y, %d)) :- e(X), e(Y).")


def chunked(n):
    """c of n clauses, and the queries that reach each head kind."""
    text = ":- table c(index, index).\n" + "".join(
        HEADS[i % 6].format(i=i) % (i // 6 % 3) + "\n" for i in range(n))
    text += (":- table d/2.\nd(K, V) :- e(K), c(K, V).\n"
             "e(a). e(1). e(1.0). e(f(1)).\n")
    return text, ["?- c(K, V).", "?- c(1, V).", "?- c(1.0, V).",
                  "?- c(f(1), V).", "?- c(f(1.0), V).", "?- c(g(W, 2), V).",
                  "?- c(K, K).", "?- c(h(a, B), V).", "?- c(h(B, B), V).",
                  "?- d(K, V)."]


CASES = {
    "constants": (CONSTANTS, ["?- h(a, V).", "?- h(1, V).", "?- h('1', V).",
                              "?- h(2, V).", "?- h(K, V).", "?- q(K, V).",
                              "?- q(big, V).", "?- q(one, V)."]),
    "float-call": (CONSTANTS, ["?- h(1.0, V).", "?- h(1, V)."]),
    "repeated": (REPEATED, ["?- p(a, Y).", "?- p(Y, a).", "?- p(b, b).",
                            "?- p(a, b).", "?- p(1, Y).", "?- p(X, Y).",
                            "?- r(a, Y, M).", "?- r(X, a, M).",
                            "?- s(X, Y)."]),
    "templates": (TEMPLATES, ["?- t(Z, Y).", "?- t(Z, a).", "?- u(Y)."]),
    "linked": (LINKED, ["?- lcs(3, 3, L).", "?- lcs(0, 2, L).",
                        "?- lcs(2, 0, L)."]),
    "zero-arity": (ZERO, ["?- z.", "?- w(X)."]),
    "general": (GENERAL, ["?- n(f(a), Y).", "?- n(f(Z), Y).",
                          "?- n(1.5, Y).", "?- n(Y, Y).", "?- via(a, Y).",
                          "?- via(f(b), Y)."]),
    "many": (MANY, ["?- m(3, V).", "?- m(K, V)."]),
    "clauses-16": chunked(16),
    "clauses-17": chunked(17),
    "clauses-33": chunked(33),
}

FAMILIES = [("lcs", 12), ("knapsack", 10), ("matrix", 6), ("shortest", 12)]


def family_case(family, size):
    inst = bench.gen_instance(family, size, 3)
    return bench.program_text(inst), [bench.query_text(inst)]


def outcome(text, queries, strategy):
    """Answers in order, Stats and per-table counters after each query,
    on one engine, in the lists that JSON holds."""
    engine = Engine(parse_program(text), strategy)
    seen = []
    for query in queries:
        answers, stats = engine.solve(query)
        seen.append([[{k: term_to_str(v) for k, v in a.items()}
                      for a in answers], stats.as_dict()])
    tables = [[f.name(), f.n_inserted, f.n_invalidated, f.n_purged]
              for e in engine.space.entries.values() for f in e.frames]
    return [seen, tables]


def recorded():
    with open(RECORDED) as f:
        return json.load(f)


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("case", sorted(CASES))
def test_tries_match_the_loop_of_clause_copies(case, strategy):
    assert outcome(*CASES[case], strategy) == recorded()[
        "%s/%s" % (case, strategy)]


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("family, size", FAMILIES)
def test_tries_match_the_loop_on_the_families(family, size, strategy):
    assert outcome(*family_case(family, size), strategy) == recorded()[
        "%s-%d/%s" % (family, size, strategy)]


def answer_set(text, query):
    """The printed answers, each with its variables numbered apart."""
    answers, _ = Engine(parse_program(text)).solve(query)
    printed = set()
    for a in answers:
        names = {}
        printed.add(tuple((k, term_to_str(v, names)) for k, v in a.items()))
    return printed


@pytest.mark.parametrize("case", sorted(
    case for case, (text, _) in CASES.items()
    if all(d.modes is None or set(d.modes) == {"index"}
           for d in parse_program(text).declarations)))
def test_untabled_calls_give_the_same_answer_sets(case):
    text, queries = CASES[case]
    untabled = re.sub(r"^:- table .*\n", "", text, flags=re.M)
    for query in queries:
        assert answer_set(text, query) == answer_set(untabled, query), query


@pytest.mark.parametrize("query, values", [
    ("?- h(1, V).", ["int"]), ("?- h(1.0, V).", ["float"]),
    ("?- h('1', V).", ["quoted"]), ("?- h(2, V).", ["any"]),
    ("?- h(2.0, V).", []), ("?- q(big, V).", ["large"])])
def test_heads_keep_one_and_one_point_zero_apart(query, values):
    answers, _ = Engine(parse_program(CONSTANTS)).solve(query)
    assert [term_to_str(a["V"]) for a in answers] == values


def test_the_randheads_sweep_reaches_the_unifying_tries(monkeypatch):
    # per run of tests/digest.py's randheads sweep: whether its tries
    # meet a call variable that no link names, and whether they match a
    # head that holds a compound with variables
    marks = set()
    real = engine_mod._tries_source

    def marked(clauses, link, subst_modes):
        if len(link) - link.count(None) < sum(n for _, n, _ in subst_modes):
            marks.add("unlinked")
        if engine_mod._Tmpl in {type(s) for c in clauses for s in c[1]}:
            marks.add("template")
        return real(clauses, link, subst_modes)

    monkeypatch.setattr(engine_mod, "_tries_source", marked)
    runs = Counter()
    record = digest.record

    def counted(*args):
        marks.clear()
        text = record(*args)
        runs.update(marks | {"runs"})
        return text

    monkeypatch.setattr(digest, "record", counted)
    digest.randprogs(digest.node_rules, "randheads", digest.NODE_SEEDS,
                     digest.bound_start)
    assert runs["runs"] == 4 * len(digest.NODE_SEEDS)
    assert runs["unlinked"] * 10 >= runs["runs"]
    assert runs["template"] * 10 >= runs["runs"]


# One tabled predicate per kind of body step that binds through
# engine.bind and engine.trail, and one whose head match binds. A general
# builtin is not among them: what the compiler leaves to lang holds an
# unbound variable, an atom or a compound that is not arithmetic, so
# that step only returns by raising.
STEPS = """
e(a, 1). e(b, 2).
g(h(a, a)). g(h(a, b)).
:- table q/1.
q(h(a, b)).
r(f(Y)) :- e(Y, _).
:- table unified/1.
unified(X) :- Y = f(Z), Y = f(a), X = Z.
:- table rows/1.
rows(X) :- g(h(X, X)).
:- table loop/1.
loop(N) :- Y = f(V), Y = f(b), e(V, N).
loop(N) :- Y = f(V), e(V, N).
:- table general/1.
general(X) :- q(h(a, X)).
:- table rule/1.
rule(X) :- r(f(X)).
:- table pair/2.
pair(f(Y, b), N) :- e(Y, N).
pair(f(a, Y), 0) :- e(Y, _).
pair(f(Y, Y), 3).
"""


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("query, answers, method", [
    ("?- unified(X).", ["a"], "_then"),
    ("?- rows(X).", ["a"], "_rows"),
    ("?- loop(N).", ["2", "1"], "_rows"),
    ("?- general(X).", ["b"], "_call_tabled"),
    ("?- rule(X).", ["a", "b"], "_call_rules"),
    ("?- pair(f(X, Z), N).", ["a", "b", "1", "b", "b", "2", "a", "a", "0",
                              "a", "b", "0", "Z", "Z", "3"], "_unify"),
])
def test_tried_clauses_leave_no_binding(query, answers, method, strategy,
                                        monkeypatch):
    # after each clause, a probe clause whose head matches any call
    # reads engine.bind and engine.trail; so does a wrapper after the
    # generator's tries have returned. pair's last answer, Z for X, is
    # a binding its head made.
    states = []

    def probe(env, sink):
        states.append((dict(sink.engine.bind), list(sink.engine.trail)))

    real = engine_mod._tries_source

    def probed(clauses, link, subst_modes):
        head = tuple(engine_mod._Slot(k, True, "_") for k in range(len(link)))
        tried = []
        for clause in clauses:
            tried += [clause, (len(link), head, probe)]
        return real(tried, link, subst_modes)

    monkeypatch.setattr(engine_mod, "_tries_source", probed)
    run_generator = Engine._run_generator

    def checked(self, frame):
        run_generator(self, frame)
        states.append((dict(self.bind), list(self.trail)))

    monkeypatch.setattr(Engine, "_run_generator", checked)
    reached = []
    step = getattr(Engine, method)

    def counted(*args):
        reached.append(1)
        return step(*args)

    monkeypatch.setattr(Engine, method, counted)
    got, _ = Engine(parse_program(STEPS), strategy).solve(query)
    assert [term_to_str(v) for a in got for v in a.values()] == answers
    assert reached and states
    assert all(bind == {} and trail == [] for bind, trail in states)


if __name__ == "__main__":
    cases = dict(CASES)
    cases.update(("%s-%d" % fs, family_case(*fs)) for fs in FAMILIES)
    with open(RECORDED, "w") as f:
        f.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps("%s/%s" % (case, strategy)), json.dumps(
                outcome(*cases[case], strategy), separators=(",", ":")))
            for case in sorted(cases) for strategy in BOTH))
