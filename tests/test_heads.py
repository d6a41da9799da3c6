"""Generated clause tries against _run_generator's loop of clause copies:
head constants of every kind, repeated head variables, compounds with
variables in a head, linked constants, zero-arity tables and calls on
the general path, under both strategies."""

import pytest

import modetab.engine as engine_mod
from modetab import bench
from modetab.engine import Engine
from modetab.lang import parse_program
from modetab.terms import term_to_str

BOTH = ("local", "batched")

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
# through an untabled rule take the general path
GENERAL = """
:- table n(index, index).
n(f(a), 1).
n(f(X), 2) :- e(X).
n(X, X).
n(1.5, 3).
e(a). e(b).
via(X, Y) :- n(X, Y).
"""

# more clauses than a predicate's tries take
MANY = ":- table m(index, index).\n" + "".join(
    "m(%d, v%d).\n" % (i % 5, i) for i in range(20))

CASES = [
    # program, queries, and whether the loop of clause copies runs
    pytest.param(CONSTANTS, ["?- h(a, V).", "?- h(1, V).", "?- h('1', V).",
                             "?- h(2, V).", "?- h(K, V).", "?- q(K, V).",
                             "?- q(big, V).", "?- q(one, V)."], False,
                 id="constants"),
    pytest.param(CONSTANTS, ["?- h(1.0, V).", "?- h(1, V)."], True,
                 id="float-call"),
    pytest.param(REPEATED, ["?- p(a, Y).", "?- p(Y, a).", "?- p(b, b).",
                            "?- p(a, b).", "?- p(1, Y).", "?- p(X, Y).",
                            "?- r(a, Y, M).", "?- r(X, a, M).",
                            "?- s(X, Y)."], False, id="repeated"),
    pytest.param(TEMPLATES, ["?- t(Z, Y).", "?- t(Z, a).", "?- u(Y)."], True,
                 id="templates"),
    pytest.param(LINKED, ["?- lcs(3, 3, L).", "?- lcs(0, 2, L).",
                          "?- lcs(2, 0, L)."], False, id="linked"),
    pytest.param(ZERO, ["?- z.", "?- w(X)."], False, id="zero-arity"),
    pytest.param(GENERAL, ["?- n(f(a), Y).", "?- n(f(Z), Y).",
                           "?- n(1.5, Y).", "?- n(Y, Y).", "?- via(a, Y).",
                           "?- via(f(b), Y)."], True, id="general"),
    pytest.param(MANY, ["?- m(3, V).", "?- m(K, V)."], True, id="many"),
]


def outcome(text, queries, strategy):
    """Answers in order, Stats and per-table counters after each query,
    on one engine."""
    engine = Engine(parse_program(text), strategy)
    seen = []
    for query in queries:
        answers, stats = engine.solve(query)
        seen.append(([{k: term_to_str(v) for k, v in a.items()}
                      for a in answers], stats.as_dict()))
    tables = [(f.name(), f.n_inserted, f.n_invalidated, f.n_purged)
              for e in engine.space.entries.values() for f in e.frames]
    return seen, tables


def loop_only(monkeypatch):
    """Route every generator through the loop of clause copies."""
    real = Engine._shape
    monkeypatch.setattr(Engine, "_shape", lambda self, *key: (
        real(self, *key)[0], None))


def counted_copies(monkeypatch):
    copies = []
    real = Engine._clause_copy

    def counted(self, *args):
        copies.append(1)
        return real(self, *args)

    monkeypatch.setattr(Engine, "_clause_copy", counted)
    return copies


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("text, queries, copies", CASES)
def test_tries_match_the_loop_of_clause_copies(text, queries, copies,
                                               strategy, monkeypatch):
    seen = counted_copies(monkeypatch)
    got = outcome(text, queries, strategy)
    assert bool(seen) == copies
    assert all(answers for answers, _ in got[0])
    with monkeypatch.context() as m:
        loop_only(m)
        assert got == outcome(text, queries, strategy)
        assert seen  # the reference did copy clauses


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("family, size", [("lcs", 12), ("knapsack", 10),
                                          ("matrix", 6), ("shortest", 12)])
def test_tries_match_the_loop_on_the_families(family, size, strategy,
                                              monkeypatch):
    inst = bench.gen_instance(family, size, 3)
    text, query = bench.program_text(inst), bench.query_text(inst)
    got = outcome(text, [query], strategy)
    loop_only(monkeypatch)
    assert got == outcome(text, [query], strategy)


@pytest.mark.parametrize("query, values", [
    ("?- h(1, V).", ["int"]), ("?- h(1.0, V).", ["float"]),
    ("?- h('1', V).", ["quoted"]), ("?- h(2, V).", ["any"]),
    ("?- h(2.0, V).", []), ("?- q(big, V).", ["large"])])
def test_heads_keep_one_and_one_point_zero_apart(query, values):
    answers, _ = Engine(parse_program(CONSTANTS)).solve(query)
    assert [term_to_str(a["V"]) for a in answers] == values


# One tabled predicate per kind of body step that binds through
# engine.bind and engine.trail. A general builtin is not among them: what
# the compiler leaves to lang holds an unbound variable, an atom or a
# compound that is not arithmetic, so that step only returns by raising.
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
"""


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("query, answers, method", [
    ("?- unified(X).", ["a"], "_then"),
    ("?- rows(X).", ["a"], "_rows"),
    ("?- loop(N).", ["2", "1"], "_rows"),
    ("?- general(X).", ["b"], "_call_tabled"),
    ("?- rule(X).", ["a", "b"], "_call_rules"),
])
def test_tried_clauses_leave_no_binding(query, answers, method, strategy,
                                        monkeypatch):
    # the tries clear nothing between clauses: every step undoes its own
    tried = []
    real = engine_mod._tries_source

    def checked(body):
        def run(env, sink):
            body(env, sink)
            tried.append((dict(sink.engine.bind), list(sink.engine.trail)))
        return run

    monkeypatch.setattr(engine_mod, "_tries_source", lambda clauses, *rest: (
        real([(n, head, checked(body)) for n, head, body in clauses], *rest)))
    reached = []
    step = getattr(Engine, method)

    def counted(*args):
        reached.append(1)
        return step(*args)

    monkeypatch.setattr(Engine, method, counted)
    got, _ = Engine(parse_program(STEPS), strategy).solve(query)
    assert [term_to_str(v) for a in got for v in a.values()] == answers
    assert reached and tried
    assert all(bind == {} and trail == [] for bind, trail in tried)
