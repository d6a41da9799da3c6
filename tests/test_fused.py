"""Runs that end a clause body store their answers themselves: each is
generated once per put it meets and per pattern of slots None at entry,
with the put's store fused in (engine._generate, engine._put_source).

Every test here solves the same queries twice, with the generated steps
on and with them forced off (Engine._fused returning the run's general
step: the goals' closures, ending in the standalone put), and requires
the same answers in order, the same Stats, the same per-table counters
and the same trace events.
"""

import traceback

import pytest

import modetab.engine as engine_mod
from modetab import bench
from modetab.engine import Engine
from modetab.errors import DerivationLimitError
from modetab.lang import parse_program
from modetab.terms import Struct, Var, term_to_str
from modetab.tries import iterate_answers

from test_runs import hops

SIZES = (("shortest", 12), ("shortest_first", 12), ("shortest_all", 10),
         ("shortest_pref", 12), ("knapsack", 8), ("lcs", 8), ("matrix", 6),
         ("pagerank", 12))


def observed(engine, queries):
    """What a series of solves on one engine shows: each query's answers
    (typed, in order) or the error it raised, the Stats, each table's
    counters and, if traced, the event stream."""
    out = []
    for query in queries:
        try:
            answers, _ = engine.solve(query)
            out.append([[(k, type(v).__name__, term_to_str(v))
                         for k, v in a.items()] for a in answers])
        except DerivationLimitError as exc:
            out.append(str(exc))
        out.append(engine.stats.as_dict())
    out.append([(frame.name(), frame.n_inserted, frame.n_invalidated,
                 frame.n_purged)
                for entry in engine.space.entries.values()
                for frame in entry.frames])
    out.append(engine.events)
    return out


class Fusion:
    """Switches the generated steps on and off (Engine._fused returning
    the run's general step, the goals' closures), and records what the
    engine with them did: in made each step generated, as (the run's
    ops, put or None, pattern), in general the ops of each call a run's
    step handed to its general step."""

    def __init__(self, monkeypatch):
        self.on = True
        self.made, self.general = [], []
        fused, generate = Engine._fused, engine_mod._generate

        def hooked(engine, ops, nxt, general):
            if not self.on:
                return general

            def handed(env, parent):
                self.general.append(ops)
                return general(env, parent)
            return fused(engine, ops, nxt, handed)

        def made(ops, put, free, plan=None, best=None):
            src = generate(ops, put, free, plan, best)
            if src is not None and plan is None:
                self.made.append((id(ops), put, free))
            return src

        monkeypatch.setattr(Engine, "_fused", hooked)
        monkeypatch.setattr(engine_mod, "_generate", made)

    def twins(self, text, queries, strategy="local", trace=True, **kw):
        """The observations of a fused and an unfused engine, and the
        fused one's records."""
        seen, kept = [], None
        for on in (True, False):
            self.on = on
            self.made, self.general = [], []
            engine = Engine(parse_program(text), strategy, trace=trace, **kw)
            seen.append(observed(engine, queries))
            kept = kept or (self.made, self.general)
        assert self.made == [] and self.general == []
        self.on = True
        self.made, self.general = kept
        return seen


@pytest.fixture
def fusion(monkeypatch):
    return Fusion(monkeypatch)


CASES = [(family, size, seed, strategy)
         for family, size in SIZES for seed in (1, 2, 3)
         for strategy in ("local", "batched")
         if family != "pagerank" or strategy == "local"]


@pytest.mark.parametrize("family, size, seed, strategy", CASES)
def test_fused_stores_do_what_the_put_does(fusion, family, size, seed,
                                           strategy):
    inst = bench.gen_instance(family, size, seed)
    text, query = bench.program_text(inst), bench.query_text(inst)
    for trace in (True, False):
        fused, unfused = fusion.twins(text, [query], strategy, trace)
        assert fused == unfused
        assert fusion.made


def test_one_run_switches_between_puts_and_patterns(fusion):
    inst = bench.gen_instance("shortest_pref", 12, 3)
    queries = ["?- path(n0, Y, C), path(X, n1, D).", "?- best(X, Y, C).",
               "?- path(n2, Y, C), best(n2, Y, D).", "?- path(X, n3, C)."]
    for strategy in ("local", "batched"):
        fused, unfused = fusion.twins(bench.program_text(inst), queries,
                                      strategy)
        assert fused == unfused
        assert all(fused[0:8:2])
        per_run = {}
        for run, put, free in fusion.made:
            per_run.setdefault(run, []).append((put, free))
        # the recursive clause's run met both call shapes' puts, and Y
        # both unbound and bound at entry
        assert any(len({put for put, _ in seen}) >= 2
                   and len({free for _, free in seen}) >= 2
                   for seen in per_run.values())


FALLBACKS = """
:- table p(index, min).
p(X, C) :- e(X, C).
p(X, C) :- X = f(a), e(X, C).
p(X, C) :- W = V, V = 1, e(X, C0), C is C0 - W.
e(f(a), 3). e(f(a), 2). e(g(b), 1). e(a, 2). e(a, 2.0). e(1.5, 4).
e(1.5, 3.5). e(b, 1.0). e(b, 1).
:- table q(index, all, min).
q(X, H, C) :- h(X, H, C).
h(a, 1, 2). h(a, 1, 2.0). h(a, 2, 2.0). h(1.5, 1, 3). h(1.5, 2, 2.5).
h(f(b), 1, 4).
:- table t(index, index).
t(In, Out) :- n(In), Out is In + 1.
n(1). n(2.5).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
@pytest.mark.parametrize("query, answers, made, general", [
    # compound answers: row values to _general, a bound compound at
    # entry and a walk with bindings to the general step
    # (p's a and b keep their first witness against an int/float tie)
    ("?- p(X, C).", [("f(a)", "1"), ("g(b)", "0"), ("a", "1"),
                     ("1.5", "2.5"), ("b", "0.0")], True, True),
    ("?- p(f(a), C).", [("1",)], True, True),
    # floats as (FLT, v) keys at every trie level; an int/float tie
    # keeps the stored witness
    ("?- q(X, H, C).", [("a", "1", "2"), ("1.5", "2", "2.5"),
                        ("f(b)", "1", "4")], True, False),
    ("?- q(a, H, 2).", [("1",)], True, False),
    # an output slot bound at the call: the `is` unifies, so the run is
    # not fused for that pattern
    ("?- t(1, 2).", [()], False, True),
    ("?- t(A, 3.5).", [("2.5",)], False, True),
    ("?- t(A, B).", [("1", "2"), ("2.5", "3.5")], True, False),
])
def test_fused_stores_fall_back_as_the_put_does(fusion, monkeypatch,
                                               strategy, query, answers,
                                               made, general):
    reached = []
    for name in ("_general", "_announce"):
        real = getattr(engine_mod, name)

        def counted(*args, _real=real, _name=name):
            reached.append(_name)
            return _real(*args)
        monkeypatch.setattr(engine_mod, name, counted)
    fused, unfused = fusion.twins(FALLBACKS, [query], strategy)
    assert fused == unfused
    assert [tuple(v for _, _, v in a) for a in fused[0]] == answers
    assert bool(fusion.made) == made
    assert bool(fusion.general) == general
    if query.startswith("?- p(X"):
        assert "_general" in reached


@pytest.mark.parametrize("limit", [40, 57, 130])
def test_the_limit_trips_inside_a_fused_store(fusion, limit):
    inst = bench.gen_instance("shortest", 12, 3)
    text, query = bench.program_text(inst), bench.query_text(inst)
    fused, unfused = fusion.twins(text, [query], limit=limit)
    assert fused == unfused
    assert fused[0] == "derivation limit of %d exceeded" % limit
    engine = Engine(parse_program(text), limit=limit)
    with pytest.raises(DerivationLimitError) as excinfo:
        engine.solve(query)
    # in a run's fused step, or in the delivery loop it runs in
    last = traceback.extract_tb(excinfo.value.__traceback__)[-2]
    assert last.filename.startswith(("<modetab run ", "<modetab deliver "))
    assert last.line == "_over(limit)"


def test_a_run_checks_its_pattern_under_one_put(fusion):
    # two frames of one call shape share a put; their bodies are run on
    # activations whose X differs in being None at entry
    def run():
        engine = Engine(parse_program(
            ":- table p(index, index).\np(X, Y) :- e(X, Y).\n"
            "e(a, 1). e(a, 2). e(b, 3).\n"))
        (_, head, body), = engine._clauses("p", 2)
        frames = []
        for start, env in (("a", ["a", None]), ("b", [None, None]),
                           ("a", ["a", None])):
            frame, _ = engine._materialize("p", [start, Var("Y")])
            engine.tasks.clear()
            put = engine_mod._put((1,), frame.subst_modes)
            body(env, engine_mod._Sink(engine, frame, (head[1],), put))
            frames.append(frame)
        return [[leaf.terms for leaf in iterate_answers(frame)]
                for frame in frames], engine.stats.as_dict()
    fusion.on = True
    fused = run()
    # one put, two patterns: two fused steps
    assert len({put for _, put, _ in fusion.made}) == 1
    assert len(fusion.made) == 2
    fusion.on = False
    assert fused == run()
    # the frame of p(b, Y) got every row's Y: X was None at entry
    assert fused[0] == [[(1,), (2,)], [(1,), (2,), (3,)], [(1,), (2,)]]


# the run after q(A) is entered once per row of m on one activation:
# with A a compound, which its closures take and which leave Y and W
# written, then with A = 2
REENTRY = """
:- table p/1.
p(Z) :- m(A), q(A), f(A, Y), W is Y + 1, Z = W.
m(g(1)). m(2). q(_). f(g(1), 10). f(2, 20).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
@pytest.mark.parametrize("trace", (True, False))
@pytest.mark.parametrize("text, query, answers", [
    (REENTRY, "?- p(Z).", [["11"], ["21"]]),
    # runs cut at _RUN, each but the last calling the next
    (hops(25), "?- p(A, B).", [[str(a), str(a + 25)] for a in range(38)]),
    (hops(60), "?- p(A, B).", [["0", "60"], ["1", "61"], ["2", "62"]]),
    # a query whose body ends in a run, which calls the query's put
    (hops(25), "?- p(A, B), e(B, C), C < 30.",
     [[str(a), str(a + 25), str(a + 26)] for a in range(4)]),
])
def test_runs_that_do_not_store_do_what_their_closures_do(
        fusion, strategy, trace, text, query, answers):
    fused, unfused = fusion.twins(text, [query], strategy, trace)
    assert fused == unfused
    assert [[v for _, _, v in a] for a in fused[0]] == answers
    assert any(put is None for _, put, _ in fusion.made)


@pytest.mark.parametrize("strategy", ("local", "batched"))
@pytest.mark.parametrize("trace", (True, False))
def test_a_run_entered_again_makes_one_step_per_pattern(fusion, strategy,
                                                       trace):
    fused, unfused = fusion.twins(REENTRY, ["?- p(Z)."], strategy, trace)
    assert fused == unfused
    # m(A)'s run and the run after q(A), one pattern each: the slots a
    # run binds first are no part of its pattern, so what the closures
    # left written there makes no second step
    assert len(fusion.made) == 2
    assert len({run for run, _, _ in fusion.made}) == 2
    assert len(fusion.general) == 1


def test_a_run_switched_back_finds_its_first_step(fusion):
    # one activation meets p's run three times: X a compound (the
    # closures take it and leave W and V written), then Y bound, then Y
    # None again, which is the first call's pattern
    engine = Engine(parse_program(
        ":- table p(index, index).\n"
        "p(X, Y) :- k(X, Y, W), V is W + 1, V > 0.\n"
        "k(f(1), 1, 2). k(a, 1, 3). k(a, 2, 4).\n"))
    (_, head, body), = engine._clauses("p", 2)
    frame, _ = engine._materialize("p", [Var("X"), Var("Y")])
    engine.tasks.clear()
    put = engine_mod._put((0, 1), frame.subst_modes)
    env = [None] * 4
    for x, y in ((Struct("f", (1,)), None), ("a", 1), ("a", None)):
        env[0], env[1] = x, y
        body(env, engine_mod._Sink(engine, frame, head, put))
    assert [leaf.terms for leaf in iterate_answers(frame)] == [
        (Struct("f", (1,)), 1), ("a", 1), ("a", 2)]
    assert [free for _, _, free in fusion.made] == [
        frozenset({1}), frozenset()]
    assert len(fusion.general) == 1
