"""Runs that end a clause body store their answers themselves: each is
generated once per put it meets and per pattern of slots None at entry,
with the put's store fused in (engine._generate, engine._put_source).

Every test here solves the same queries twice, with fusion on and with
it forced off (Engine._fused returning the run's general step, which
calls the standalone put), and requires the same answers in order, the
same Stats, the same per-table counters and the same trace events.
"""

import traceback

import pytest

import modetab.engine as engine_mod
from modetab import bench
from modetab.engine import Engine
from modetab.errors import DerivationLimitError
from modetab.lang import parse_program
from modetab.terms import Var, term_to_str
from modetab.tries import iterate_answers

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
    """Switches fusion on and off (Engine._fused returning the run's
    general step), and records what the fused engine did: in made each
    fused step generated, as (the run's ops, put, pattern), in general
    the ops of each call a fused run handed to its general step."""

    def __init__(self, monkeypatch):
        self.on = True
        self.made, self.general = [], []
        fused, generate = Engine._fused, engine_mod._generate

        def hooked(engine, ops, general):
            if not self.on:
                return general

            def handed(env, parent):
                self.general.append(ops)
                return general(env, parent)
            return fused(engine, ops, handed)

        def made(ops, put=None, free=None, plan=None, best=None):
            src = generate(ops, put, free, plan, best)
            if src is not None and put is not None:
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
