"""A consumer whose step is a fused run takes the run's own delivery
loop (Engine._loops, engine._generate given a plan): it reads a run of
answers as the plain loop does and runs the run and its store on each.

Every test here solves the same queries twice, with the generated loops
and with the plain loop forced (engine._generate returning None for a
loop, as it does for a pattern it cannot fuse), and requires the same
answers in order, the same Stats, the same per-table counters and the
same trace events.
"""

import traceback

import pytest

import modetab.engine as engine_mod
from modetab import bench
from modetab.engine import Engine
from modetab.errors import DerivationLimitError, EvaluationError
from modetab.lang import parse_program

from test_fused import SIZES, observed


class Loops:
    """Switches the generated delivery loops on and off, and records in
    made each loop the engine generated, as (put, pattern, plan,
    order)."""

    def __init__(self, monkeypatch):
        self.on = True
        self.made = []
        generate = engine_mod._generate

        def hooked(ops, put=None, free=None, plan=None, best=None):
            if plan is None:
                return generate(ops, put, free)
            if not self.on:
                return None
            src = generate(ops, put, free, plan, best)
            if src is not None:
                self.made.append((put, free, plan, best))
            return src

        monkeypatch.setattr(engine_mod, "_generate", hooked)

    def twins(self, text, queries, strategy="local", trace=False, **kw):
        """The observations of an engine with the loops and of one with
        the plain loop only; made keeps the first one's loops."""
        seen, kept = [], None
        for on in (True, False):
            self.on, self.made = on, []
            engine = Engine(parse_program(text), strategy, trace=trace, **kw)
            seen.append(observed(engine, queries))
            kept = kept if kept is not None else self.made
        assert self.made == []
        self.on, self.made = True, kept
        return seen


@pytest.fixture
def loops(monkeypatch):
    return Loops(monkeypatch)


CASES = [(family, size, seed, strategy)
         for family, size in SIZES for seed in (1, 2, 3)
         for strategy in ("local", "batched")
         if family != "pagerank" or strategy == "local"]


@pytest.mark.parametrize("family, size, seed, strategy", CASES)
def test_loops_do_what_the_plain_loop_does(loops, family, size, seed,
                                           strategy):
    inst = bench.gen_instance(family, size, seed)
    text, query = bench.program_text(inst), bench.query_text(inst)
    for trace in (False, True):
        with_loops, plain = loops.twins(text, [query], strategy, trace)
        assert with_loops == plain
        # a traced engine logs each delivery, so it takes the plain loop
        assert bool(loops.made) != trace


# min and max walks, best value first, over tables whose values tie
# between integers and floats and include atoms, which go after every
# number; the run reads the value without arithmetic
TIES = """
:- table r(index, index, min).
r(X, Y, C) :- e(X, Y, C).
r(X, Y, C) :- r(X, Z, C), f(Z, Y).
:- table m(index, index, max).
m(X, Y, C) :- e(X, Y, C).
m(X, Y, C) :- m(X, Z, C), f(Z, Y).
e(a, b, 2). e(a, c, 2.0). e(a, d, z). e(a, g, 1). e(a, h, y). e(a, k, 2).
e(a, b, 1.0). e(b, c, 3).
f(b, c). f(c, d). f(d, b). f(g, c). f(h, b). f(c, g). f(k, h). f(g, k).
f(d, h).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
def test_best_value_walks_break_ties_as_the_plain_loop(loops, strategy):
    queries = ["?- r(a, Y, C).", "?- m(a, Y, C).", "?- r(X, Y, C).",
               "?- m(b, Y, C)."]
    with_loops, plain = loops.twins(TIES, queries, strategy)
    assert with_loops == plain
    assert all(with_loops[0:8:2])
    # the walks of r(a, Y, C) and m(b, Y, C) in their own frames, whose
    # value is the answer's second term
    assert {(1, 1), (1, -1)} <= {best for _, _, _, best in loops.made}


CHAIN = ":- table reach(index, index).\n" \
        "reach(X, Y) :- e(X, Y).\n" \
        "reach(X, Y) :- reach(X, Z), e(Z, Y).\n" + "".join(
            "e(n%d, n%d).\n" % (k, k + 1) for k in range(8))


@pytest.mark.parametrize("strategy", ("local", "batched"))
def test_a_run_reads_the_answers_its_own_deliveries_add(loops, monkeypatch,
                                                        strategy):
    # each answer reach(n0, nK) the walk delivers stores reach(n0, nK+1),
    # which the same run of deliveries reads next
    grew = []
    real = Engine._deliver

    def deliver(self, consumer, leaf, resumed, bound=None, best=None):
        before = consumer.frame.n_inserted
        real(self, consumer, leaf, resumed, bound, best)
        last = consumer.last
        grew.append(consumer.step in self._runs and last is not None
                    and last.seq > before)

    monkeypatch.setattr(Engine, "_deliver", deliver)
    with_loops, plain = loops.twins(CHAIN, ["?- reach(n0, Y).",
                                            "?- reach(n3, Y)."], strategy)
    assert with_loops == plain
    assert [a[0][2] for a in with_loops[0]] == ["n%d" % k for k in range(1, 9)]
    assert any(grew)
    assert all(best is None for _, _, _, best in loops.made)


# p's recursive run stores p(a, f(d)) through _general (a compound),
# whose answer stands in for one that holds a variable: it marks p's
# entry open, and every later answer of the same run is renamed apart
OPENS = """
:- table p(index, index).
p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), e(Z, Y).
e(a, b). e(b, c). e(c, f(d)). e(c, g). e(g, h). e(f(d), k). e(h, m).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
def test_an_entry_opened_mid_run_hands_the_rest_over(loops, monkeypatch,
                                                     strategy):
    general, renamed = engine_mod._general, engine_mod._renamed
    counts = {"general": 0, "renamed": 0}

    def opening(engine, frame, vals):
        counts["general"] += 1
        general(engine, frame, vals)
        frame.entry.open = True

    def counted(terms):
        counts["renamed"] += 1
        return renamed(terms)

    monkeypatch.setattr(engine_mod, "_general", opening)
    monkeypatch.setattr(engine_mod, "_renamed", counted)
    seen = []
    for on in (True, False):
        loops.on = on
        for key in counts:
            counts[key] = 0
        engine = Engine(parse_program(OPENS), strategy)
        seen.append((observed(engine, ["?- p(a, Y)."]), dict(counts)))
    with_loops, plain = seen
    assert with_loops == plain
    # the answers after p(a, f(d)) are read renamed
    assert with_loops[1]["general"] and with_loops[1]["renamed"] >= 2
    assert [a[0][2] for a in with_loops[0][0]] == [
        "b", "c", "f(d)", "g", "k", "h", "m"]


# u's call of w holds V, a variable bound inside K = f(V): the general
# path, whose consumer binds V to each answer (its hplan) and so takes
# the plain loop, although its step is a fused run
GENERAL = """
:- table w(index, index).
w(X, Y) :- e(X, Y).
:- table u(index, index).
u(K, C) :- K = f(V), w(V, D), e(D, C).
e(a, b). e(b, c). e(c, a). e(b, d).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
def test_a_general_path_consumer_takes_the_plain_loop(loops, monkeypatch,
                                                      strategy):
    calls = []
    real = Engine._call_tabled

    def counted(self, *args):
        calls.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(Engine, "_call_tabled", counted)
    with_loops, plain = loops.twins(GENERAL, ["?- u(K, C).", "?- w(b, Y)."],
                                    strategy)
    assert with_loops == plain
    assert sorted(a[1][2] for a in with_loops[0]) == ["a", "b", "c", "d"]
    assert "w" in calls
    assert not [plan for _, _, plan, _ in loops.made]


@pytest.mark.parametrize("strategy", ("local", "batched"))
@pytest.mark.parametrize("limit", [60, 90, 200, 400])
def test_the_limit_trips_inside_a_generated_loop(loops, strategy, limit):
    inst = bench.gen_instance("shortest", 12, 3)
    text, query = bench.program_text(inst), bench.query_text(inst)
    with_loops, plain = loops.twins(text, [query], strategy, limit=limit)
    assert with_loops == plain
    assert with_loops[0] == "derivation limit of %d exceeded" % limit
    engine = Engine(parse_program(text), strategy, limit=limit)
    with pytest.raises(DerivationLimitError) as excinfo:
        engine.solve(query)
    last = traceback.extract_tb(excinfo.value.__traceback__)[-2]
    assert last.filename.startswith("<modetab deliver ")
    assert (last.name, last.line) == ("_deliver", "_over(limit)")


# the answers p(a, f(b)) and p(a, f(d)) put a compound where the run
# keys e by Z: the loop hands them to the step, which unifies, so f(b)
# does not meet e(f(d), x)
COMPOUND = """
:- table p(index, index).
p(X, Y) :- e(X, Y).
p(X, Y) :- p(X, Z), e(Z, Y).
e(a, f(b)). e(f(b), c). e(f(d), x). e(c, f(d)). e(x, y).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
def test_a_compound_in_the_answer_goes_to_the_step(loops, strategy):
    with_loops, plain = loops.twins(COMPOUND, ["?- p(a, Y).", "?- p(X, Y)."],
                                    strategy)
    assert with_loops == plain
    assert [a[0][2] for a in with_loops[0]] == ["f(b)", "c", "f(d)", "x", "y"]
    assert loops.made


# a non-number where the runs do arithmetic: in a fact column (z, read
# per row), in an answer (d(a, b, w), read per answer by the recursive
# run's loop) and at a call (t(a, X), read once by t's step)
ARITH = """
:- table d(index, index, min).
d(X, Y, C) :- e(X, Y, C).
d(X, Y, C) :- d(X, Z, C1), e(Z, Y, C2), C is C1 + C2.
e(a, b, 1). e(b, c, 2). e(c, d, z). e(d, f, 1). e(g, b, w).
:- table t(index, index).
t(In, Out) :- n(In), Out is In + 1.
n(1). n(a).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
@pytest.mark.parametrize("query, error", [
    ("?- d(a, Y, C).", "not an arithmetic term: z"),
    ("?- d(g, Y, C).", "not an arithmetic term: w"),
    ("?- t(a, X).", "not an arithmetic term: a"),
])
def test_a_non_number_raises_as_the_plain_path_does(loops, strategy, query,
                                                    error):
    seen = []
    for on in (True, False):
        loops.on = on
        engine = Engine(parse_program(ARITH), strategy)
        with pytest.raises(EvaluationError) as excinfo:
            engine.solve(query)
        seen.append((str(excinfo.value), engine.stats.as_dict()))
    assert seen[0] == seen[1]
    assert seen[0][0] == error


# a run keyed by a fact column of numbers: 1.5 and 2.0 are keyed as
# floats, apart from 2 and 1, so only a column of atoms and integers
# keys the index by itself
COLUMNS = """
:- table q(index, index).
q(X, W) :- a(X, F), b(F, W).
q(X, W) :- q(X, V), c(V, W).
a(x, 1.5). a(x, 2). a(w, 1). a(v, 2.0).
b(1.5, p). b(2, r). b(2.0, s). b(1.0, v). b(1, o). b(p, k).
c(p, 2.0). c(r, 1). c(o, 2). c(s, 1.0).
"""


@pytest.mark.parametrize("strategy", ("local", "batched"))
def test_a_column_of_numbers_keys_as_its_values_do(loops, strategy):
    with_loops, plain = loops.twins(COLUMNS, ["?- q(X, W)."], strategy)
    assert with_loops == plain
    assert sorted((a[0][2], a[1][2]) for a in with_loops[0]) == [
        ("v", "1.0"), ("v", "s"), ("w", "2"), ("w", "o"), ("x", "1"),
        ("x", "2.0"), ("x", "p"), ("x", "r")]
