"""End-to-end evaluation: generators, consumers, scheduling, completion."""

import gc
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import modetab.engine as engine_mod
from modetab import bench
from modetab.engine import (Consumer, Engine, _best, _Eval, _host, _pending,
                            _Slot, _Tmpl, solve)
from modetab.errors import DerivationLimitError, EvaluationError
from modetab.lang import parse_program
from modetab.modes import compile_declaration, insert_answer
from modetab.terms import Var, resolve, term_keys, term_to_str
from modetab.tries import (TableSpace, complete_table, drop_below,
                           iterate_answers, subgoal_lookup_insert)

from digest import NODE_SEEDS, bound_start, call_shapes, node_rules, with_calls
from oracles import bottom_up
from randprog import generate

REACH = """
:- table path/2.
path(X,Z) :- path(X,Y), edge(Y,Z).
path(X,Z) :- edge(X,Z).
edge(a,b).
edge(b,a).
"""

COUNTED_REACH = """
:- table path(index,index,first).
path(X,Z,N) :- path(X,Y,N1), edge(Y,Z), N is N1 + 1.
path(X,Z,1) :- edge(X,Z).
edge(a,b).
edge(b,a).
"""

COUNTED_REACH_PLAIN = COUNTED_REACH.replace(
    ":- table path(index,index,first).", ":- table path/3."
)

LINK_COUNTS = """
:- table num_links(index,sum).
num_links(A,0) :- edge(_,A).
num_links(A,1) :- edge(A,_).
:- table num_nodes(sum).
num_nodes(1) :- num_links(_,_).
edge(a,b).
edge(a,c).
edge(b,c).
"""

CHEAPEST = """
:- table path(index,index,min).
path(X,Z,C) :- edge(X,Z,C).
path(X,Z,C) :- path(X,Y,C1), edge(Y,Z,C2), C is C1 + C2.
edge(a,b,1).
edge(b,a,1).
edge(b,d,2).
edge(a,d,5).
"""

# in chain order c10 and e11 are delivered before c2 and e3 beat them
DETOUR = """
:- table path(index,index,min).
path(X,Z,C) :- edge(X,Z,C).
path(X,Z,C) :- path(X,Y,C1), edge(Y,Z,C2), C is C1 + C2.
edge(a,c,10).
edge(a,b,1).
edge(b,c,1).
edge(c,e,1).
"""

# the least label, numbers before atoms, of a first edge on a walk X to Y
FIRST_LABEL = """
:- table tag(index,index,min).
tag(X,Y,L) :- edge(X,Y,L).
tag(X,Y,L) :- tag(X,Z,L), edge(Z,Y,_).
edge(a,b,m).
edge(b,c,k).
edge(c,a,5).
edge(a,c,z).
"""

MUTUAL = """
:- table p/1.
:- table q/1.
p(X) :- q(X).
p(a).
q(X) :- p(X).
q(b).
"""

BOTH = ("local", "batched")


def run(text, query, strategy="local", **kw):
    return solve(parse_program(text), query, strategy=strategy, **kw)


def bench_case(family, size, seed):
    inst = bench.gen_instance(family, size, seed)
    return parse_program(bench.program_text(inst)), bench.query_text(inst)


def deliveries(engine, frame=None, host=None):
    out = []
    for e in engine.events:
        if e["kind"] != "deliver":
            continue
        if frame is not None and e["frame"] != frame:
            continue
        if host is not None and e["host"] != host:
            continue
        out.append(e)
    return out


# ---------------------------------------------------------------------------
# Reachability


@pytest.mark.parametrize("strategy", BOTH)
def test_left_recursive_reachability_answers_in_chain_order(strategy):
    answers, _ = run(REACH, "?- path(a,Z).", strategy)
    assert answers == [{"Z": "b"}, {"Z": "a"}]


@pytest.mark.parametrize("strategy", BOTH)
def test_ground_call_on_tabled_predicate(strategy):
    yes, _ = run(REACH, "?- path(a,b).", strategy)
    assert yes == [{}]
    no, _ = run(REACH, "?- path(a,c).", strategy)
    assert no == []


@pytest.mark.parametrize("strategy", BOTH)
def test_repeated_variable_keeps_diagonal_answers(strategy):
    answers, _ = run(REACH, "?- path(X,X).", strategy)
    assert answers == [{"X": "a"}, {"X": "b"}]


def test_plain_fact_queries():
    assert run(REACH, "?- edge(a,b).")[0] == [{}]
    assert run(REACH, "?- edge(b,b).")[0] == []


def test_unknown_predicate_is_reported():
    with pytest.raises(EvaluationError, match="unknown predicate"):
        run(REACH, "?- nosuch(a).")


def test_strategy_name_is_checked():
    with pytest.raises(ValueError):
        Engine(parse_program(REACH), "eager")


# ---------------------------------------------------------------------------
# first mode prunes re-derivations that only differ in the counter


@pytest.mark.parametrize("strategy", BOTH)
def test_first_mode_makes_counted_reachability_finite(strategy):
    answers, _ = run(COUNTED_REACH, "?- path(a,Z,N).", strategy)
    assert answers == [{"Z": "b", "N": 1}, {"Z": "a", "N": 2}]


@pytest.mark.parametrize("strategy", BOTH)
def test_counted_reachability_diverges_without_modes(strategy):
    with pytest.raises(DerivationLimitError):
        run(COUNTED_REACH_PLAIN, "?- path(a,Z,N).", strategy, limit=5000)


# ---------------------------------------------------------------------------
# sum is sensitive to the scheduling strategy


def test_sum_under_local_counts_final_answers():
    answers, _ = run(LINK_COUNTS, "?- num_nodes(N).", "local")
    assert answers == [{"N": 3}]


def test_sum_under_batched_counts_every_delivery():
    answers, _ = run(LINK_COUNTS, "?- num_nodes(N).", "batched")
    assert answers == [{"N": 6}]


def test_batched_sum_passes_through_each_intermediate_total():
    engine = Engine(parse_program(LINK_COUNTS), "batched", trace=True)
    engine.solve("?- num_nodes(N).")
    totals = [
        e["total"]
        for e in engine.events
        if e["kind"] == "insert" and e["frame"] == "num_nodes/1"
    ]
    assert totals == [1, 2, 3, 4, 5, 6]


def test_local_releases_only_after_completion():
    engine = Engine(parse_program(LINK_COUNTS), "local", trace=True)
    engine.solve("?- num_nodes(N).")
    seen = deliveries(engine, frame="num_links/2", host="num_nodes/1")
    assert len(seen) == 3
    assert all(e["complete"] for e in seen)


def test_batched_delivers_before_completion():
    engine = Engine(parse_program(LINK_COUNTS), "batched", trace=True)
    engine.solve("?- num_nodes(N).")
    seen = deliveries(engine, frame="num_links/2", host="num_nodes/1")
    assert len(seen) == 6
    assert not any(e["complete"] for e in seen)


def test_strategy_override_beats_the_engine_default():
    text = LINK_COUNTS + ":- table_strategy num_links/2, local.\n"
    answers, _ = run(text, "?- num_nodes(N).", "batched")
    assert answers == [{"N": 3}]


# ---------------------------------------------------------------------------
# min keeps one witness and withdraws beaten answers


@pytest.mark.parametrize("strategy", BOTH)
def test_cheapest_path_replaces_beaten_costs(strategy):
    answers, stats = run(CHEAPEST, "?- path(a,Z,C).", strategy)
    assert answers == [
        {"Z": "b", "C": 1},
        {"Z": "a", "C": 2},
        {"Z": "d", "C": 3},
    ]
    assert stats.insertions == 6
    assert stats.invalidations == 1
    assert stats.propagations == 3


def test_value_order_delivers_each_final_answer_once():
    answers, stats = run(DETOUR, "?- path(a,Z,C).", "local")
    assert answers == [
        {"Z": "b", "C": 1},
        {"Z": "c", "C": 2},
        {"Z": "e", "C": 3},
    ]
    assert stats.invalidations == 1  # c10 was stored, then beaten
    assert stats.propagations == len(answers)
    batched, _ = run(DETOUR, "?- path(a,Z,C).", "batched")
    key = lambda a: (a["Z"], a["C"])
    assert sorted(map(key, answers)) == sorted(map(key, batched))


def test_first_tables_keep_chain_order():
    # a first witness depends on arrival order, so shortest_first's walk
    # stays in chain order and its work is what it was before value order
    _, stats = solve(*bench_case("shortest_first", 50, 1))
    assert (stats.derivations, stats.insertions, stats.invalidations,
            stats.propagations) == (26297, 13244, 2011, 3388)


@pytest.mark.parametrize("strategy", BOTH)
def test_min_over_atom_costs_reaches_the_fixpoint(strategy):
    answers, _ = run(FIRST_LABEL, "?- tag(X,Y,L).", strategy)
    got = sorted((a["X"], a["Y"], a["L"]) for a in answers)
    assert got == [(x, y, label) for x, label in (("a", "m"), ("b", "k"),
                                                  ("c", 5))
                   for y in "abc"]


def test_callers_outside_the_component_read_in_chain_order():
    program, query = bench_case("shortest_pref", 10, 1)
    engine = Engine(program, "local", trace=True)
    engine.solve(query)
    path = next(iter(engine.entry("path", 3).frames))
    seen = [e["seq"] for e in deliveries(engine, frame="path/3",
                                         host="best/3")]
    assert seen == [leaf.seq for leaf in iterate_answers(path)]


def test_catch_up_skips_answers_invalidated_on_the_way():
    engine = Engine(parse_program(CHEAPEST), "batched", trace=True)
    engine.solve("?- path(a,Z,C).")
    seqs = {e["seq"] for e in deliveries(engine, frame="path/3")}
    assert seqs == {1, 3, 4}  # the cost-5 answer at seq 2 was replaced


# ---------------------------------------------------------------------------
# batched consumers in order-free tables settle as under local

# a sum table that counts every delivery of a min table
COUNTED_CHEAPEST = CHEAPEST + ":- table n(sum).\nn(1) :- path(_,_,_).\n"


class Queue(deque):
    """A task queue that keeps a log of every task put on it."""

    def __init__(self):
        super().__init__()
        self.log = []

    def append(self, task):
        self.log.append(task)
        super().append(task)

    def extend(self, tasks):
        tasks = list(tasks)
        self.log.extend(tasks)
        super().extend(tasks)


def delivered(engine, frame):
    """The answer a consumer's step is running for: the one the deliver
    event just logged names, found on its frame's chain, which holds
    every answer (dead ones too) until the table completes."""
    seq = engine.events[-1]["seq"]
    leaf = frame.first_answer
    while leaf.seq != seq:
        leaf = leaf.next
    return leaf


def watched(program, strategy, monkeypatch):
    """An engine that records, per delivery, the consumer, the answer's
    seq and whether the answer was still valid when it was delivered,
    keeps the delivered answers in leaves, and logs its task queue. Each
    consumer's step records its deliveries."""
    engine = Engine(program, strategy, trace=True)
    engine.seen = []
    engine.leaves = []
    engine.tasks = Queue()

    class Watched(Consumer):
        __slots__ = ()

        def __init__(self, frame, host, plan, hplan, step, *rest):
            def watch(env, parent):
                leaf = delivered(engine, frame)
                engine.seen.append((self, leaf.seq, leaf.valid))
                engine.leaves.append(leaf)
                step(env, parent)
            super().__init__(frame, host, plan, hplan, watch, *rest)
    monkeypatch.setattr(engine_mod, "Consumer", Watched)
    return engine


@pytest.mark.parametrize("case", ["cheapest", "detour", "shortest"])
def test_batched_delivers_no_dead_answer_to_an_order_free_host(
        case, monkeypatch):
    program, query = {
        "cheapest": (parse_program(CHEAPEST), "?- path(a,Z,C)."),
        "detour": (parse_program(DETOUR), "?- path(a,Z,C)."),
        "shortest": bench_case("shortest", 12, 1),
    }[case]
    engine = watched(program, "batched", monkeypatch)
    engine.solve(query)
    dead = [(c.cid, seq) for c, seq, valid in engine.seen
            if not valid and c.host is not None and c.host.entry.any_order]
    assert dead == []
    if case == "shortest":
        # a consumer in an order-free table reading an order-free table
        # settles at completion: no insertion event is queued for it
        settling = [c.cid for kind, c, *_ in engine.tasks.log
                    if kind == "event" and c.host is not None
                    and c.host.entry.any_order and c.frame.entry.any_order]
        assert settling == []


def test_a_sum_host_still_gets_dead_answers_of_a_min_producer(monkeypatch):
    engine = watched(parse_program(COUNTED_CHEAPEST), "batched", monkeypatch)
    answers, _ = engine.solve("?- n(N).")
    to_sum = [seq for c, seq, valid in engine.seen
              if c.host is not None and c.host.name() == "n/1"]
    changed = [e for e in engine.events if e["kind"] == "insert"
               and e["frame"] == "path/3" and e["outcome"] != "rejected"]
    # the cost-5 answer to d reaches the sum, then the cost-3 one beats it
    beaten = [leaf for leaf in engine.leaves if leaf.terms == ("a", "d", 5)]
    assert beaten and beaten[0].seq in to_sum
    assert not beaten[0].valid
    assert len(to_sum) == len(changed)
    assert answers == [{"N": len(changed)}]


@pytest.mark.parametrize("family, size, strategy", [
    ("shortest_first", 12, "batched"),
    ("lcs", 18, "local"),
    ("lcs", 18, "batched"),
    ("matrix", 8, "local"),
    ("pagerank", 20, "local"),
])
def test_no_evaluation_state_outlives_completion(family, size, strategy):
    program, query = bench_case(family, size, 1)
    engine = Engine(program, strategy)
    gc.collect()
    gc.disable()
    try:
        engine.solve(query)
        frames = [f for e in engine.space.entries.values() for f in e.frames]
        assert frames and all(f.complete and f.generator is None
                              for f in frames)
        # reference counting alone freed the consumers, with their
        # activation copies and frozen callers
        assert [o for o in gc.get_objects() if type(o) is Consumer] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("family, size, work", [
    # order-free tables settle, so their work is local's
    ("shortest", 50, (19495, 9843, 787, 2500)),
    ("knapsack", 14, (3165, 481, 86, 432)),
    ("lcs", 18, (4829, 811, 80, 773)),
    ("matrix", 8, (1308, 92, 23, 168)),
    # a first column keeps every delivery, so its work is what it was
    ("shortest_first", 50, (40273, 20232, 2703, 5198)),
])
def test_batched_work_on_seed_1(family, size, work):
    _, stats = solve(*bench_case(family, size, 1), strategy="batched")
    assert (stats.derivations, stats.insertions, stats.invalidations,
            stats.propagations) == work


def test_random_programs_agree_across_strategies():
    diffs = []
    for seed in range(51, 1051):
        text, query, names = generate(seed)
        program = parse_program(text)
        sets = [
            {tuple(term_to_str(a[v]) for v in names)
             for a in solve(program, query, strategy=s)[0]}
            for s in BOTH
        ]
        if sets[0] != sets[1]:
            diffs.append(seed)
    assert diffs == []


def order_free(program):
    """Whether no table of the program has a first, last or sum column."""
    return not any(d.modes and {"first", "last", "sum"} & set(d.modes)
                   for d in program.declarations)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family, size", [
    ("shortest", 50), ("shortest_all", 50), ("knapsack", 14), ("lcs", 18),
    ("matrix", 8),
])
def test_order_free_families_do_the_same_work_under_both(family, size, seed):
    program, query = bench_case(family, size, seed)
    assert order_free(program)
    runs = [solve(program, query, strategy=s) for s in BOTH]
    local, batched = [(answers, stats.as_dict()) for answers, stats in runs]
    assert batched == local


def test_order_free_random_programs_do_the_same_work_under_both():
    diffs = []
    for seed in range(51, 1051):
        text, query, _ = generate(seed)
        program = parse_program(text)
        if not order_free(program):
            continue
        local, batched = [(answers, stats.as_dict()) for answers, stats in
                          (solve(program, query, strategy=s) for s in BOTH)]
        if batched != local:
            diffs.append(seed)
    assert diffs == []


@pytest.mark.parametrize("family, size, work", [
    ("shortest", 50, (19495, 9843, 787, 2500, 2500)),
    ("shortest_first", 50, (26297, 13244, 2011, 3388, 3388)),
    ("shortest_all", 50, (29355, 9913, 793, 2518, 2518)),
    ("shortest_pref", 50, (19496, 12343, 787, 5000, 5000)),
    ("knapsack", 14, (3165, 481, 86, 432, 432)),
    ("lcs", 18, (4829, 811, 80, 773, 773)),
    ("matrix", 8, (1308, 92, 23, 168, 141)),
    ("pagerank", 50, (5465, 1800, 1250, 500, 500)),
])
def test_local_work_on_seed_1(family, size, work):
    _, stats = solve(*bench_case(family, size, 1))
    assert (stats.derivations, stats.insertions, stats.invalidations,
            stats.propagations, stats.resumptions) == work


@pytest.mark.parametrize("family, size, strategy", [
    (family, size, strategy)
    for family, size in (("shortest", 12), ("shortest_first", 12),
                         ("shortest_all", 12), ("shortest_pref", 12),
                         ("knapsack", 8), ("lcs", 10), ("matrix", 8),
                         ("pagerank", 10))
    for strategy in BOTH
    if not (family == "pagerank" and strategy == "batched")
])
def test_every_propagation_is_one_deliver_event(family, size, strategy):
    # matrix reads completed tables of smaller chains, which are
    # propagations but not resumptions
    program, query = bench_case(family, size, 1)
    engine = Engine(program, strategy, trace=True)
    _, stats = engine.solve(query)
    seen = deliveries(engine)
    assert len(seen) == stats.propagations
    assert sum(e["resumed"] for e in seen) == stats.resumptions


@pytest.mark.parametrize("strategy", BOTH)
def test_no_answer_is_delivered_twice_to_a_consumer(strategy):
    for text, query in (
        (REACH, "?- path(a,Z)."),
        (LINK_COUNTS, "?- num_nodes(N)."),
        (CHEAPEST, "?- path(a,Z,C)."),
    ):
        engine = Engine(parse_program(text), strategy, trace=True)
        engine.solve(query)
        slots = [(e["consumer"], e["seq"]) for e in deliveries(engine)]
        assert len(slots) == len(set(slots))


# ---------------------------------------------------------------------------
# completed tables are reused


def test_second_identical_query_is_a_pure_table_read():
    engine = Engine(parse_program(REACH), "local")
    first, _ = engine.solve("?- path(a,Z).")
    before = engine.stats.as_dict()
    second, _ = engine.solve("?- path(a,Z).")
    assert second == first
    assert engine.stats.as_dict() == before


def test_completed_table_feeds_later_joins():
    engine = Engine(parse_program(REACH), "local")
    engine.solve("?- path(a,Z).")
    answers, _ = engine.solve("?- path(a,Z), edge(Z,W).")
    assert answers == [{"Z": "b", "W": "a"}, {"Z": "a", "W": "b"}]


# ---------------------------------------------------------------------------
# a single tabled goal's answers are the completed table, in chain order


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("query, names", [
    # per name, the answer ordinal of the call's free variable it reads
    ("?- path(X, Y, C).", {"X": 0, "Y": 1, "C": 2}),
    ("?- path(X, _, C).", {"X": 0, "C": 2}),
    ("?- path(_, Y, C).", {"Y": 1, "C": 2}),
    ("?- path(C, Y, _).", {"C": 0, "Y": 1}),
    ("?- path(n0, Y, C).", {"Y": 0, "C": 1}),
    ("?- path(n0, _, C).", {"C": 1}),
    ("?- path(n0, n3, C).", {"C": 0}),
    ("?- path(n0, n3, _).", {}),
])
def test_a_tabled_query_reads_its_completed_table(strategy, query, names):
    program, _ = bench_case("shortest", 12, 3)
    engine = Engine(program, strategy)
    made = []
    materialize = engine._materialize

    def recorded(name, args):
        made.append(materialize(name, args))
        return made[-1]
    engine._materialize = recorded
    answers, _ = engine.solve(query)
    frame = made[0][0]
    assert frame.complete
    want = [{name: leaf.terms[o] for name, o in names.items()}
            for leaf in iterate_answers(frame)]
    assert answers == want
    assert len(answers) == frame.n_inserted - frame.n_purged > 0
    assert all(list(answer) == list(names) for answer in answers)


# ---------------------------------------------------------------------------
# untabled rules, and calls that the benchmark families do not make

RULES = """
gp(X, Z) :- par(X, Y), par(Y, Z).
anc(X, Y) :- par(X, Y).
anc(X, Z) :- par(X, Y), anc(Y, Z).
par(a, b).
par(b, c).
par(c, d).
"""

# hop reads path from an untabled rule, and far reads hop from a table
IN_RULE = """
:- table path/2.
path(X,Z) :- path(X,Y), edge(Y,Z).
path(X,Z) :- edge(X,Z).
hop(X, Z) :- path(X, Z), edge(Z, _).
:- table far/1.
far(Z) :- hop(a, Z).
edge(a,b).
edge(b,c).
edge(c,a).
edge(c,d).
"""

# wrap is called with a compound holding the caller's variable
COMPOUND = """
:- table wrap/1.
wrap(f(a)).
wrap(g(b)).
wrap(f(c)).
inner(X) :- wrap(f(X)).
tagged(X, T) :- T = t(X), wrap(f(X)).
:- table pair/1.
pair(p(X, Y)) :- inner(X), inner(Y).
"""

FACTS = """
e(a, a).
e(a, b).
e(b, b).
k(f(a), 1).
k(g(b), 2).
k(f(c), 3).
to_b(X) :- e(X, b).
"""

ZERO_ARITY = """
p :- q.
q :- e(a, _).
:- table t/0.
t :- e(a, _).
u :- t.
w :- e(b, _).
e(a, b).
"""

INNER = [{"X": "a"}, {"X": "c"}]
TAGGED = [{"X": "a", "T": "t(a)"}, {"X": "c", "T": "t(c)"}]
HOPS = [{"Z": "b"}, {"Z": "c"}, {"Z": "c"}, {"Z": "a"}]


def printed(answers):
    return [{k: term_to_str(v) for k, v in a.items()} for a in answers]


def session(text, strategy, queries):
    """The printed answers of each query, in turn, on one engine: a
    query can read the tables an earlier one completed."""
    engine = Engine(parse_program(text), strategy)
    return [printed(engine.solve(query)[0]) for query in queries]


@pytest.mark.parametrize("strategy", BOTH)
def test_untabled_rules_return_to_their_callers(strategy):
    assert session(RULES, strategy, [
        "?- gp(a, Z).", "?- anc(a, Z).", "?- anc(X, d).",
    ]) == [
        [{"Z": "c"}],
        [{"Z": "b"}, {"Z": "c"}, {"Z": "d"}],
        [{"X": "c"}, {"X": "a"}, {"X": "b"}],
    ]


@pytest.mark.parametrize("strategy", BOTH)
def test_tabled_calls_inside_untabled_rules(strategy):
    # first path(a,_) is evaluated under hop; then far and the second
    # hop read it completed, far from inside its own generator
    assert session(IN_RULE, strategy, [
        "?- hop(a, Z).", "?- far(Z).", "?- hop(a, Z).",
    ]) == [HOPS, [{"Z": "b"}, {"Z": "c"}, {"Z": "a"}], HOPS]


@pytest.mark.parametrize("strategy", BOTH)
def test_tabled_calls_with_a_compound_holding_a_variable(strategy):
    # tagged has bound T before it calls wrap; the second round reads
    # wrap's completed table
    queries = ["?- tagged(X, T).", "?- inner(X), inner(Y).", "?- inner(X).",
               "?- pair(P).", "?- tagged(X, T).", "?- tagged(X, T), inner(Y)."]
    assert session(COMPOUND, strategy, queries) == [
        TAGGED,
        [{"X": x, "Y": y} for x in "ac" for y in "ac"],
        INNER,
        [{"P": "p(%s, %s)" % (x, y)} for x in "ac" for y in "ac"],
        TAGGED,
        [dict(t, Y=y) for t in TAGGED for y in "ac"],
    ]


@pytest.mark.parametrize("strategy", BOTH)
def test_fact_calls_with_a_repeated_variable_or_a_compound(strategy):
    assert session(FACTS, strategy, [
        "?- e(X, X).", "?- k(f(Y), N).", "?- to_b(X).", "?- e(X, Y), e(Y, X).",
    ]) == [
        [{"X": "a"}, {"X": "b"}],
        [{"Y": "a", "N": "1"}, {"Y": "c", "N": "3"}],
        [{"X": "a"}, {"X": "b"}],
        [{"X": "a", "Y": "a"}, {"X": "b", "Y": "b"}],
    ]


@pytest.mark.parametrize("strategy", BOTH)
def test_zero_arity_goals(strategy):
    assert session(ZERO_ARITY, strategy, ["?- p.", "?- u.", "?- t.", "?- w."]
                   ) == [[{}], [{}], [{}], []]


# ---------------------------------------------------------------------------
# compiled call sites

# p's mode order puts its index arguments before its min argument
SITE = """
:- table p(min, index, index).
p(C, K, L) :- e(K, L, C).
e(a, x, 3). e(a, x, 1). e(a, y, 2).
e(1, x, 5). e(1, y, 6). e(1.0, x, 7).
e(f(b), x, 2). e(f(b), y, 4). e(x, x, 9).
one(X) :- X = 1.
h(K, C, L) :- p(C, K, L).
:- table z/0.
z :- e(a, x, _).
:- table r/2.
r(K, C) :- p(C, K, x).
:- table q/2.
"""


def holds_unbound(engine, specs, env):
    """Whether a tabled goal holds a compound with variables, or one of
    its bound slots holds an unbound variable."""
    for s in specs:
        if type(s) is _Tmpl:
            return True
        if type(s) is _Slot and not s.first and env[s.i] is not None:
            varmap = {}
            term_keys([resolve(env[s.i], engine.bind)], varmap)
            if varmap:
                return True
    return False


def count_general(monkeypatch):
    """A list that gets (predicate, holds_unbound) per general-path call."""
    general = []
    real = Engine._call_tabled

    def counted(self, name, specs, env, parent, nxt):
        general.append((name, holds_unbound(self, specs, env)))
        return real(self, name, specs, env, parent, nxt)

    monkeypatch.setattr(Engine, "_call_tabled", counted)
    return general


# calls whose goals and slots hold no unbound variable: all stay on the site
GROUND_CALLS = [
    # a float constant: 1 and 1.0 are different calls
    ("q(C, L) :- p(C, 1, L).\nq(C, L) :- p(C, 1.0, L).", "?- q(C, L).", 2),
    # a ground compound constant; f(1.0) is not f(1)
    ("q(C, L) :- p(C, f(b), L).\nq(C, L) :- p(C, f(1.0), L).",
     "?- q(C, L).", 2),
    # K is free and its first occurrence is the call's
    ("q(C, L) :- p(C, K, K), L = K.", "?- q(C, L).", 1),
    # K is bound to atoms, integers, a float and a compound in turn
    ("q(C, K) :- e(K, _, _), p(C, K, K).", "?- q(C, K).", 5),
    ("q(C, L) :- X = 1.0, p(C, X, L).", "?- q(C, L).", 1),  # `=`, a float
    # X holds f(Y), and the fact goal binds Y's Var to b
    ("q(C, L) :- X = f(Y), e(X, L, _), p(C, X, L).", "?- q(C, L).", 2),
]


@pytest.mark.parametrize("rules, query, frames", [
    ("q(C, L) :- p(C, a, L).", "?- q(C, L), q(D, M).", 1),  # atom
    ("q(C, L) :- p(C, 1, L).", "?- q(C, L), q(D, M).", 1),  # integer
    # 1 and 1.0 are different calls
    ("q(C, L) :- p(C, 1, L).\nq(C, L) :- X = 1.0, p(C, X, L).",
     "?- q(C, L).", 2),
    # a Var bound to 1 in the walk's bindings is the call p(C, 1, L)
    ("q(C, L) :- one(X), p(C, X, L).\nq(C, L) :- p(C, 1, L).",
     "?- q(C, L).", 1),
    # K is bound to atoms, integers, a float and a compound in turn
    ("q(C, K) :- e(K, x, _), p(C, K, x).", "?- q(C, K).", 5),
    # h's variables stay shared with the query's
    ("", "?- h(K, C, L), e(K, L, _).", 1),
    ("q(C, L) :- p(C, f(b), L).", "?- q(C, L), q(D, M).", 1),  # compound
    ("q(C, K) :- p(C, K, K).", "?- q(C, K), q(D, J).", 1),  # repeated
    ("q(C, L) :- z, p(C, a, L), z.", "?- q(C, L), q(D, M).", 1),  # arity 0
    # q's and r's heads leave their variables unbound for the body's call
    ("q(K, C) :- r(K, C).", "?- q(K, C), r(a, D).", 2),
    # a compound call answers C and L through Vars; then a fact goal
    # looks L up by its first argument, `is` reads C, and the second
    # call keys its site by the atom L's Var is bound to
    ("q(D, M) :- p(C, f(b), L), e(L, _, _), D is C * 2, p(M, L, _).",
     "?- q(D, M).", 2),
    # w's answer holds a variable: the second call reads it through K's
    # Var, and M = f(b) binds K for the compound call on N
    ("q(C, L) :- w(K, M), w(K, N), M = f(b), p(C, N, L).\n"
     ":- table w/2.\nw(X, f(X)).", "?- q(C, L), q(D, M).", 1),
    # one site reads q's head variable L bound, then unbound (linked),
    # then bound again: a step per pattern, each kept for its next call
    ("q(C, L) :- p(C, a, L).", "?- q(D, x), q(C, L), q(E, y).", 3),
    # K's Var is bound to an atom first, so the site's step is made for a
    # bound K; later calls bring an integer, a float, a compound and an
    # unbound Var
    ("q(C, K) :- pick(K), p(C, K, x).\n"
     "pick(K) :- e(K, x, _).\npick(K) :- K = K.", "?- q(C, K).", 6),
] + GROUND_CALLS)
@pytest.mark.parametrize("strategy", BOTH)
def test_call_sites_match_the_general_path(rules, query, frames, strategy,
                                           monkeypatch):
    general = count_general(monkeypatch)

    def outcome():
        engine = Engine(parse_program(SITE + rules), strategy)
        answers, stats = engine.solve(query)
        # per frame also its shape, which must be the entry's one tuple
        # for that shape, and per entry its variant keys in calls order
        tables = [(e.name, [(f.n_inserted, f.n_invalidated, f.n_purged,
                             [term_to_str(t) for a in iterate_answers(f)
                              for t in a.terms], f.subst_modes,
                             f.subst_modes is e.shapes[
                                 tuple(n for _, n, _ in f.subst_modes)])
                            for f in e.frames], list(e.calls))
                  for e in engine.space.entries.values()]
        return printed(answers), stats.as_dict(), tables

    got = outcome()
    assert all(holds for _, holds in general)
    if (rules, query, frames) in GROUND_CALLS:
        assert general == []
    # the reference: every tabled call takes the general path
    monkeypatch.setattr(Engine, "_site_step", lambda self, name, specs, nxt: (
        lambda env, parent: self._call_tabled(name, specs, env, parent, nxt)))
    assert got == outcome()
    assert got[0]
    p = {name: fs for name, fs, _ in got[2]}["p"]
    assert len(p) == frames
    assert all(shared for *_, shared in p)


def test_a_call_site_reads_a_var_bound_to_an_atom(monkeypatch):
    general = count_general(monkeypatch)
    engine = Engine(parse_program(
        SITE + "q(C, M) :- p(C, f(b), L), e(L, _, _), p(M, L, _)."))
    answers, _ = engine.solve("?- q(C, M).")
    assert printed(answers) == [{"C": "2", "M": "9"}]
    # both on the site: a ground compound and L's slot, which the first
    # call's answer fills with x
    assert general == []


@pytest.mark.parametrize("strategy", BOTH)
def test_a_general_call_leaves_no_var_in_its_callers_slots(strategy,
                                                           monkeypatch):
    general = count_general(monkeypatch)
    # pick's first clause leaves K unbound, so p(C, K, x) takes the
    # general path; C's slot stays unbound after it, so the calls with
    # the atoms, numbers and compound that K meets next stay on the site
    answers, _ = run(SITE + "q(C, K) :- pick(K), p(C, K, x).\n"
                     "pick(K) :- K = K.\npick(K) :- e(K, x, _).",
                     "?- q(C, K).", strategy)
    assert printed(answers) == [
        {"C": "1", "K": "a"}, {"C": "5", "K": "1"}, {"C": "7", "K": "1.0"},
        {"C": "2", "K": "f(b)"}, {"C": "9", "K": "x"}]
    assert general == [("p", True)]


def node_programs(edit, queries):
    """The first 24 programs of a tests/digest.py node sweep, each with
    its queries: (program, query) pairs."""
    for seed in NODE_SEEDS[:24]:
        text, query, _ = generate(seed)
        program = parse_program(edit(text))
        for q in queries(query):
            yield program, q


@pytest.mark.parametrize("edit, queries", [(node_rules, bound_start),
                                           (call_shapes, with_calls)])
def test_only_calls_that_hold_an_unbound_variable_go_general(edit, queries,
                                                            monkeypatch):
    # the randheads and randcalls programs of tests/digest.py
    general = count_general(monkeypatch)
    sites = []
    real = Engine._site_step

    def compiled(self, name, specs, nxt):
        step = real(self, name, specs, nxt)

        def counted(env, parent):
            sites.append(name)
            step(env, parent)
        return counted

    monkeypatch.setattr(Engine, "_site_step", compiled)
    for program, query in node_programs(edit, queries):
        assert Engine(program).solve(query)[0]
    assert sites and general
    assert all(holds for _, holds in general)


@pytest.mark.parametrize("strategy", BOTH)
def test_every_suspend_shape_is_registered_alike(strategy, monkeypatch):
    # _consume copies a suspending call's activation and callers one of
    # three ways: with walk bindings, for a caller chain, or for a caller
    # that is the sink; a read of a completed table keeps them live
    shapes = set()
    real = Engine._consume

    def observed(self, frame, plan, hplan, env, parent, nxt):
        complete, host = frame.complete, _host(parent)
        shape = ("complete" if complete else "bindings" if self.bind
                 else "chain" if type(parent) is tuple else "sink")
        shapes.add(shape)
        real(self, frame, plan, hplan, env, parent, nxt)
        if not complete:
            consumer = frame.generator.consumers[-1]
            assert consumer.host is host and consumer.step is nxt
            assert consumer.env is not env and len(consumer.env) == len(env)
            assert (consumer.parent is parent) == (shape == "sink")

    monkeypatch.setattr(Engine, "_consume", observed)
    # matrix reads completed tables, and reach's clause is a caller chain
    # that binds nothing; lcs's calls come straight from clause bodies
    cases = [bench_case("lcs", 20, 3), bench_case("matrix", 8, 3),
             (parse_program(REACH + "reach(X) :- path(X, _).\n"),
              "?- reach(a).")]
    cases += node_programs(node_rules, bound_start)
    cases += node_programs(call_shapes, with_calls)
    for program, query in cases:
        assert Engine(program, strategy).solve(query)[0]
    assert shapes == {"complete", "bindings", "chain", "sink"}


def pending_frame(modes):
    """An incomplete frame for an all-free call, with the engine record a
    Consumer reads, and no generator to run."""
    entry = TableSpace().entry("p", len(modes), compile_declaration(
        "p", len(modes), list(modes)))
    args = tuple(Var() for _ in modes)
    frame = subgoal_lookup_insert(entry, tuple(term_keys(args)),
                                  (1,) * len(modes))[0]
    frame.generator = _Eval(frame, args, (), (), True)
    return frame


def test_pending_and_walks_follow_the_chain_as_iterate_answers_does():
    # a consumer parked on any leaf, before or after the table drops and
    # purges leaves; its walk's deliveries add answers, which it reads too.
    # One in the frame's own evaluation walks best value first, on the
    # incomplete frame.
    rng = random.Random(25)
    engine = Engine(parse_program(""), trace=True)
    parked_stale = purged = added = dead_tails = ordered = 0
    for case in range(400):
        modes = (("index", "min"), ("index", "max", "all"),
                 ("index", "index"))[case % 3]
        frame = pending_frame(modes)
        leaves = []

        def pour(n):
            # inserts, and now and then a key's branch dropped with
            # nothing in its place, which can leave the chain's tail
            # invalid; under an index, min key the branch is one record
            for _ in range(n):
                if frame.root and rng.random() < 0.2:
                    key = rng.choice(list(frame.root))
                    drop_below(frame, {key: frame.root.pop(key)})
                    continue
                row = [rng.choice((1, 2))]
                row += [rng.randint(0, 9) for _ in modes[1:]]
                out = insert_answer(frame, tuple(row))
                if out.leaf is not None:
                    leaves.append(out.leaf)

        def agrees(consumer):
            want = next(iterate_answers(frame, consumer.last), None)
            assert _pending(consumer) == (want is not None)

        seen = []

        def step(env, parent):
            # the deliver event just logged names the answer
            leaf = delivered(engine, frame)
            assert leaf.valid
            seen.append(leaf)
            agrees(consumer)
            if adding and rng.random() < 0.5:
                pour(1)
                agrees(consumer)

        pour(rng.randint(0, 6))
        host = frame if case % 4 >= 2 else None
        consumer = Consumer(frame, host, (), (), step, [], None, None)
        if leaves and rng.random() < 0.8:
            consumer.last = rng.choice(leaves)
        agrees(consumer)
        pour(rng.randint(0, 6))
        parked_stale += consumer.last is not None and not consumer.last.valid
        tail = frame.last_answer
        dead_tails += tail is not None and not tail.valid
        adding = case % 2 == 0
        if not adding and host is None:
            complete_table(frame)
            purged += frame.n_purged
        agrees(consumer)
        start = consumer.last.seq if consumer.last is not None else 0
        want = list(iterate_answers(frame, consumer.last))
        best = host is not None and _best(frame)
        if best:
            k, sign = best
            want.sort(key=lambda leaf: (sign * leaf.terms[k], leaf.seq))
            ordered += 1
        before = frame.n_inserted
        engine._walk_consumer(consumer)
        added += frame.n_inserted - before
        assert not _pending(consumer)
        agrees(consumer)
        # each answer after the parked leaf that is still valid, once, in
        # chain order or best value first; one dropped during the walk
        # may have come first
        seqs = [leaf.seq for leaf in seen]
        assert len(set(seqs)) == len(seqs) and all(n > start for n in seqs)
        assert best or seqs == sorted(seqs)
        assert {leaf for leaf in iterate_answers(frame)
                if leaf.seq > start} <= set(seen)
        if not adding:
            assert seen == want
    assert parked_stale and purged and added and dead_tails and ordered


def test_a_call_site_looks_up_each_frame_once(monkeypatch):
    import modetab.engine as engine_mod
    calls = []
    real = engine_mod.subgoal_lookup_insert

    def counted(entry, key, counts):
        calls.append(1)
        return real(entry, key, counts)

    monkeypatch.setattr(engine_mod, "subgoal_lookup_insert", counted)
    program, query = bench_case("lcs", 20, 3)
    engine = Engine(program)
    engine.solve(query)
    frames = sum(len(e.calls) for e in engine.space.entries.values())
    assert frames > 400
    assert len(calls) == frames


def test_a_call_site_makes_its_frame_without_tokenizing(monkeypatch):
    import modetab.engine as engine_mod
    keyed = []
    sites = []

    def counting(name, fn):
        def counted(*args):
            keyed.append(name)
            return fn(*args)
        return counted

    # a miss keys no term
    monkeypatch.setattr(engine_mod, "term_keys",
                        counting("term_keys", engine_mod.term_keys))
    real = Engine._site_step

    def compiled(self, name, specs, nxt):
        sites.append(name)
        return real(self, name, specs, nxt)

    monkeypatch.setattr(Engine, "_site_step", compiled)
    program, query = bench_case("lcs", 20, 3)
    engine = Engine(program)
    engine.solve(query)
    frames = sum(len(e.calls) for e in engine.space.entries.values())
    assert frames > 400
    # a site keys its constants once per pattern of unbound slots it
    # meets, and a slot that holds a float or a compound per call: lcs's
    # sites have neither; the query numbers its variables, keys its own
    # call and scans it for variables inside compounds
    assert len(keyed) <= len(sites) + 3


def test_answers_of_atoms_and_numbers_skip_insert_answer(monkeypatch):
    import modetab.engine as engine_mod
    tables = []
    real = engine_mod.insert_answer

    def counted(frame, vals):
        tables.append(frame.name())
        return real(frame, vals)

    monkeypatch.setattr(engine_mod, "insert_answer", counted)
    # pagerank's sum answers are floats: the puts store them inline
    program, query = bench_case("pagerank", 30, 3)
    engine = Engine(program)
    engine.solve(query)
    assert engine.stats.insertions > 100
    assert tables == []
    # a compound answer and an answer that holds a variable do not
    assert printed(run(COMPOUND, "?- pair(P).")[0])
    assert "pair/1" in tables
    assert printed(run(":- table q/2.\nq(X, f(Y)).\n", "?- q(A, B).")[0])
    assert "q/2" in tables


# ---------------------------------------------------------------------------
# arithmetic through the engine


@pytest.mark.parametrize("query, message", [
    ("?- Y is Z + 1.", "unbound variable Z in arithmetic"),
    ("?- Y is foo.", "not an arithmetic term: foo"),
    ("?- 1 < a.", "not an arithmetic term: a"),
    ("?- Y is 1 / 0.", "division by zero"),
    ("?- X = a, Y is X + 1.", "not an arithmetic term: a"),
    ("?- X = W, Y is X + 1.", "unbound variable X in arithmetic"),
])
def test_arithmetic_errors_name_their_cause(query, message):
    with pytest.raises(EvaluationError) as excinfo:
        Engine(parse_program("n(1).\n")).solve(query)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("goal, message", [
    ("X is Y", "unbound variable Y in arithmetic"),
    ("X is a", "not an arithmetic term: a"),
    ("X is f(1)", "not an arithmetic term: f(1)"),
    ("1 < a", "not an arithmetic term: a"),
])
def test_the_general_builtin_step_only_raises(goal, message, monkeypatch):
    # what the compiler does not inline reaches lang.eval_builtin, which
    # cannot succeed on it, so the step keeps no trail mark to undo to
    import modetab.engine as engine_mod
    reached = []
    real = engine_mod.eval_builtin

    def counted(*args):
        reached.append(args[0])
        return real(*args)

    monkeypatch.setattr(engine_mod, "eval_builtin", counted)
    engine = Engine(parse_program("p(X) :- %s.\n" % goal))
    with pytest.raises(EvaluationError) as excinfo:
        engine.solve("?- p(X).")
    assert str(excinfo.value) == message
    assert len(reached) == 1


def test_arithmetic_evaluates_a_bound_expression():
    answers, _ = Engine(parse_program("n(1).\n")).solve(
        "?- X = 1 + 2, Y is X * 3.")
    assert [a["Y"] for a in answers] == [9]


# ---------------------------------------------------------------------------
# the derivation fuse trips wherever work can go on without an answer

DIGITS = "".join("d(%d).\n" % i for i in range(10))

# each answer of n meets 100 pairs of digits and none passes the filter
JOIN = ":- table n/1.\n" + "".join("n(%d).\n" % i for i in range(5)) + DIGITS
FRUITLESS = "?- n(X), d(Y), d(Z), Z < 0."


def tripped_in(excinfo):
    """The engine function whose derivation check raised."""
    return excinfo.traceback[-2].name


def test_fuse_trips_at_a_clause_try():
    # no sum of two digits passes t's filter, so no answer is ever made
    text = DIGITS + ("s(X) :- d(A), t(A, X).\n"
                     "t(A, X) :- d(B), X is A + B, X > 99.\n")
    engine = Engine(parse_program(text), limit=30)
    with pytest.raises(DerivationLimitError) as excinfo:
        engine.solve("?- s(X).")
    assert tripped_in(excinfo) == "_clause_copy"


def test_fuse_trips_at_a_tabled_clause_try():
    # no head of c matches the call, so each try is a derivation and
    # nothing else is; 40 clauses take three tries functions, and the
    # limit of 20 trips in the second
    for clauses, limit in ((12, 8), (40, 20)):
        text = ":- table c/1.\n" + "".join("c(%d).\n" % i
                                           for i in range(clauses))
        engine = Engine(parse_program(text), limit=limit)
        with pytest.raises(DerivationLimitError) as excinfo:
            engine.solve("?- c(99).")
        assert tripped_in(excinfo) == "tries"
        assert engine.stats.derivations == limit + 1


def test_tabled_clause_tries_copy_no_clause(monkeypatch):
    copies = []
    real = Engine._clause_copy

    def counted(self, *args):
        copies.append(1)
        return real(self, *args)

    monkeypatch.setattr(Engine, "_clause_copy", counted)
    program, query = bench_case("lcs", 20, 3)
    assert len(Engine(program).solve(query)[0]) == 1
    # nor does a compound argument
    assert printed(run(COMPOUND, "?- wrap(f(X)).")[0]) == INNER
    assert not copies


@pytest.mark.parametrize("strategy", BOTH)
def test_fuse_trips_at_a_delivery(strategy):
    engine = Engine(parse_program(JOIN), strategy, limit=50)
    with pytest.raises(DerivationLimitError) as excinfo:
        engine.solve(FRUITLESS)
    assert tripped_in(excinfo) == "_deliver"


@pytest.mark.parametrize("strategy", BOTH)
def test_fuse_trips_at_a_read_of_a_completed_table(strategy):
    engine = Engine(parse_program(JOIN), strategy, limit=50)
    assert len(engine.solve("?- n(X).")[0]) == 5
    with pytest.raises(DerivationLimitError) as excinfo:
        engine.solve(FRUITLESS)
    assert tripped_in(excinfo) == "_deliver"


# ---------------------------------------------------------------------------
# suspension snapshots earlier bindings


@pytest.mark.parametrize("strategy", BOTH)
def test_bindings_made_before_a_suspension_survive(strategy):
    text = """
:- table t/1.
t(b).
t(c).
anchor(a).
"""
    answers, _ = run(text, "?- anchor(X), t(Y).", strategy)
    assert answers == [{"X": "a", "Y": "b"}, {"X": "a", "Y": "c"}]


@pytest.mark.parametrize("strategy", BOTH)
def test_goals_after_a_tabled_call_filter_its_answers(strategy):
    answers, _ = run(REACH, "?- path(a,Z), Z = a.", strategy)
    assert answers == [{"Z": "a"}]


# ---------------------------------------------------------------------------
# mutual recursion across predicates


@pytest.mark.parametrize("strategy", BOTH)
def test_mutually_recursive_tables_reach_the_fixpoint(strategy):
    want = bottom_up(parse_program(MUTUAL))
    for pred in ("p", "q"):
        answers, _ = run(MUTUAL, "?- %s(X)." % pred, strategy)
        assert {(a["X"],) for a in answers} == want[(pred, 1)]


# ---------------------------------------------------------------------------
# components that wait on each other close a cycle

# one frame per node, all waiting on each other: only a merge completes them
CYCLIC_PATHS = {
    "right": "path(X,Y,C) :- edge(X,Z,C1), path(Z,Y,C2), C is C1 + C2.\n",
    "double": "path(X,Y,C) :- path(X,Z,C1), path(Z,Y,C2), C is C1 + C2.\n",
}


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("rules", sorted(CYCLIC_PATHS))
def test_many_frame_paths_close_their_cycle(rules, strategy):
    for seed in range(1, 21):
        inst = bench.gen_instance("shortest", 10, seed)
        edges = [line for line in bench.program_text(inst).splitlines()
                 if line.startswith("edge(")]
        text = "\n".join([":- table path(index,index,min).",
                          "path(X,Y,C) :- edge(X,Y,C).",
                          CYCLIC_PATHS[rules], *edges]) + "\n"
        engine = Engine(parse_program(text), strategy)
        close, closed = engine._close_cycle, []
        engine._close_cycle = lambda: closed.append(1) or close()
        answers, _ = engine.solve(bench.query_text(inst))
        rows = [(a["X"], a["Y"], a["C"]) for a in answers]
        assert bench.check_answers(inst, rows), seed
        assert closed, seed


# ---------------------------------------------------------------------------
# recursion deeper than the interpreter's stack is an evaluation error

DEEP = (
    ("p(X) :- p(X).\n", "?- p(a)."),
    (":- table nat(index, first).\n"
     "nat(0, z).\n"
     "nat(N, s(X)) :- nat(M, X), M < 3000, N is M + 1.\n",
     "?- nat(N, X)."),
)


@pytest.mark.parametrize("text, query", DEEP)
def test_deep_recursion_is_an_evaluation_error(text, query):
    with pytest.raises(EvaluationError, match="recursion went too deep"):
        run(text, query)


# ---------------------------------------------------------------------------
# first-argument indexing of plain facts is type strict


def test_fact_index_keeps_int_and_float_keys_apart():
    text = "w(1, int_one).\nw(1.0, float_one).\n"
    assert run(text, "?- w(1, X).")[0] == [{"X": "int_one"}]
    assert run(text, "?- w(1.0, X).")[0] == [{"X": "float_one"}]
    assert run(text, "?- w(K, float_one).")[0] == [{"K": 1.0}]


# ---------------------------------------------------------------------------
# random reachability programs against the naive fixpoint

_EXTRA_RULES = (
    "p(X,Y) :- edge(X,Z), p(Z,Y).",
    "p(X,Y) :- p(X,Z), edge(Z,Y).",
    "p(X,Y) :- p(X,Z), p(Z,Y).",
    "p(X,Y) :- edge(Y,X).",
)


@st.composite
def reach_programs(draw):
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
            min_size=1,
            max_size=8,
        )
    )
    lines = [":- table p/2.", "p(X,Y) :- edge(X,Y)."]
    lines.extend(draw(st.lists(st.sampled_from(_EXTRA_RULES), max_size=3)))
    lines.extend("edge(%s,%s)." % e for e in edges)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=reach_programs(), strategy=st.sampled_from(BOTH))
def test_random_reachability_matches_bottom_up(text, strategy):
    program = parse_program(text)
    answers, _ = solve(program, "?- p(X,Y).", strategy=strategy)
    got = [(a["X"], a["Y"]) for a in answers]
    assert len(got) == len(set(got))
    assert set(got) == bottom_up(program).get(("p", 2), set())


@settings(max_examples=40, deadline=None)
@given(text=reach_programs())
def test_both_strategies_agree_on_reachability(text):
    program = parse_program(text)
    local, _ = solve(program, "?- p(X,Y).", strategy="local")
    batched, _ = solve(program, "?- p(X,Y).", strategy="batched")
    key = lambda a: (a["X"], a["Y"])
    assert sorted(map(key, local)) == sorted(map(key, batched))
