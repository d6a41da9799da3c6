"""Generated puts against modes.insert_answer.

A put reads a sink's outputs and stores the answer: answers of atoms and
numbers through its own inline walk of the answer trie, floats as their
(FLT, v) keys, every other one through insert_answer. Each property
feeds the same candidates to a put on one frame and, as the engine did
before puts, to insert_answer on a twin frame, and requires the same
tables, counters, outcomes and errors. Integers and floats of equal
value meet often, so the put's min/max tie rule and its float sum
totals are checked against insert_answer's. The two share the witness
compare of another type (modes.beats) and the branch drop
(tries.drop_below), so the twin cannot judge those on its own:
test_modes.py checks insert_answer against the table model in
oracles.py. One table may take both paths, so a fixed stream feeds one
through its put and through insert_answer in turn, in the layout where
the last index key holds the record.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from modetab.engine import Engine, _general, _put, _Sink, _Slot
from modetab.errors import DerivationLimitError, ModetabError
from modetab.lang import parse_program
from modetab.modes import MODES, REJECTED, insert_answer
from modetab.terms import Struct, Var, resolve
from modetab.tries import AnswerLeaf, complete_table, iterate_answers

LIMIT = 1000


class Settles:
    """A consumer that does not settle, so a batched put queues it an
    event per table-changing insertion."""

    settles = False


def table(text, strategy, args):
    """An engine, and the frame of a general-path call p(args)."""
    engine = Engine(parse_program(text), strategy, limit=LIMIT, trace=True)
    frame, _ = engine._materialize("p", list(args))
    engine.tasks.clear()
    return engine, frame


def chain(frame):
    out = []
    leaf = frame.first_answer
    while leaf is not None:
        out.append((leaf.seq, leaf.terms, leaf.valid))
        leaf = leaf.next
    return out


def trie(node):
    """A trie with each record replaced by its seq, to compare two."""
    if type(node) is AnswerLeaf:
        return node.seq
    if node is None:
        return None
    return [(tok, trie(child)) for tok, child in node.items()]


def counters(engine, frame):
    st = engine.stats
    return (st.insertions, st.invalidations, frame.n_inserted,
            frame.n_invalidated, frame.n_purged)


def reference(engine, frame, vals):
    """What a put does, written as the engine did it before puts."""
    if engine.stats.derivations > engine.limit:
        raise DerivationLimitError(
            "derivation limit of %d exceeded" % engine.limit)
    outcome = insert_answer(frame, vals)
    engine.stats.insertions += 1
    engine.stats.invalidations += outcome.invalidated
    return outcome


# a column is one free variable, bound to an atom, or a compound holding
# two free variables, whose min, max or sum spans two ordinals
COLUMN = st.sampled_from(["free", "free", "free", "bound", "pair"])
# mostly atoms and numbers, which a put walks inline, from a small pool
# so that equal, better and worse candidates meet, and floats that tie
# with integers; "var" stands for a fresh Var, "bound" for a Var the walk
# has bound to 2, and None for an unbound slot, which the put gives a Var
OWN = st.sampled_from([1, "a", 2, 0, "b", 3, -1])
FLOAT = st.sampled_from([1.0, 2.0, -1.0, 0.5, 2.5])
VALUE = st.one_of(OWN, OWN, OWN, OWN, OWN, OWN, FLOAT, FLOAT, FLOAT,
                  st.sampled_from([Struct("f", ("a",)), Struct("f", (2,)),
                                   "var", "bound", None]))
ROWS = st.lists(st.lists(VALUE, min_size=8, max_size=8), min_size=3,
                max_size=24)
AT = st.one_of(st.none(), st.none(), st.integers(1, 24))


def candidates(*rows):
    """Rows of candidates, each padded to eight values."""
    return [list(row) + ["a"] * (8 - len(row)) for row in rows]


@st.composite
def declarations(draw):
    modes = draw(st.lists(st.sampled_from(MODES), min_size=1, max_size=4)
                 .filter(lambda ms: sum(m in ("sum", "last")
                                        for m in ms) <= 1))
    columns = draw(st.lists(COLUMN, min_size=len(modes), max_size=len(modes)))
    return modes, columns


@settings(max_examples=400, deadline=None)
@given(declarations(), st.sampled_from(["local", "batched"]),
       st.lists(st.booleans(), min_size=8, max_size=8), ROWS, AT, AT)
@example((["index", "min"], ["free", "free"]), "batched", [True, False] * 4,
         candidates(("a", 3), ("a", 2), ("a", 5), ("a", 2), ("b", 1)), None, None)
@example((["max", "all"], ["free", "free"]), "local", [False, True] * 4,
         candidates((3, "a"), (3, "b"), (5, "a"), (4, "c"), (5, "a")), None,
         None)
@example((["index", "sum"], ["free", "free"]), "batched", [True] * 8,
         candidates(("a", 3), ("a", 2), ("b", 1), ("a", "x"), ("a", 1.5),
                    ("a", 1)), None, None)
@example((["min"], ["free"]), "local", [True] * 8,
         candidates(("a",), (1,), ("b",), (1.0,), (0,)), None, None)
@example((["last", "first"], ["free", "free"]), "local", [True] * 8,
         candidates((1, "a"), (2, "b"), (2, "c"), (3, "a")), 3, 1)
@example((["index", "min"], ["free", "free"]), "batched", [True] * 8,
         candidates(("a", 1), ("a", 1.0), ("b", 1.0), ("b", 1), ("b", 0.5),
                    ("b", -1)), None, None)
@example((["index", "max"], ["free", "free"]), "local", [False] * 8,
         candidates(("a", 1), ("a", 1.0), ("b", 1.0), ("b", 1), ("b", 2.0),
                    ("b", 3)), None, None)
@example((["max"], ["free"]), "local", [True] * 8,
         candidates((1,), ("a",), (2.0,), ("b",), ("a",)), None, None)
@example((["index", "sum"], ["free", "free"]), "batched", [True] * 8,
         candidates(("a", 0.5), ("a", 0.5), ("a", 1), ("b", 1), ("b", 1.0)),
         None, None)
@example((["min"], ["pair"]), "local", [True] * 8,
         candidates((1, 2), (1.0, 2), (0.5, "a"), (0.5, "a")), None, None)
@example((["min", "all"], ["free", "free"]), "local", [True] * 8,
         candidates((Struct("f", ("a",)), 1), (1.0, 2), (1, 2), (0.5, 1)),
         None, None)
def test_a_put_stores_as_insert_answer_does(decl, strategy, from_slot, rows,
                                            complete_at, limit_at):
    """rows are the candidates; both tables complete before row
    complete_at, and row limit_at finds the derivation limit exceeded."""
    modes, columns = decl
    text = ":- table p(%s).\n" % ", ".join(modes)
    args = []
    for k, column in enumerate(columns):
        if column == "bound":
            args.append("k")
        elif column == "free":
            args.append(Var("X%d" % k))
        else:
            args.append(Struct("g", (Var("Y%d" % k), Var("Z%d" % k))))
    engine, frame = table(text, strategy, args)
    twin_engine, twin = table(text, strategy, args)
    n = len(frame.generator.subst)
    consumer = Settles()
    # registered as _consume registers it: only a batched table has a
    # reader that does not settle
    frame.generator.consumers.append(consumer)
    if strategy == "batched":
        frame.generator.eager = [consumer]
    # per ordinal, read from a slot of the activation or from outs
    shape = tuple(o if from_slot[o] else -1 for o in range(n))
    put = _put(shape, frame.subst_modes)
    for k, row in enumerate(rows):
        if k == complete_at:
            complete_table(frame)
            complete_table(twin)
        if k == limit_at:
            engine.stats.derivations = twin_engine.stats.derivations = LIMIT + 1
        values = [Var("V") if v == "var" or v == "bound" else v
                  for v in row[:n]]
        for v, w in zip(values, row):
            if w == "bound":
                engine.bind[v] = 2
        env = [None] * n
        outs = []
        for o, v in enumerate(values):
            if shape[o] < 0:
                if v is None:  # outs hold terms, never an empty slot
                    v = values[o] = Var("W")
                outs.append(v)
            else:
                env[o] = v
                outs.append(_Slot(o, False, "S%d" % o))
        sink = _Sink(engine, frame, tuple(outs), put)
        logged, queued = len(engine.events), len(engine.tasks)
        try:
            put(env, sink)
            error = None
        except ModetabError as exc:
            error = exc
        # an unbound slot now holds the Var the put made for it, unless
        # the put stopped at the derivation limit before reading
        vals = tuple(resolve(env[o] if shape[o] >= 0 else values[o],
                             engine.bind) for o in range(n))
        assert None not in vals or k == limit_at
        engine.bind.clear()
        try:
            outcome = reference(twin_engine, twin, vals)
            expected = None
        except ModetabError as exc:
            expected = exc
        if expected is not None:
            assert type(error) is type(expected)
            assert str(error) == str(expected)
            assert len(engine.events) == logged
            assert len(engine.tasks) == queued
        else:
            assert error is None
            event, = engine.events[logged:]
            assert event["kind"] == "insert"
            assert event["outcome"] == outcome.kind
            assert event["invalidated"] == outcome.invalidated
            assert event["total"] == outcome.total
            assert type(event["total"]) is type(outcome.total)
            assert event["seq"] == (outcome.leaf.seq if outcome.leaf else None)
            # a batched table queues its unsettled reader each change
            if strategy == "batched" and outcome.kind != REJECTED:
                assert len(engine.tasks) == queued + 1
                task = engine.tasks[queued]
                assert task[:2] == ("event", consumer)
                assert task[2].seq == outcome.leaf.seq
            else:
                assert len(engine.tasks) == queued
        engine.stats.derivations = twin_engine.stats.derivations = 0
        assert chain(frame) == chain(twin)
        assert trie(frame.root) == trie(twin.root)
        assert counters(engine, frame) == counters(twin_engine, twin)
        assert twin.entry.open == frame.entry.open


def test_a_query_put_appends_its_answer():
    engine = Engine(parse_program("q(1).\n"), limit=LIMIT)
    answers = []
    x = Var("X")
    put = _put((0, -1, 1), None)
    env = [None, 7]
    put(env, _Sink(engine, None, (_Slot(0, False, "A"), x, _Slot(1, False, "C")),
                   put, answers, ("A", "B", "C")))
    a, = answers
    assert list(a) == ["A", "B", "C"]
    assert type(a["A"]) is Var and a["A"] is env[0] and a["A"].name == "A"
    assert a["B"] is x and a["C"] == 7
    engine.stats.derivations = LIMIT + 1
    with pytest.raises(DerivationLimitError):
        put(env, _Sink(engine, None, (), put, answers, ()))
    assert len(answers) == 1


def test_puts_of_one_shape_are_one_function():
    subst = (("index", 0, 1), ("index", 1, 2), ("min", 1, 3))
    assert _put((0, 1), subst) is _put((0, 1), subst)
    assert _put((0, 1), subst) is not _put((1, 0), subst)


def test_an_answer_of_120_tokens():
    # the walk is straight-line code, a few lines per token
    xs = ["X%d" % i for i in range(120)]
    text = ":- table p/1.\np(f(%s)) :- %s.\n" % (", ".join(xs), ", ".join(
        "%s = %d" % (x, i) for i, x in enumerate(xs)))
    answers, stats = Engine(parse_program(text)).solve(
        "?- p(f(%s))." % ", ".join("Y%d" % i for i in range(120)))
    assert answers == [{"Y%d" % i: i for i in range(120)}]
    assert stats.insertions == 1


def typed(rows):
    """Chain rows with each number shown with its type, since 1 == 1.0."""
    return [(seq, tuple((type(t).__name__, t) for t in terms), valid)
            for seq, terms, valid in rows]


F = Struct("f", ("b",))

# (candidate, the path it takes, the outcome); a put stores atoms and
# numbers inline, and insert_answer is given compounds and variables,
# and, for each int/float tie, the same candidate as the put
BOTH_PATHS = {
    ("index", "min"): [
        (("k", 3), "put", "new"),
        (("k", 3.0), "put", "rejected"),  # an int/float tie: 3 stays
        (("k", 3.0), "insert", "rejected"),
        (("j", 2.0), "insert", "new"),
        (("j", 2), "put", "rejected"),  # and the other way: 2.0 stays
        (("j", 2), "insert", "rejected"),
        (("m", 4.0), "put", "new"),
        (("m", 4), "insert", "rejected"),
        (("m", 4), "put", "rejected"),
        (("k", F), "insert", "rejected"),  # numbers before compounds
        (("k", 1.5), "put", "replaced"),
        (("k", 1), "insert", "replaced"),
        (("k", 1), "put", "rejected"),
        (("j", "a"), "put", "rejected"),  # numbers before atoms
        (("m", 3.5), "put", "replaced"),  # compared as they are
        (("m", 3.75), "put", "rejected"),
        (("k", 0), "put", "replaced"),
        (("k", 2), "put", "rejected"),
        ((Var("V"), 5), "insert", "new"),
        ((Var("W"), 4), "insert", "replaced"),  # a variant of V's key
        ((F, 7), "insert", "new"),
        (("j", 1), "put", "replaced"),
    ],
    ("index", "min", "first"): [
        (("k", 3, "a"), "put", "new"),
        (("k", 3.0, "b"), "put", "rejected"),  # 3 and its first stay
        (("k", 3.0, "b"), "insert", "rejected"),
        (("k", 3, F), "insert", "rejected"),
        (("k", 2, F), "insert", "replaced"),
        (("k", 2, "c"), "put", "rejected"),
        (("k", 2.0, "c"), "put", "rejected"),
        (("j", 1.0, F), "insert", "new"),
        (("j", 1, "z"), "put", "rejected"),  # 1.0 and f(b) stay
        (("j", 1, "z"), "insert", "rejected"),
        (("j", 0.5, "z"), "put", "replaced"),
        ((Var("V"), 4, "a"), "insert", "new"),
        ((Var("W"), 4, "b"), "insert", "rejected"),
        ((Var("W"), 3, F), "insert", "replaced"),
    ],
}


@pytest.mark.parametrize("modes", list(BOTH_PATHS), ids="-".join)
def test_both_paths_share_the_one_answer_layout(modes):
    """One table, fed through its put and through insert_answer in turn,
    stores as a twin fed through insert_answer alone; the record under
    each index key holds the stored values, ties keeping the first."""
    text = ":- table p(%s).\n" % ", ".join(modes)
    args = [Var("X%d" % k) for k in range(len(modes))]
    engine, frame = table(text, "local", args)
    twin_engine, twin = table(text, "local", args)
    n = len(modes)
    put = _put(tuple(range(n)), frame.subst_modes)
    outs = tuple(_Slot(o, False, "S%d" % o) for o in range(n))
    for row, path, kind in BOTH_PATHS[modes]:
        logged, before = len(engine.events), typed(chain(frame))
        if path == "put":
            put(list(row), _Sink(engine, frame, outs, put))
        else:
            _general(engine, frame, row)
        event, = engine.events[logged:]
        outcome = reference(twin_engine, twin, row)
        assert event["outcome"] == outcome.kind == kind, row
        assert event["invalidated"] == outcome.invalidated
        if kind == REJECTED:  # the stored record stays, and its types
            assert typed(chain(frame)) == before
        assert typed(chain(frame)) == typed(chain(twin))
        assert trie(frame.root) == trie(twin.root)
        assert counters(engine, frame) == counters(twin_engine, twin)
        # no level below an index key: it holds the record itself
        assert all(type(node) is AnswerLeaf for node in frame.root.values())
    kept = [(type(leaf.terms[1]), leaf.terms[1])
            for leaf in iterate_answers(frame)]
    assert kept == KEPT[modes]


# the min column of each table's valid answers, in chain order
KEPT = {
    ("index", "min"): [(float, 3.5), (int, 0), (int, 4), (int, 7), (int, 1)],
    ("index", "min", "first"): [(int, 2), (float, 0.5), (int, 3)],
}
