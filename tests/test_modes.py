"""Mode arrays, substitution segments, and the answer-insertion policies."""

import pytest
from hypothesis import given, settings, strategies as st

from modetab.errors import EvaluationError, ModeError, ModetabError
from modetab.modes import (
    ADDED,
    MODES,
    NEW,
    REJECTED,
    REPLACED,
    SUM_UPDATED,
    build_segments,
    compile_declaration,
    insert_answer,
    leaf_depth,
    traditional_modes,
)
from modetab.terms import Struct, Var, term_keys
from modetab.tries import (AnswerLeaf, TableSpace, complete_table,
                           iterate_answers, subgoal_lookup_insert)

from oracles import TableModel, flat_aggregate

GROUP = {"index": 0, "min": 1, "max": 1, "all": 2, "sum": 3, "last": 3, "first": 4}


def call_frame(entry, args):
    """Key a call in mode order and find or make its frame: (frame,
    varmap)."""
    varmap, counts = {}, []
    key = term_keys([args[pos - 1] for pos, _ in entry.mode_array], varmap,
                    counts)
    return subgoal_lookup_insert(entry, tuple(key), tuple(counts))[0], varmap


def make_frame(mode_names, call_args=None):
    space = TableSpace()
    arity = len(mode_names)
    entry = space.entry("p", arity, compile_declaration("p", arity, mode_names))
    if call_args is None:
        call_args = [Var() for _ in range(arity)]
    return call_frame(entry, list(call_args))


def valid_terms(frame):
    return [leaf.terms for leaf in iterate_answers(frame)]


def trie(node):
    """The answer trie, each record shown as its seq."""
    if type(node) is AnswerLeaf:
        return node.seq
    return tuple((key, trie(child)) for key, child in node.items())


def snapshot(frame):
    chain = []
    cur = frame.first_answer
    while cur is not None:
        chain.append((cur.seq, cur.valid))
        cur = cur.next
    return (frame.n_inserted, frame.n_invalidated, tuple(chain),
            trie(frame.root))


# ---------------------------------------------------------------------------
# Declarations


def test_modes_are_grouped_with_index_first():
    assert compile_declaration("p", 3, ["all", "index", "min"]) == (
        (2, "index"),
        (3, "min"),
        (1, "all"),
    )


def test_already_grouped_declaration_keeps_source_order():
    assert compile_declaration("p", 3, ["index", "index", "first"]) == (
        (1, "index"),
        (2, "index"),
        (3, "first"),
    )


def test_traditional_tabling_is_all_index():
    assert traditional_modes(2) == ((1, "index"), (2, "index"))


def test_at_most_one_sum_or_last_argument():
    with pytest.raises(ModeError):
        compile_declaration("p", 2, ["sum", "last"])
    with pytest.raises(ModeError):
        compile_declaration("p", 2, ["sum", "sum"])
    with pytest.raises(ModeError):
        compile_declaration("p", 3, ["last", "index", "last"])


def test_unknown_mode_and_arity_mismatch_are_rejected():
    with pytest.raises(ModeError):
        compile_declaration("p", 1, ["best"])
    with pytest.raises(ModeError):
        compile_declaration("p", 2, ["index"])


ModeLists = st.lists(st.sampled_from(MODES), min_size=1, max_size=6)


@given(ModeLists)
def test_compiled_arrays_are_stable_permutations_in_group_order(modes):
    """Group ranks ascend, positions within a group keep source order."""
    if sum(m in ("sum", "last") for m in modes) > 1:
        with pytest.raises(ModeError):
            compile_declaration("p", len(modes), modes)
        return
    arr = compile_declaration("p", len(modes), modes)
    assert sorted(pos for pos, _ in arr) == list(range(1, len(modes) + 1))
    assert all(modes[pos - 1] == m for pos, m in arr)
    ranks = [GROUP[m] for _, m in arr]
    assert ranks == sorted(ranks)
    for g in set(ranks):
        within = [pos for pos, m in arr if GROUP[m] == g]
        assert within == sorted(within)


# ---------------------------------------------------------------------------
# Substitution arrays and segments


def test_substitution_array_counts_fresh_variables():
    arr = compile_declaration("p", 3, ["all", "index", "min"])
    x, y = Var(), Var()
    entry = TableSpace().entry("p", 3, arr)
    assert call_frame(entry, [x, 1, y])[0].subst_modes == (
        ("index", 0, 2),
        ("min", 1, 3),
        ("all", 1, 1),
    )


def test_repeated_variable_counts_as_fresh_only_once():
    x = Var()
    entry = TableSpace().entry("p", 2, traditional_modes(2))
    assert call_frame(entry, [x, x])[0].subst_modes == (
        ("index", 1, 1),
        ("index", 0, 2),
    )


def test_segments_merge_adjacent_index_arguments():
    assert build_segments((("index", 1, 1), ("index", 2, 2))) == (("index", 0, 3, 1),)


def test_segments_keep_aggregate_arguments_separate():
    assert build_segments((("min", 1, 1), ("min", 1, 2))) == (
        ("min", 0, 1, 1),
        ("min", 1, 2, 2),
    )


def test_segments_skip_bound_arguments():
    subst = (("index", 0, 2), ("min", 1, 3), ("all", 1, 1))
    assert build_segments(subst) == (("min", 0, 1, 3), ("all", 1, 2, 1))


def test_leaf_depth_counts_index_ordinals_before_one_answer_columns():
    def depth(*subst):
        return leaf_depth(build_segments(subst))
    assert depth(("index", 2, 1), ("min", 1, 2)) == 2
    assert depth(("index", 1, 1), ("min", 2, 2), ("sum", 1, 3),
                 ("first", 1, 4)) == 1
    assert depth(("index", 1, 1), ("index", 1, 2)) == 2  # index only
    # an all column keeps every witness, and no index ordinal means no
    # key to hang the record from: one level per term
    assert depth(("index", 1, 1), ("min", 1, 2), ("all", 1, 3)) == 0
    assert depth(("index", 0, 1), ("max", 1, 2)) == 0
    assert depth(("index", 0, 1)) == 0


# ---------------------------------------------------------------------------
# Insertion: one golden per outcome kind


def test_new_answer_then_exact_duplicate():
    frame, _ = make_frame(["index", "index"])
    assert insert_answer(frame, ("a", 1)).kind == NEW
    out = insert_answer(frame, ("a", 1))
    assert out.kind == REJECTED


def test_fully_bound_call_stores_one_yes():
    frame, _ = make_frame(["index", "min"], ["a", 1])
    out = insert_answer(frame, ())
    assert out.kind == NEW and out.leaf.terms == ()
    assert frame.root == {}
    assert insert_answer(frame, ()).kind == REJECTED
    assert valid_terms(frame) == [()]


def test_min_replaces_a_worse_witness():
    x, y = Var(), Var()
    frame, varmap = make_frame(["all", "index", "min"], [x, 1, y])
    assert varmap == {y: 0, x: 1}
    assert insert_answer(frame, (5, Struct("f", ["a"]))).kind == NEW
    out = insert_answer(frame, (3, "b"))
    assert out.kind == REPLACED and out.invalidated == 1
    assert insert_answer(frame, (4, "c")).kind == REJECTED
    assert valid_terms(frame) == [(3, "b")]


def test_min_applies_left_to_right_across_arguments():
    frame, _ = make_frame(["min", "min"])
    insert_answer(frame, (3, 9))
    out = insert_answer(frame, (3, 7))
    assert out.kind == REPLACED and out.invalidated == 1
    assert insert_answer(frame, (3, 7)).kind == REJECTED
    assert insert_answer(frame, (3, 8)).kind == REJECTED
    assert insert_answer(frame, (2, 9)).kind == REPLACED
    assert valid_terms(frame) == [(2, 9)]


def test_min_with_all_keeps_every_optimal_witness():
    frame, _ = make_frame(["index", "min", "all"])
    assert insert_answer(frame, ("b", 2, 1)).kind == NEW
    assert insert_answer(frame, ("b", 2, 2)).kind == ADDED
    assert insert_answer(frame, ("b", 2, 2)).kind == REJECTED
    assert insert_answer(frame, ("a", 5, 0)).kind == NEW
    out = insert_answer(frame, ("b", 1, 4))
    assert out.kind == REPLACED and out.invalidated == 2
    assert sorted(valid_terms(frame)) == [("a", 5, 0), ("b", 1, 4)]


def test_max_keeps_the_larger_value():
    frame, _ = make_frame(["index", "max"])
    insert_answer(frame, ("k", 1))
    assert insert_answer(frame, ("k", 5)).kind == REPLACED
    assert insert_answer(frame, ("k", 3)).kind == REJECTED
    assert valid_terms(frame) == [("k", 5)]


def test_first_keeps_the_first_answer_per_key():
    frame, _ = make_frame(["index", "first"])
    assert insert_answer(frame, ("b", 1)).kind == NEW
    assert insert_answer(frame, ("b", 3)).kind == REJECTED
    assert insert_answer(frame, ("a", 2)).kind == NEW
    assert sorted(valid_terms(frame)) == [("a", 2), ("b", 1)]


def test_last_always_takes_the_newest_value():
    frame, _ = make_frame(["index", "last"])
    insert_answer(frame, ("k", 1))
    out = insert_answer(frame, ("k", 2))
    assert out.kind == REPLACED and out.invalidated == 1
    # even re-sending the same value counts as a fresh replacement
    assert insert_answer(frame, ("k", 2)).kind == REPLACED
    assert valid_terms(frame) == [("k", 2)]


def test_sum_accumulates_contributions():
    frame, _ = make_frame(["index", "sum"])
    out = insert_answer(frame, ("k", 3))
    assert out.kind == NEW and out.total == 3
    out = insert_answer(frame, ("k", 4))
    assert out.kind == SUM_UPDATED and out.total == 7 and out.invalidated == 1
    assert insert_answer(frame, ("k", -2)).total == 5
    assert valid_terms(frame) == [("k", 5)]


def test_sum_counts_repeated_contributions():
    frame, _ = make_frame(["sum"])
    totals = [insert_answer(frame, (1,)).total for _ in range(3)]
    assert totals == [1, 2, 3]


def test_sum_mixes_ints_and_floats():
    frame, _ = make_frame(["index", "sum"])
    insert_answer(frame, ("k", 1.5))
    out = insert_answer(frame, ("k", 2))
    assert out.total == 3.5
    assert valid_terms(frame) == [("k", 3.5)]


def test_fully_bound_call_tables_a_plain_yes():
    frame, _ = make_frame(["index", "index"], ["a", 1])
    out = insert_answer(frame, ())
    assert out.kind == NEW and out.leaf.terms == ()
    assert insert_answer(frame, ()).kind == REJECTED


# ---------------------------------------------------------------------------
# Value handling details


def test_min_keeps_stored_witness_on_cross_type_numeric_tie():
    # and max too, whichever of the int and the float is stored first;
    # under an index key the witness is read from the record
    for key, mode, stored, offered in (
            (k, *case) for k in ((), ("k",))
            for case in (("min", 1, 1.0), ("min", 1.0, 1), ("max", 1.0, 1))):
        frame, _ = make_frame(["index"] * len(key) + [mode])
        insert_answer(frame, key + (stored,))
        assert insert_answer(frame, key + (offered,)).kind == REJECTED
        assert valid_terms(frame) == [key + (stored,)]
        assert type(valid_terms(frame)[0][-1]) is type(stored)


def test_int_and_float_index_keys_are_distinct_rows():
    frame, _ = make_frame(["index"])
    assert insert_answer(frame, (1,)).kind == NEW
    assert insert_answer(frame, (1.0,)).kind == NEW


def test_min_orders_numbers_before_atoms_before_compounds():
    frame, _ = make_frame(["min"])
    insert_answer(frame, (Struct("f", [1]),))
    assert insert_answer(frame, ("a",)).kind == REPLACED
    assert insert_answer(frame, (7,)).kind == REPLACED
    assert valid_terms(frame) == [(7,)]


def test_min_compares_compound_values_structurally():
    frame, _ = make_frame(["min"])
    insert_answer(frame, (Struct("f", [2, "z"]),))
    assert insert_answer(frame, (Struct("f", [2, "a"]),)).kind == REPLACED
    assert insert_answer(frame, (Struct("f", [3, "a"]),)).kind == REJECTED


def test_index_answers_may_carry_unbound_variables():
    frame, _ = make_frame(["index"])
    assert insert_answer(frame, (Struct("f", [Var()]),)).kind == NEW
    assert insert_answer(frame, (Struct("f", [Var()]),)).kind == REJECTED


def test_aggregation_needs_ground_values():
    frame, _ = make_frame(["min"])
    with pytest.raises(EvaluationError):
        insert_answer(frame, (Struct("f", [Var()]),))


def test_sum_rejects_non_numeric_values():
    frame, _ = make_frame(["index", "sum"])
    with pytest.raises(EvaluationError):
        insert_answer(frame, ("k", "a"))


def test_rejection_changes_nothing():
    frame, _ = make_frame(["index", "min"])
    insert_answer(frame, ("k", 3))
    before = snapshot(frame)
    assert insert_answer(frame, ("k", 9)).kind == REJECTED
    assert snapshot(frame) == before


@pytest.mark.parametrize("call_args", [None, ["k", 3]], ids=["open", "ground"])
def test_insert_into_a_completed_table_is_an_error(call_args):
    frame, _ = make_frame(["index", "min"], call_args)
    row = ("k", 3) if call_args is None else ()
    insert_answer(frame, row)
    complete_table(frame)
    with pytest.raises(ModetabError):
        insert_answer(frame, row)
    assert valid_terms(frame) == [row]


def test_replacement_keeps_the_key_prefix_nodes():
    frame, _ = make_frame(["index", "index", "min"])
    insert_answer(frame, ("k", "j", 9))
    key_node = frame.root["k"]
    old = key_node["j"]
    insert_answer(frame, ("k", "j", 3))
    assert frame.root["k"] is key_node
    # the record is replaced under the same last index key
    assert key_node == {"j": frame.last_answer} and not old.valid


# ---------------------------------------------------------------------------
# Stream equivalence against the flat reference aggregator

COMBOS = (
    ["index", "first"],
    ["index", "last"],
    ["index", "min"],
    ["index", "max"],
    ["index", "sum"],
    ["index", "min", "all"],
    ["index", "max", "all"],
)

Rows = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(0, 3), st.integers(0, 2)),
    max_size=30,
)


@pytest.mark.parametrize("modes", COMBOS, ids="-".join)
@given(rows=Rows)
@settings(max_examples=60, deadline=None)
def test_insertion_stream_matches_flat_reference(modes, rows):
    """The surviving answers equal a brute-force pass over the stream."""
    rows = [row[: len(modes)] for row in rows]
    frame, _ = make_frame(list(modes))
    for row in rows:
        insert_answer(frame, row)
    assert set(valid_terms(frame)) == flat_aggregate(modes, rows)


# ---------------------------------------------------------------------------
# Every candidate against the naive table model

# a call column is one free variable, an atom, or a compound holding two
# free variables, whose min, max or sum spans two ordinals
COLUMN = st.sampled_from(["free", "free", "free", "bound", "pair"])
# a small pool, so that equal, better and worse candidates meet, with
# floats that tie with integers; "X" and "Y" stand for two variables of
# the candidate, so that one may occur twice
OWN = st.sampled_from([1, "a", 2, 0, "b", 3, -1])
FLOAT = st.sampled_from([1.0, 2.0, -1.0, 0.5, 2.5])
COMPOUND = st.sampled_from([("f", "a"), ("f", 2), ("f", 2.0), ("g", 1, "a"),
                            ("f", ("f", 1)), ("f", "X"), ("g", "X", "Y")])
VALUE = st.one_of(OWN, OWN, OWN, OWN, FLOAT, FLOAT, COMPOUND, COMPOUND,
                  st.sampled_from(["X", "Y"]))


def term(v, names):
    if v in ("X", "Y"):
        return names[v]
    if type(v) is tuple:
        return Struct(v[0], [term(a, names) for a in v[1:]])
    return v


def exact(t):
    """t with 1 and 1.0 apart and each variable by identity."""
    if type(t) is Var:
        return ("var", id(t))
    if type(t) is Struct:
        return (t.name, tuple(map(exact, t.args)))
    return (type(t).__name__, t)


def shown(chain):
    return [(seq, tuple(map(exact, terms)), valid)
            for seq, terms, valid in chain]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(MODES), min_size=1, max_size=4)
       .filter(lambda ms: sum(m in ("sum", "last") for m in ms) <= 1),
       st.data())
def test_insert_answer_matches_the_table_model(modes, data):
    columns = data.draw(st.lists(COLUMN, min_size=len(modes),
                                 max_size=len(modes)))
    call = [Var() if c == "free" else "k" if c == "bound"
            else Struct("g", (Var(), Var())) for c in columns]
    frame, _ = make_frame(modes, call)
    model = TableModel(frame.name(), frame.subst_modes)
    n = sum(count for _mode, count, _pos in frame.subst_modes)
    rows = data.draw(st.lists(st.lists(VALUE, min_size=n, max_size=n),
                              min_size=1, max_size=24))
    complete_at = data.draw(st.one_of(st.none(), st.integers(1, 24)))
    for k, row in enumerate(rows):
        if k == complete_at:
            complete_table(frame)
            model.finish()
        names = {"X": Var("X"), "Y": Var("Y")}
        terms = tuple(term(v, names) for v in row)
        try:
            o = insert_answer(frame, terms)
            got = (o.kind, o.invalidated, o.total,
                   o.leaf.seq if o.leaf is not None else None)
        except ModetabError as exc:
            got = exc
        try:
            expected = model.insert(terms)
        except ModetabError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert got == expected
            assert type(got[2]) is type(expected[2])
        chain = []
        leaf = frame.first_answer
        while leaf is not None:
            chain.append((leaf.seq, leaf.terms, leaf.valid))
            leaf = leaf.next
        assert shown(chain) == shown(model.chain())
        assert (frame.n_inserted, frame.n_invalidated, frame.n_purged) == (
            model.n_inserted, model.n_invalidated, model.n_purged)
        assert frame.entry.open == model.open
