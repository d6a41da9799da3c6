"""Mode arrays, substitution segments, and the answer-insertion policies."""

import pytest
from hypothesis import given, settings, strategies as st

from modetab.errors import EvaluationError, ModeError
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
    traditional_modes,
)
from modetab.terms import Struct, Var
from modetab.tries import TableSpace, iterate_answers, subgoal_lookup_insert

from oracles import flat_aggregate

GROUP = {"index": 0, "min": 1, "max": 1, "all": 2, "sum": 3, "last": 3, "first": 4}


def make_frame(mode_names, call_args=None):
    space = TableSpace()
    arity = len(mode_names)
    entry = space.entry("p", arity, compile_declaration("p", arity, mode_names))
    if call_args is None:
        call_args = [Var() for _ in range(arity)]
    frame, _, varmap = subgoal_lookup_insert(entry, list(call_args))
    return frame, varmap


def valid_terms(frame):
    return [leaf.terms for leaf in iterate_answers(frame)]


def snapshot(frame):
    chain = []
    cur = frame.first_answer
    while cur is not None:
        chain.append((cur.seq, cur.valid))
        cur = cur.next
    nodes = 0
    stack = list(frame.root.children.values())
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.children.values())
    return (frame.n_inserted, frame.n_invalidated, tuple(chain), nodes)


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
    assert subgoal_lookup_insert(entry, [x, 1, y])[0].subst_modes == (
        ("index", 0, 2),
        ("min", 1, 3),
        ("all", 1, 1),
    )


def test_repeated_variable_counts_as_fresh_only_once():
    x = Var()
    entry = TableSpace().entry("p", 2, traditional_modes(2))
    assert subgoal_lookup_insert(entry, [x, x])[0].subst_modes == (
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
    assert out.leaf.parent is None and frame.root.children == {}
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
    frame, _ = make_frame(["min"])
    insert_answer(frame, (1,))
    assert insert_answer(frame, (1.0,)).kind == REJECTED
    assert valid_terms(frame) == [(1,)]


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


def test_replacement_keeps_the_key_prefix_nodes():
    frame, _ = make_frame(["index", "min"])
    insert_answer(frame, ("k", 9))
    key_node = frame.root.children["k"]
    insert_answer(frame, ("k", 3))
    assert frame.root.children["k"] is key_node


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
