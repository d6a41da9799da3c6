"""Table-space structure: call tries, answer chains, invalidation, purge."""

import pytest
from hypothesis import given, settings, strategies as st

from modetab.errors import ModetabError
from modetab.modes import compile_declaration, traditional_modes
from modetab.terms import Struct, Var, tokenize, var_token
from modetab.tries import (
    TableSpace,
    complete_table,
    grow_answer,
    invalidate_branch,
    iterate_answers,
    subgoal_lookup_insert,
    trie_insert,
)


def fresh_frame(arity=3):
    """A frame for an all-free traditionally tabled call, for raw trie tests."""
    space = TableSpace()
    entry = space.entry("p", arity, traditional_modes(arity))
    frame, _, _ = subgoal_lookup_insert(entry, [Var() for _ in range(arity)])
    return frame


def count_nodes(root):
    n = 0
    stack = list(root.children.values())
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children.values())
    return n


def add(frame, *terms):
    """Store an answer as insert_answer does; returns its record."""
    tokens = tokenize(list(terms))
    node = frame.root
    for i, tok in enumerate(tokens):
        child = node.children.get(tok)
        if child is None:
            return grow_answer(frame, node, tokens, i, terms)
        node = child
    return node


def lookup(frame, *terms):
    """Root-down walk; returns the leaf record or None."""
    node = frame.root
    for tok in tokenize(list(terms)):
        node = node.children.get(tok)
        if node is None:
            return None
    return node


# ---------------------------------------------------------------------------
# Structure


def test_insert_creates_one_node_per_token():
    frame = fresh_frame()
    x, y = Var(), Var()
    tokens = tokenize([x, 1, Struct("f", [y])])
    leaf, existed = trie_insert(frame.root, tokens)
    assert not existed
    assert count_nodes(frame.root) == 4


def test_reinsert_finds_same_leaf():
    frame = fresh_frame()
    tokens = tokenize([Var(), 1, Struct("f", [Var()])])
    leaf1, _ = trie_insert(frame.root, tokens)
    leaf2, existed = trie_insert(frame.root, tokens)
    assert existed and leaf1 is leaf2
    assert count_nodes(frame.root) == 4


def test_common_prefix_is_shared():
    frame = fresh_frame()
    trie_insert(frame.root, tokenize([Var(), 1, Struct("f", [Var()])]))
    trie_insert(frame.root, tokenize([Var(), 1, "b"]))
    # [VAR0, 1] is shared; only the b node is new
    assert count_nodes(frame.root) == 5


def test_call_arguments_are_stored_in_mode_order():
    space = TableSpace()
    ma = compile_declaration("p", 3, ["all", "index", "min"])
    entry = space.entry("p", 3, ma)
    x, y = Var(), Var()
    frame, is_new, varmap = subgoal_lookup_insert(entry, [x, 1, y])
    assert is_new
    # bound second argument first, then the min variable, then the all one
    assert frame.call_tokens == [1, var_token(0), var_token(1)]
    assert varmap == {y: 0, x: 1}
    assert frame.subst_modes == (("index", 0, 2), ("min", 1, 3), ("all", 1, 1))


def test_source_order_call_path_without_mode_reordering():
    space = TableSpace()
    entry = space.entry("p", 3, traditional_modes(3))
    frame, _, _ = subgoal_lookup_insert(entry, [Var(), 1, Var()])
    assert frame.call_tokens == [var_token(0), 1, var_token(1)]


def test_variant_call_reuses_frame():
    space = TableSpace()
    entry = space.entry("p", 3, traditional_modes(3))
    f1, new1, _ = subgoal_lookup_insert(entry, [Var(), 1, Var()])
    f2, new2, _ = subgoal_lookup_insert(entry, [Var(), 1, Var()])
    assert new1 and not new2
    assert f1 is f2


def test_distinct_calls_get_distinct_frames():
    space = TableSpace()
    entry = space.entry("p", 2, traditional_modes(2))
    f1, _, _ = subgoal_lookup_insert(entry, ["a", Var()])
    f2, _, _ = subgoal_lookup_insert(entry, ["b", Var()])
    assert f1 is not f2
    assert len(entry.frames) == 2


# ---------------------------------------------------------------------------
# Chain


def test_first_answer_sets_both_chain_ends():
    frame = fresh_frame(1)
    leaf = add(frame, "a")
    assert frame.first_answer is leaf and frame.last_answer is leaf


def test_chain_keeps_insertion_order():
    frame = fresh_frame(1)
    a = add(frame, "a")
    b = add(frame, "b")
    c = add(frame, "c")
    assert a.next is b and b.next is c and c.next is None
    assert [l.seq for l in (a, b, c)] == [1, 2, 3]


def test_appending_after_invalidating_the_head():
    frame = fresh_frame(1)
    a = add(frame, "a")
    b = add(frame, "b")
    invalidate_branch(frame, a)
    c = add(frame, "c")
    assert not a.valid
    assert frame.first_answer is a and a.next is b and b.next is c


# ---------------------------------------------------------------------------
# Invalidation


def test_invalidate_detaches_branch_but_keeps_chain():
    frame = fresh_frame(2)
    worse = add(frame, 5, Struct("f", ["a"]))
    top = frame.root.children[5]
    assert invalidate_branch(frame, top) == 1
    better = add(frame, 3, "b")
    assert not worse.valid and better.valid
    assert lookup(frame, 5, Struct("f", ["a"])) is None
    assert lookup(frame, 3, "b") is better
    assert frame.first_answer is worse and worse.next is better
    # the detached leaf keeps its terms
    assert worse.terms[0] == 5


def test_invalidate_the_only_answer():
    frame = fresh_frame(1)
    a = add(frame, "a")
    invalidate_branch(frame, a)
    assert frame.root.children == {}
    assert frame.first_answer is a and not a.valid


def test_invalidate_keeps_shared_prefix_for_the_survivor():
    frame = fresh_frame(2)
    add(frame, 1, "a")
    doomed = add(frame, 1, "b")
    invalidate_branch(frame, doomed)
    assert lookup(frame, 1, "a") is not None
    assert lookup(frame, 1, "b") is None


def test_invalidate_foreign_node_is_an_error():
    frame = fresh_frame(1)
    other = fresh_frame(1)
    leaf = add(other, "a")
    with pytest.raises(ModetabError):
        invalidate_branch(frame, leaf)


def test_invalidate_after_completion_is_an_error():
    frame = fresh_frame(1)
    leaf = add(frame, "a")
    complete_table(frame)
    with pytest.raises(ModetabError):
        invalidate_branch(frame, leaf)


def test_stats_counters_track_inserts_and_invalidations():
    frame = fresh_frame(1)
    add(frame, "a")
    doomed = add(frame, "b")
    invalidate_branch(frame, doomed)
    complete_table(frame)
    assert frame.n_inserted == 2
    assert frame.n_invalidated == 1
    assert frame.n_purged == 1


# ---------------------------------------------------------------------------
# Completion


def test_completion_purges_invalid_leaves():
    frame = fresh_frame(1)
    a = add(frame, "a")
    b = add(frame, "b")
    c = add(frame, "c")
    invalidate_branch(frame, b)
    complete_table(frame)
    assert frame.complete
    assert frame.first_answer is a and a.next is c and c.next is None


def test_completing_twice_is_an_error():
    frame = fresh_frame(1)
    complete_table(frame)
    with pytest.raises(ModetabError):
        complete_table(frame)


def test_completion_of_a_fully_invalidated_table():
    frame = fresh_frame(1)
    a = add(frame, "a")
    invalidate_branch(frame, a)
    complete_table(frame)
    assert frame.first_answer is None and frame.last_answer is None


def test_purged_leaf_still_forwards_to_survivors():
    frame = fresh_frame(1)
    add(frame, "a")
    parked = add(frame, "b")
    invalidate_branch(frame, parked)
    c = add(frame, "c")
    d = add(frame, "d")
    invalidate_branch(frame, c)
    complete_table(frame)
    assert [l.terms[0] for l in iterate_answers(frame, after=parked)] == ["d"]
    assert d.valid


# ---------------------------------------------------------------------------
# Iteration


def test_iterate_skips_invalid_leaves():
    frame = fresh_frame(1)
    add(frame, "a")
    bad = add(frame, "b")
    add(frame, "c")
    invalidate_branch(frame, bad)
    got = [l.terms[0] for l in iterate_answers(frame)]
    assert got == ["a", "c"]


def test_iterate_from_a_parked_position():
    frame = fresh_frame(1)
    a = add(frame, "a")
    add(frame, "b")
    assert [l.terms[0] for l in iterate_answers(frame, after=a)] == ["b"]


def test_iterate_empty_table():
    frame = fresh_frame(1)
    assert list(iterate_answers(frame)) == []


# ---------------------------------------------------------------------------
# Randomized model checks

Values = (
    st.integers(0, 5)
    | st.sampled_from(["a", "b"])
    | st.builds(lambda x: Struct("f", [x]), st.integers(0, 3))
)
Vectors = st.lists(st.tuples(Values, Values, Values), max_size=25)


@given(Vectors)
def test_node_count_matches_distinct_prefixes(vectors):
    """Prefix sharing is exact: one node per distinct non-empty prefix."""
    frame = fresh_frame()
    prefixes = set()
    for vec in vectors:
        tokens = tuple(tokenize(list(vec)))
        add(frame, *vec)
        prefixes.update(tokens[: i + 1] for i in range(len(tokens)))
    assert count_nodes(frame.root) == len(prefixes)


@given(Vectors, st.data())
@settings(max_examples=120)
def test_chain_and_invalidation_match_a_list_model(vectors, data):
    frame = fresh_frame()
    appended = []
    for vec in vectors:
        leaf = add(frame, *vec)
        if leaf not in appended:
            appended.append(leaf)
    doomed = [l for l in appended if data.draw(st.booleans())]
    for leaf in doomed:
        if leaf.valid:
            invalidate_branch(frame, leaf)
    # chain still holds every leaf ever appended, in order
    chain = []
    cur = frame.first_answer
    while cur is not None:
        chain.append(cur)
        cur = cur.next
    assert chain == appended
    # valid set = appended minus invalidated; survivors stay retrievable
    for leaf in appended:
        expected = leaf not in doomed
        assert leaf.valid == expected
        found = lookup(frame, *leaf.terms)
        if expected:
            assert found is leaf
        else:
            assert found is None  # detached branches are opaque from the root
    complete_table(frame)
    survivors = [l for l in appended if l.valid]
    assert list(iterate_answers(frame)) == survivors
    cur = frame.first_answer
    count = 0
    while cur is not None:
        assert cur.valid
        count += 1
        cur = cur.next
    assert count == len(survivors)


@given(Vectors, st.data())
@settings(max_examples=120)
def test_reader_parked_on_a_dead_leaf_sees_later_answers(vectors, data):
    frame = fresh_frame()
    appended = []
    for vec in vectors:
        leaf = add(frame, *vec)
        if leaf not in appended:
            appended.append(leaf)
    if not appended:
        return
    parked = appended[data.draw(st.integers(0, len(appended) - 1))]
    for leaf in appended:
        if leaf.valid and data.draw(st.booleans()):
            invalidate_branch(frame, leaf)
    expected = [l for l in appended if l.seq > parked.seq and l.valid]
    assert list(iterate_answers(frame, after=parked)) == expected
    complete_table(frame)
    assert list(iterate_answers(frame, after=parked)) == expected
