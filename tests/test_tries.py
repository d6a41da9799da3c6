"""Table-space structure: call tables, answer tries and chains, invalidation,
purge."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from modetab import bench
from modetab.engine import Engine
from modetab.errors import ModetabError
from modetab.lang import parse_program
from modetab.modes import (build_segments, compile_declaration, insert_answer,
                           leaf_depth, traditional_modes)
from modetab.terms import Struct, Var, term_keys, var_token, variant
from modetab.tries import (
    AnswerLeaf,
    TableSpace,
    complete_table,
    drop_below,
    grow_answer,
    iterate_answers,
    subgoal_lookup_insert,
)


def frame_for(entry, args):
    """Key a call in mode order and find or make its frame: (frame,
    is_new, varmap)."""
    varmap, counts = {}, []
    key = term_keys([args[pos - 1] for pos, _ in entry.mode_array], varmap,
                    counts)
    frame, is_new = subgoal_lookup_insert(entry, tuple(key), tuple(counts))
    return frame, is_new, varmap


def fresh_frame(arity=3):
    """A frame for an all-free traditionally tabled call, for raw trie tests."""
    space = TableSpace()
    entry = space.entry("p", arity, traditional_modes(arity))
    frame, _, _ = frame_for(entry, [Var() for _ in range(arity)])
    return frame


def count_nodes(root):
    n = 0
    stack = [root]
    while stack:
        node = stack.pop()
        n += len(node)
        stack.extend(c for c in node.values() if type(c) is dict)
    return n


def path_keys(frame, terms):
    """The keys of an answer's trie path: one per term, or, where its
    one-answer columns live in the record, one per index term."""
    keys = term_keys(terms)
    depth = leaf_depth(build_segments(frame.subst_modes))
    return keys[:depth] if depth else keys


def add(frame, *terms):
    """Store an answer of an index-only frame, one trie level per term,
    growing its path with grow_answer; returns its record."""
    keys = term_keys(terms)
    node = frame.root
    for i, key in enumerate(keys):
        child = node.get(key)
        if child is None:
            return grow_answer(frame, node, keys, i, terms)
        node = child
    return node


def lookup(frame, *terms):
    """Root-down walk of an answer's path; returns the leaf record or
    None."""
    node = frame.root
    for key in path_keys(frame, terms):
        node = node.get(key)
        if node is None:
            return None
    return node


def kill(frame, leaf):
    """Invalidate one record: pop the last edge of its path and drop
    what it held with drop_below; returns how many were tagged."""
    keys = path_keys(frame, leaf.terms)
    node = frame.root
    for key in keys[:-1]:
        node = node[key]
    return drop_below(frame, {keys[-1]: node.pop(keys[-1])})


def dicts(node):
    """How many dicts an answer trie holds."""
    if type(node) is not dict:
        return 0
    return 1 + sum(map(dicts, node.values()))


# ---------------------------------------------------------------------------
# Structure


def test_insert_creates_one_node_per_term():
    frame = fresh_frame()
    add(frame, Var(), 1, Struct("f", [Var()]))
    assert count_nodes(frame.root) == 3


def test_reinsert_finds_same_leaf():
    frame = fresh_frame()
    leaf1 = add(frame, Var(), 1, Struct("f", [Var()]))
    leaf2 = add(frame, Var(), 1, Struct("f", [Var()]))
    assert leaf1 is leaf2 and frame.n_inserted == 1
    assert count_nodes(frame.root) == 3


def test_common_prefix_is_shared():
    frame = fresh_frame()
    add(frame, Var(), 1, Struct("f", [Var()]))
    add(frame, Var(), 1, "b")
    # [VAR0, 1] is shared; only the b node is new
    assert count_nodes(frame.root) == 4


@pytest.mark.parametrize("family", ["shortest", "shortest_first"])
def test_a_graph_table_keys_only_its_index_columns(family, monkeypatch):
    # just before path completes, each (X, Y) key holds its answer's
    # record: no dict for the min column (nor for shortest_first's first
    # column) below it, so the trie is the root and one dict per X
    import modetab.engine as engine_mod
    inst = bench.gen_instance(family, 20, 3)
    tries = []

    def complete(frame):
        if frame.entry.name == "path":
            tries.append(frame.root)
        complete_table(frame)

    monkeypatch.setattr(engine_mod, "complete_table", complete)
    answers, _ = Engine(parse_program(bench.program_text(inst))).solve(
        bench.query_text(inst))
    root, = tries
    assert dicts(root) == 1 + len({a["X"] for a in answers})
    records = [leaf for node in root.values() for leaf in node.values()]
    assert all(type(leaf) is AnswerLeaf and leaf.valid for leaf in records)
    assert len(records) == len(answers) > 100


def test_call_arguments_are_stored_in_mode_order():
    space = TableSpace()
    ma = compile_declaration("p", 3, ["all", "index", "min"])
    entry = space.entry("p", 3, ma)
    x, y = Var(), Var()
    frame, is_new, varmap = frame_for(entry, [x, 1, y])
    assert is_new
    # bound second argument first, then the min variable, then the all one
    assert entry.calls == {(1, var_token(0), var_token(1)): frame}
    assert varmap == {y: 0, x: 1}
    assert frame.subst_modes == (("index", 0, 2), ("min", 1, 3), ("all", 1, 1))


def test_a_key_built_in_mode_order_finds_the_tokenized_calls_frame():
    # a caller that reads its arguments in mode order, as a compiled call
    # site does, hands over its own key and per-argument variable counts
    ma = compile_declaration("p", 3, ["all", "index", "min"])
    entry = TableSpace().entry("p", 3, ma)
    f1, _, _ = frame_for(entry, [Var(), 1, Var()])
    frame, is_new = subgoal_lookup_insert(
        entry, (1, var_token(0), var_token(1)), (0, 1, 1))
    assert frame is f1 and not is_new
    f2, is_new = subgoal_lookup_insert(
        entry, (2, var_token(0), var_token(1)), (0, 1, 1))
    assert is_new and f2.subst_modes is f1.subst_modes


def test_source_order_call_path_without_mode_reordering():
    space = TableSpace()
    entry = space.entry("p", 3, traditional_modes(3))
    frame, _, _ = frame_for(entry, [Var(), 1, Var()])
    assert entry.calls == {(var_token(0), 1, var_token(1)): frame}


def test_zero_arity_call_has_the_empty_key():
    space = TableSpace()
    entry = space.entry("p", 0, traditional_modes(0))
    frame, is_new, varmap = frame_for(entry, [])
    assert is_new and varmap == {}
    assert entry.calls == {(): frame}
    assert frame_for(entry, [])[:2] == (frame, False)


def test_variant_call_reuses_frame():
    space = TableSpace()
    entry = space.entry("p", 3, traditional_modes(3))
    f1, new1, _ = frame_for(entry, [Var(), 1, Var()])
    f2, new2, _ = frame_for(entry, [Var(), 1, Var()])
    assert new1 and not new2
    assert f1 is f2


def test_distinct_calls_get_distinct_frames():
    space = TableSpace()
    entry = space.entry("p", 2, traditional_modes(2))
    f1, _, _ = frame_for(entry, ["a", Var()])
    f2, _, _ = frame_for(entry, ["b", Var()])
    assert f1 is not f2
    assert len(entry.frames) == 2


def test_calls_of_one_shape_share_their_modes_and_plan():
    engine = Engine(parse_program(
        ":- table p(index, index, min).\np(X, Y, 1) :- X = Y.\n"))
    entry = engine.entry("p", 3)
    f1, _, _ = frame_for(entry, ["a", Var(), Var()])
    f2, _, _ = frame_for(entry, ["b", Var(), Var()])
    f3, _, _ = frame_for(entry, [Var(), "b", Var()])
    assert f1 is not f2 and f1.subst_modes is f2.subst_modes
    assert f3.subst_modes is not f1.subst_modes
    insert_answer(f1, ("c", 1))
    insert_answer(f2, ("d", 2))
    # the plan is cached per substitution array, so a shape has one
    assert build_segments(f1.subst_modes) is build_segments(f2.subst_modes)
    # and one set of tries per shape, whose puts walk the plan of the shape
    tries = engine._shape(entry, (None, 0, 1), f1.subst_modes)
    assert tries is engine._shape(entry, (None, 0, 1), f2.subst_modes)
    assert tries[0] is not engine._shape(entry, (0, None, 1),
                                         f3.subst_modes)[0]


def test_lcs_frames_share_one_substitution_array():
    inst = bench.gen_instance("lcs", 40, 1)
    engine = Engine(parse_program(bench.program_text(inst)))
    lookup, shapes = engine._shape, []
    engine._shape = lambda *key: shapes.append(lookup(*key)) or shapes[-1]
    engine.solve(bench.query_text(inst))
    frames = list(engine.space.entries[("lcs", 3)].frames)
    assert len(frames) > 1000
    assert len({id(f.subst_modes) for f in frames}) == 1
    assert len({id(build_segments(f.subst_modes)) for f in frames}) == 1
    # each frame's generator looks its shape up once, and every frame
    # tries and stores through the same puts and tries
    assert len(shapes) == len(frames)
    assert len({id(s) for s in shapes}) == 1


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
    kill(frame, a)
    c = add(frame, "c")
    assert not a.valid
    assert frame.first_answer is a and a.next is b and b.next is c


# ---------------------------------------------------------------------------
# Invalidation


def test_invalidate_detaches_branch_but_keeps_chain():
    frame = fresh_frame(2)
    worse = add(frame, 5, Struct("f", ["a"]))
    assert drop_below(frame, frame.root) == 1
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
    kill(frame, a)
    assert frame.root == {}
    assert frame.first_answer is a and not a.valid


def test_invalidate_keeps_shared_prefix_for_the_survivor():
    frame = fresh_frame(2)
    add(frame, 1, "a")
    doomed = add(frame, 1, "b")
    kill(frame, doomed)
    assert lookup(frame, 1, "a") is not None
    assert lookup(frame, 1, "b") is None


def test_drop_below_tags_every_leaf_under_its_node():
    frame = fresh_frame(2)
    first = add(frame, 5, Struct("f", ["a"]))
    survivor = add(frame, 4, "c")
    second = add(frame, 5, "b")
    node = frame.root[5]
    assert drop_below(frame, node) == 2
    # the node stays, empty, for the replacement to grow into
    assert frame.root[5] is node and node == {}
    assert not first.valid and not second.valid and survivor.valid
    assert frame.n_invalidated == 2
    assert lookup(frame, 5, "b") is None and lookup(frame, 4, "c") is survivor
    better = add(frame, 5, "a")
    assert frame.root[5] == {"a": better}
    assert [l.seq for l in (first, survivor, second, better)] == [1, 2, 3, 4]
    assert first.next is survivor and second.next is better


def test_stats_counters_track_inserts_and_invalidations():
    frame = fresh_frame(1)
    add(frame, "a")
    doomed = add(frame, "b")
    kill(frame, doomed)
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
    kill(frame, b)
    complete_table(frame)
    assert frame.complete
    assert frame.first_answer is a and a.next is c and c.next is None


def test_completion_drops_the_answer_trie():
    frame = fresh_frame(2)
    leaves = [add(frame, 1, "a"), add(frame, 1, "b"), add(frame, 2, "a")]
    kill(frame, leaves[1])
    complete_table(frame)
    assert frame.root is None
    # a record, live or invalidated, holds no trie node up
    for leaf in leaves:
        assert not any(type(r) is dict for r in gc.get_referents(leaf))


def test_a_solved_engine_keeps_no_answer_tries():
    inst = bench.gen_instance("shortest", 50, 1)
    program = parse_program(bench.program_text(inst))
    query = bench.query_text(inst)
    Engine(program).solve(query)  # fills module-level caches first
    gc.collect()
    before = len(gc.get_objects())
    engine = Engine(program)
    answers, _ = engine.solve(query)
    assert len(answers) == 2500
    del answers
    gc.collect()
    # 2,500 answer records and the engine; the tries went at completion
    assert len(gc.get_objects()) - before < 4000


def test_completing_twice_is_an_error():
    frame = fresh_frame(1)
    complete_table(frame)
    with pytest.raises(ModetabError):
        complete_table(frame)


def test_completion_of_a_fully_invalidated_table():
    frame = fresh_frame(1)
    a = add(frame, "a")
    kill(frame, a)
    complete_table(frame)
    assert frame.first_answer is None and frame.last_answer is None


def test_purged_leaf_still_forwards_to_survivors():
    frame = fresh_frame(1)
    add(frame, "a")
    parked = add(frame, "b")
    kill(frame, parked)
    c = add(frame, "c")
    d = add(frame, "d")
    kill(frame, c)
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
    kill(frame, bad)
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

_VARS = [Var(), Var()]
CallArgs = st.recursive(
    st.sampled_from(["a", 1, 1.0]) | st.sampled_from(_VARS),
    lambda kids: st.builds(Struct, st.sampled_from("fg"),
                           st.lists(kids, min_size=1, max_size=2)),
    max_leaves=4,
)
DECLARATIONS = [None, ["all", "index", "min"], ["index", "index", "first"]]


def renamed(t, fresh):
    """t with each variable consistently replaced by a fresh one."""
    if type(t) is Var:
        return fresh.setdefault(t, Var())
    if type(t) is Struct:
        return Struct(t.name, [renamed(a, fresh) for a in t.args])
    return t


@given(st.sampled_from(DECLARATIONS), st.data())
def test_calls_share_a_frame_exactly_when_they_are_variants(modes, data):
    ma = traditional_modes(3) if modes is None else compile_declaration(
        "p", 3, modes)
    entry = TableSpace().entry("p", 3, ma)
    calls, frames = [], []
    for _ in range(data.draw(st.integers(1, 12))):
        if calls and data.draw(st.booleans()):
            # a renamed copy of an earlier call, perhaps with one argument
            # redrawn, two swapped or its integers made floats, so that
            # near-variants occur
            fresh = {}
            args = [renamed(a, fresh) for a in data.draw(st.sampled_from(calls))]
            i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
            change = data.draw(st.sampled_from(["none", "redraw", "swap",
                                                "float"]))
            if change == "redraw":
                args[i] = data.draw(CallArgs)
            elif change == "swap":
                args[i], args[j] = args[j], args[i]
            elif change == "float":
                args = [float(a) if type(a) is int else a for a in args]
        else:
            args = data.draw(st.lists(CallArgs, min_size=3, max_size=3))
        frame, is_new, _ = frame_for(entry, args)
        assert is_new == (frame not in frames)
        calls.append(args)
        frames.append(frame)
    for i, a in enumerate(calls):
        for j, b in enumerate(calls):
            assert (frames[i] is frames[j]) == variant(Struct("c", a),
                                                       Struct("c", b))
    assert list(entry.frames) == list(dict.fromkeys(frames))


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
        keys = tuple(term_keys(vec))
        add(frame, *vec)
        prefixes.update(keys[: i + 1] for i in range(len(keys)))
    assert count_nodes(frame.root) == len(prefixes)


@given(Vectors)
def test_one_answer_columns_add_no_node(vectors):
    """An index, index, min trie has one node per distinct index prefix,
    and each index pair's key holds its one valid record."""
    frame, _, _ = frame_for(TableSpace().entry(
        "p", 3, compile_declaration("p", 3, ["index", "index", "min"])),
        [Var(), Var(), Var()])
    prefixes = set()
    for vec in vectors:
        keys = tuple(term_keys(vec))
        insert_answer(frame, vec)
        prefixes.update((keys[:1], keys[:2]))
    assert count_nodes(frame.root) == len(prefixes)
    valid = list(iterate_answers(frame))
    assert len(valid) == sum(len(node) for node in frame.root.values())
    assert all(lookup(frame, *leaf.terms) is leaf for leaf in valid)
    if valid:
        assert kill(frame, valid[0]) == 1
        assert lookup(frame, *valid[0].terms) is None


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
            kill(frame, leaf)
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
            kill(frame, leaf)
    expected = [l for l in appended if l.seq > parked.seq and l.valid]
    assert list(iterate_answers(frame, after=parked)) == expected
    complete_table(frame)
    assert list(iterate_answers(frame, after=parked)) == expected


@given(st.lists(st.booleans(), max_size=30), st.integers(0, 3))
@settings(max_examples=300)
def test_completion_relinks_the_chain_as_a_survivor_list(valid, purged):
    """A chain of valid and invalid records completes to exactly its
    valid ones, in order; each purged record keeps its forward pointer,
    and a reader parked on one reads exactly the valid records after
    it."""
    frame = fresh_frame(1)
    frame.n_purged = purged  # completion adds to what is there
    leaves = []
    for ok in valid:
        leaf = grow_answer(frame, frame.root, (len(leaves),), 0,
                           (len(leaves),))
        leaf.valid = ok
        leaves.append(leaf)
    links = {leaf: leaf.next for leaf in leaves}
    survivors = [leaf for leaf in leaves if leaf.valid]
    complete_table(frame)
    chain = []
    leaf = frame.first_answer
    while leaf is not None:
        chain.append(leaf)
        leaf = leaf.next
    assert chain == survivors
    assert frame.first_answer is (survivors[0] if survivors else None)
    assert frame.last_answer is (survivors[-1] if survivors else None)
    assert frame.n_purged == purged + len(leaves) - len(survivors)
    for i, leaf in enumerate(leaves):
        if leaf.valid:
            continue
        assert leaf.next is links[leaf]
        assert list(iterate_answers(frame, after=leaf)) == [
            later for later in leaves[i + 1:] if later.valid]
