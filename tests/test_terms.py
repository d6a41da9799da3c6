"""Term flattening and keys, variance, ordering and printing."""

import pytest
from hypothesis import example, given, strategies as st

from modetab.errors import EvaluationError
from modetab.terms import (
    FLT,
    Struct,
    Var,
    compare_token_seqs,
    cyclic_binding,
    flatten_into,
    fun_token,
    term_keys,
    term_to_str,
    unify,
    var_token,
    variant,
)

# A small shared pool so generated terms can repeat variables.
_POOL = [Var("P%d" % i) for i in range(4)]

Atoms = st.sampled_from(["a", "b", "foo", "hello world", "z9"])
Ints = st.integers(-1000, 1000)
Floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)

GroundTerms = st.recursive(
    Atoms | Ints | Floats,
    lambda kids: st.builds(
        lambda name, args: Struct(name, args),
        st.sampled_from(["f", "g", "pair"]),
        st.lists(kids, min_size=1, max_size=3),
    ),
    max_leaves=8,
)

OpenTerms = st.recursive(
    Atoms | Ints | st.sampled_from(_POOL),
    lambda kids: st.builds(
        lambda name, args: Struct(name, args),
        st.sampled_from(["f", "g"]),
        st.lists(kids, min_size=1, max_size=3),
    ),
    max_leaves=10,
)


def tokens(t):
    """The preorder tokens of one term."""
    out = []
    flatten_into(t, {}, out)
    return out


def test_tokenize_orders_variables_by_first_occurrence():
    x, y = Var(), Var()
    t = Struct("path", [x, 1, Struct("f", [y])])
    assert tokens(t) == [
        fun_token("path", 3),
        var_token(0),
        1,
        fun_token("f", 1),
        var_token(1),
    ]
    assert term_keys([t]) == [tuple(tokens(t))]


def test_tokenize_atom_is_single_token():
    assert tokens("a") == ["a"]
    assert term_keys(["a"]) == ["a"]


def test_tokenize_mixed_constants():
    z = Var()
    t = Struct("path", [z, 1, "b"])
    assert tokens(t) == [fun_token("path", 3), var_token(0), 1, "b"]


def test_tokenize_shares_variable_numbering_across_arguments():
    x = Var()
    counts = []
    keys = term_keys([x, Struct("f", [x, Var()])], counts=counts)
    assert keys == [var_token(0),
                    (fun_token("f", 2), var_token(0), var_token(1))]
    assert counts == [1, 1]


def test_term_keys_give_one_key_per_term():
    x = Var()
    varmap = {}
    keys = term_keys(["a", 1, 1.5, x, Struct("f", [x, 2.5])], varmap)
    assert keys == ["a", 1, (FLT, 1.5), var_token(0),
                    (fun_token("f", 2), var_token(0), (FLT, 2.5))]
    assert varmap == {x: 0}
    # a shared varmap goes on numbering from where it stands
    assert term_keys([Var(), x], varmap) == [var_token(1), var_token(0)]


def test_float_tokens_stay_distinct_from_ints():
    assert term_keys([1]) != term_keys([1.0])
    assert term_keys([Struct("f", [1])]) != term_keys([Struct("f", [1.0])])


def test_variant_ignores_variable_names():
    z, y = Var(), Var()
    assert variant(Struct("path", ["a", z]), Struct("path", ["a", y]))


def test_variant_distinguishes_sharing_patterns():
    x, y = Var(), Var()
    assert not variant(Struct("p", [x, x]), Struct("p", [x, y]))


def test_variant_ground_reflexive():
    t = Struct("f", [1, "a"])
    assert variant(t, t)


@given(OpenTerms, OpenTerms)
def test_variant_symmetric(a, b):
    assert variant(a, b) == variant(b, a)


@given(OpenTerms, OpenTerms, OpenTerms)
def test_variant_transitive(a, b, c):
    if variant(a, b) and variant(b, c):
        assert variant(a, c)


def order(a, b):
    """Standard order of two terms, by their token sequences."""
    return compare_token_seqs(tokens(a), tokens(b))


def test_compare_numbers():
    assert order(3, 5) == -1
    assert order(5, 3) == 1
    assert order("a", "a") == 0


def test_numbers_order_before_compounds():
    assert order(7, Struct("f", [0])) == -1


def test_atoms_order_between_numbers_and_compounds():
    assert order(10_000, "a") == -1
    assert order("zzz", Struct("a", [1])) == -1


def test_compounds_order_by_arity_then_name_then_args():
    assert order(Struct("z", [1]), Struct("a", [1, 2])) == -1
    assert order(Struct("a", [9]), Struct("b", [0])) == -1
    assert order(Struct("f", [1, "a"]), Struct("f", [1, "b"])) == -1


def test_equal_valued_int_and_float_compare_equal():
    assert order(1, 1.0) == 0
    assert order(Struct("f", [2]), Struct("f", [2.0])) == 0


def test_compare_rejects_open_terms():
    with pytest.raises(EvaluationError):
        order(Var(), 1)
    with pytest.raises(EvaluationError):
        order(Struct("f", [1, Var()]), Struct("f", [1, 2]))


def unified(a, b):
    """Whether a and b unify, and what each Var is bound to if so."""
    env, trail = {}, []
    if not unify(a, b, env, trail):
        return None
    assert sorted(map(id, trail)) == sorted(map(id, env))
    return {v.name: env[v] for v in env}


def test_unify_compounds_of_the_same_functor_binds_both_sides():
    x, y = Var("X"), Var("Y")
    assert unified(Struct("f", [x, "b"]), Struct("f", ["a", y])) == {
        "X": "a", "Y": "b"}


def test_unify_compounds_of_another_functor_or_arity_fails():
    x = Var("X")
    assert unified(Struct("f", [x]), Struct("g", ["a"])) is None
    assert unified(Struct("f", [x]), Struct("f", ["a", "b"])) is None
    assert unified(Struct("f", ["a"]), "f") is None


def test_unify_nested_compounds():
    x, y = Var("X"), Var("Y")
    inner = Struct("g", [y, 2])
    assert unified(Struct("f", [x, inner]),
                   Struct("f", [Struct("h", ["c"]), Struct("g", [1, 2])])
                   ) == {"X": Struct("h", ["c"]), "Y": 1}
    assert unified(Struct("f", [x, inner]),
                   Struct("f", ["c", Struct("g", [1, 3])])) is None


def test_compound_equality_is_as_strict_as_unify():
    one, fone = Struct("f", [1]), Struct("f", [1.0])
    assert one == Struct("f", [1])
    assert one != fone
    assert Struct("g", [one]) != Struct("g", [fone])
    assert len({one, fone}) == 2

    def nest(leaf):
        for _ in range(10000):
            leaf = Struct("s", [leaf])
        return leaf
    # compared without recursing through Python
    assert nest(0) == nest(0)
    assert nest(0) != nest(0.0)


@given(GroundTerms, GroundTerms)
def test_compare_antisymmetric(a, b):
    assert order(a, b) == -order(b, a)


@given(GroundTerms, GroundTerms, GroundTerms)
def test_compare_transitive(a, b, c):
    if order(a, b) <= 0 and order(b, c) <= 0:
        assert order(a, c) <= 0


@given(GroundTerms, GroundTerms)
@example(Struct("f", [2]), Struct("f", [2.0]))
def test_compare_equal_means_same_value(a, b):
    """Ties happen only for terms alike up to numerically equal numbers."""
    def values(t):
        return [k[1] if type(k) is tuple and k[0] == FLT else k
                for k in tokens(t)]
    if order(a, b) == 0:
        assert values(a) == values(b)


def test_term_to_str_quotes_odd_atoms():
    assert term_to_str("hello world") == "'hello world'"
    assert term_to_str("a") == "a"
    assert term_to_str(Struct("f", [1, "b c"])) == "f(1, 'b c')"


def test_term_to_str_infix_arithmetic():
    assert term_to_str(Struct("+", [1, 2])) == "(1 + 2)"


def test_term_to_str_numbers_variables_in_print_order():
    x, y = Var("X"), Var("X")
    names = {}
    # y, inside the first argument, prints first, so it is named first
    assert term_to_str(Struct("f", [Struct("g", [y]), x]), names) == \
        "f(g(_G1), _G2)"
    # the numbering carries on, and the same variable keeps its name
    assert term_to_str(Struct("+", [x, Var("Z")]), names) == "(_G2 + _G3)"
    assert term_to_str(y, names) == "_G1"
    assert term_to_str(Struct("h", [x, y])) == "h(X, X)"


def test_term_to_str_prints_a_deep_term():
    t = 0
    for _ in range(5000):
        t = Struct("s", [t])
    assert term_to_str(t) == "s(" * 5000 + "0" + ")" * 5000


def test_cyclic_binding_finds_a_variable_inside_its_own_value():
    a, b, c = Var("A"), Var("B"), Var("C")
    assert cyclic_binding({}) is None
    assert cyclic_binding({a: Struct("g", (a, b))}) is a
    # through another binding
    cycle = {a: Struct("f", (b,)), b: Struct("g", (c, a))}
    assert cyclic_binding(cycle) in (a, b)
    # a shared variable is not a cycle
    assert cyclic_binding({a: Struct("f", (b, b)), b: Struct("g", (c,)),
                           c: 1}) is None
    deep = 0
    for _ in range(10000):
        deep = Struct("s", (deep,))
    assert cyclic_binding({a: deep, b: Struct("f", (a, a))}) is None
