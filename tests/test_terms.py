"""Term flattening, variance, ordering and printing."""

import pytest
from hypothesis import given, strategies as st

from modetab.errors import EvaluationError
from modetab.terms import (
    Struct,
    Var,
    compare_ground,
    fun_token,
    term_to_str,
    tokenize,
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


def test_tokenize_orders_variables_by_first_occurrence():
    x, y = Var(), Var()
    t = Struct("path", [x, 1, Struct("f", [y])])
    assert tokenize([t]) == [
        fun_token("path", 3),
        var_token(0),
        1,
        fun_token("f", 1),
        var_token(1),
    ]


def test_tokenize_atom_is_single_token():
    assert tokenize(["a"]) == ["a"]


def test_tokenize_mixed_constants():
    z = Var()
    t = Struct("path", [z, 1, "b"])
    assert tokenize([t]) == [fun_token("path", 3), var_token(0), 1, "b"]


def test_tokenize_shares_variable_numbering_across_arguments():
    x = Var()
    counts = []
    toks = tokenize([x, Struct("f", [x, Var()])], counts=counts)
    assert toks == [var_token(0), fun_token("f", 2), var_token(0), var_token(1)]
    assert counts == [1, 1]


def test_float_tokens_stay_distinct_from_ints():
    assert tokenize([1]) != tokenize([1.0])


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


def test_compare_numbers():
    assert compare_ground(3, 5) == -1
    assert compare_ground(5, 3) == 1
    assert compare_ground("a", "a") == 0


def test_numbers_order_before_compounds():
    assert compare_ground(7, Struct("f", [0])) == -1


def test_atoms_order_between_numbers_and_compounds():
    assert compare_ground(10_000, "a") == -1
    assert compare_ground("zzz", Struct("a", [1])) == -1


def test_compounds_order_by_arity_then_name_then_args():
    assert compare_ground(Struct("z", [1]), Struct("a", [1, 2])) == -1
    assert compare_ground(Struct("a", [9]), Struct("b", [0])) == -1
    assert compare_ground(Struct("f", [1, "a"]), Struct("f", [1, "b"])) == -1


def test_equal_valued_int_and_float_compare_equal():
    assert compare_ground(1, 1.0) == 0
    assert compare_ground(Struct("f", [2]), Struct("f", [2.0])) == 0


def test_compare_rejects_open_terms():
    with pytest.raises(EvaluationError):
        compare_ground(Var(), 1)
    with pytest.raises(EvaluationError):
        compare_ground(Struct("f", [1, Var()]), Struct("f", [1, 2]))


@given(GroundTerms, GroundTerms)
def test_compare_antisymmetric(a, b):
    assert compare_ground(a, b) == -compare_ground(b, a)


@given(GroundTerms, GroundTerms, GroundTerms)
def test_compare_transitive(a, b, c):
    if compare_ground(a, b) <= 0 and compare_ground(b, c) <= 0:
        assert compare_ground(a, c) <= 0


@given(GroundTerms, GroundTerms)
def test_compare_equal_means_same_value(a, b):
    """Ties happen only for identical terms or numerically equal numbers."""
    if compare_ground(a, b) == 0:
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            assert a == b
        else:
            assert tokenize([a]) == tokenize([b]) or a == b


def test_term_to_str_quotes_odd_atoms():
    assert term_to_str("hello world") == "'hello world'"
    assert term_to_str("a") == "a"
    assert term_to_str(Struct("f", [1, "b c"])) == "f(1, 'b c')"


def test_term_to_str_infix_arithmetic():
    assert term_to_str(Struct("+", [1, 2])) == "(1 + 2)"


def test_term_to_str_prints_a_deep_term():
    t = 0
    for _ in range(5000):
        t = Struct("s", [t])
    assert term_to_str(t) == "s(" * 5000 + "0" + ")" * 5000
