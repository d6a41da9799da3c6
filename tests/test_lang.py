"""Parser, printer, validation and builtin evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from modetab.errors import EvaluationError, ParseError
from modetab.lang import (
    Clause,
    Declaration,
    Program,
    clause_to_text,
    decompose_goal,
    eval_arith,
    eval_builtin,
    is_builtin,
    parse_program,
    parse_query,
    validate,
)
from modetab.terms import Struct, Var, deref, variant


def program_to_text(program):
    """A parsed program printed back as source, for round trips."""
    lines = []
    for d in program.declarations:
        if d.modes is None:
            lines.append(":- table %s/%d." % (d.name, d.arity))
        else:
            lines.append(":- table %s(%s)." % (d.name, ",".join(d.modes)))
    for (name, arity), strat in program.strategy_overrides.items():
        lines.append(":- table_strategy %s/%d, %s." % (name, arity, strat))
    for c in program.clauses:
        lines.append(clause_to_text(c))
    return "\n".join(lines) + "\n"


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


# ---------------------------------------------------------------------------
# Parsing


def test_parse_a_fact():
    program = parse_program("edge(a,b).")
    assert len(program.clauses) == 1
    clause = program.clauses[0]
    assert clause.head == Struct("edge", ["a", "b"])
    assert clause.body == ()


def test_parse_a_rule_with_arithmetic():
    program = parse_program(
        "path(X,Z,C) :- path(X,Y,C1), edge(Y,Z,C2), C is C1 + C2."
    )
    clause = program.clauses[0]
    assert len(clause.body) == 3
    last = clause.body[2]
    assert last.name == "is"
    assert last.args[1] == Struct("+", [clause.body[0].args[2], last.args[1].args[1]])
    # the head variable X is the same object as in the first body goal
    assert clause.head.args[0] is clause.body[0].args[0]


def test_parse_mode_declaration():
    program = parse_program(":- table path(index,index,min).")
    d = program.declarations[0]
    assert (d.name, d.arity, d.modes) == ("path", 3, ("index", "index", "min"))


def test_parse_traditional_declaration():
    program = parse_program(":- table path/2.")
    d = program.declarations[0]
    assert (d.name, d.arity, d.modes) == ("path", 2, None)
    assert program.is_tabled("path", 2)
    assert program.table_modes("path", 2) is None


def test_parse_strategy_override():
    program = parse_program(":- table_strategy rank/3, local.")
    assert program.strategy_overrides == {("rank", 3): "local"}


def test_clause_lookup_by_functor():
    program = parse_program(REACH)
    assert len(program.clauses_for("path", 2)) == 2
    assert len(program.clauses_for("edge", 2)) == 2
    assert program.clauses_for("edge", 3) == ()
    assert program.predicates() == {("path", 2), ("edge", 2)}


def test_variables_are_scoped_per_clause():
    program = parse_program("p(X) :- q(X).\nr(X).")
    first, second = program.clauses
    assert first.head.args[0] is first.body[0].args[0]
    assert first.head.args[0] is not second.head.args[0]


def test_anonymous_variables_are_always_fresh():
    clause = parse_program("p(_, _) :- q(_).").clauses[0]
    a, b = clause.head.args
    c = clause.body[0].args[0]
    assert len({id(a), id(b), id(c)}) == 3


def test_numbers_and_quoted_atoms():
    clause = parse_program("w(-3, 1.5, 'Hello World', 'a\\'b').").clauses[0]
    assert clause.head.args == (-3, 1.5, "Hello World", "a'b")


def test_comments_are_skipped():
    program = parse_program("% header\nedge(a,b). % trailing\n% footer\n")
    assert len(program.clauses) == 1


def test_malformed_head_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_program("edge(a,b).\np(X :- q.")
    assert err.value.line == 2 and err.value.col == 5
    assert "line 2, column 5" in str(err.value)


def test_duplicate_table_declaration_is_rejected():
    with pytest.raises(ParseError):
        parse_program(":- table p/2.\n:- table p(index,min).")


def test_unknown_mode_is_rejected():
    with pytest.raises(ParseError):
        parse_program(":- table p(best).")


def test_unknown_directive_is_rejected():
    with pytest.raises(ParseError):
        parse_program(":- import(foo).")


def test_unary_minus_needs_a_literal():
    with pytest.raises(ParseError):
        parse_program("p(X, Y) :- Y is -X.")


def test_number_is_not_a_clause_head():
    with pytest.raises(ParseError):
        parse_program("42.")


def test_parse_query_single_goal():
    goals = parse_query("path(a,Z)")
    assert len(goals) == 1
    assert goals[0].name == "path" and goals[0].args[0] == "a"


def test_parse_query_conjunction_shares_variables():
    goals = parse_query("p(Max), do_work(Max,Res)")
    assert len(goals) == 2
    assert goals[0].args[0] is goals[1].args[0]


def test_parse_query_accepts_prompt_and_period():
    assert len(parse_query("?- path(a,Z).")) == 1


def test_empty_query_is_an_error():
    with pytest.raises(ParseError):
        parse_query("")
    with pytest.raises(ParseError):
        parse_query("   % nothing\n")


# ---------------------------------------------------------------------------
# Validation


def test_reference_programs_have_no_diagnostics():
    for text in (REACH, COUNTED_REACH, LINK_COUNTS):
        assert validate(parse_program(text)) == []


def test_repeated_aggregate_slot_is_an_error_diagnostic():
    out = validate(parse_program(":- table q(sum,sum).\nq(a,1)."))
    assert len(out) == 1 and out[0].startswith("error:")
    assert "sum or last" in out[0]


def test_tabled_predicate_without_clauses_warns():
    out = validate(parse_program(":- table q(index,first)."))
    assert out == ["warning: tabled predicate q/2 has no clauses"]


@pytest.mark.parametrize("text", [
    ":- table cnt(index,sum).\n"
    "cnt(a,1).\n"
    "cnt(a,N) :- cnt(a,M), M < 3, N is 1.\n",
    # through a predicate that is not tabled
    ":- table cnt(index,sum).\n"
    "cnt(a,1).\n"
    "cnt(a,N) :- more(M), N is M.\n"
    "more(M) :- cnt(a,M), M < 3.\n",
])
def test_sum_table_that_can_call_itself_warns(text):
    assert validate(parse_program(text)) == [
        "warning: sum-moded cnt/2 can call itself, so its total may count"
        " transient answers under either strategy"]


def test_strategy_for_an_untabled_predicate_warns():
    out = validate(parse_program(
        ":- table_strategy q/1, batched.\nq(a).\n"))
    assert out == ["warning: table_strategy for q/1 has no effect: it has"
                   " no table declaration"]


def test_unknown_predicate_call_is_an_error():
    out = validate(parse_program("p(X) :- missing(X)."))
    assert out == ["error: unknown predicate missing/1 called on line 1"]


def test_redefining_a_builtin_is_an_error():
    out = validate(parse_program("is(X, Y) :- p(X, Y).\np(a,b)."))
    assert any(o.startswith("error: clause for builtin is/2") for o in out)


# ---------------------------------------------------------------------------
# Printing and round-trips


def test_printed_program_keeps_declarations_and_clauses():
    text = program_to_text(parse_program(LINK_COUNTS))
    assert ":- table num_links(index,sum)." in text
    assert "num_nodes(1) :- num_links(_, _)." in text
    assert text.endswith("edge(b, c).\n")


def _clause_variant(c1, c2):
    t1 = Struct("c", [c1.head] + list(c1.body))
    t2 = Struct("c", [c2.head] + list(c2.body))
    return variant(t1, t2)


def _assert_same_program(p1, p2):
    key = lambda d: (d.name, d.arity, d.modes)
    assert [key(d) for d in p1.declarations] == [key(d) for d in p2.declarations]
    assert p1.strategy_overrides == p2.strategy_overrides
    assert len(p1.clauses) == len(p2.clauses)
    for c1, c2 in zip(p1.clauses, p2.clauses):
        assert _clause_variant(c1, c2)


def test_reference_programs_round_trip():
    for text in (REACH, COUNTED_REACH, LINK_COUNTS):
        p1 = parse_program(text)
        p2 = parse_program(program_to_text(p1))
        _assert_same_program(p1, p2)


Atoms = st.sampled_from(["a", "b", "foo", "q1", "x y'z"])
Numbers = st.integers(-20, 20) | st.sampled_from([0.5, 1.25, 3.0, -2.5])
VarNames = st.sampled_from(["X", "Y", "Z", "Acc"])
FunNames = st.sampled_from(["f", "g", "pair"])
ArithOps = st.sampled_from(["+", "-", "*", "/"])
CmpOps = st.sampled_from(["<", ">", "=<", ">=", "=:=", "=\\=", "="])


@st.composite
def random_clause(draw):
    pool = {}

    def var():
        name = draw(VarNames)
        return pool.setdefault(name, Var(name))

    def term(depth):
        choices = ["atom", "num", "var"]
        if depth > 0:
            choices += ["fun", "arith"]
        kind = draw(st.sampled_from(choices))
        if kind == "atom":
            return draw(Atoms)
        if kind == "num":
            return draw(Numbers)
        if kind == "var":
            return var()
        if kind == "arith":
            return Struct(draw(ArithOps), [term(depth - 1), term(depth - 1)])
        n = draw(st.integers(1, 3))
        return Struct(draw(FunNames), [term(depth - 1) for _ in range(n)])

    def goal():
        if draw(st.booleans()):
            return Struct(draw(CmpOps), [term(1), term(1)])
        return Struct(draw(st.sampled_from(["p", "q", "r"])), [term(2)])

    head = Struct(draw(st.sampled_from(["p", "q", "r"])), [term(3)])
    body = [goal() for _ in range(draw(st.integers(0, 3)))]
    return Clause(head, body)


@st.composite
def random_program(draw):
    decls = []
    names = draw(st.lists(st.sampled_from(["p", "q", "r"]), unique=True))
    for name in names:
        arity = draw(st.integers(1, 3))
        modes = draw(
            st.none()
            | st.lists(
                st.sampled_from(["index", "min", "max", "all", "first"]),
                min_size=arity,
                max_size=arity,
            ).map(tuple)
        )
        decls.append(Declaration(name, arity, modes))
    overrides = {
        (name, 2): draw(st.sampled_from(["local", "batched"]))
        for name in draw(st.lists(st.sampled_from(["p", "q"]), unique=True))
    }
    clauses = draw(st.lists(random_clause(), max_size=5))
    return Program(decls, overrides, clauses)


@given(random_program())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(program):
    """Printing then reparsing reproduces the program structurally."""
    _assert_same_program(program, parse_program(program_to_text(program)))


# ---------------------------------------------------------------------------
# Builtins


def test_is_binds_the_left_side():
    x = Var("X")
    env, trail = {}, []
    assert eval_builtin("is", [x, Struct("+", [1, 2])], env, trail)
    assert deref(x, env) == 3


def test_comparisons_succeed_and_fail():
    env, trail = {}, []
    assert eval_builtin("<", [3, 5], env, trail)
    assert not eval_builtin("<", [5, 3], env, trail)
    assert eval_builtin(">=", [5, 5], env, trail)
    assert eval_builtin("=\\=", [2, 3], env, trail)


def test_numeric_equality_crosses_types_but_unification_does_not():
    env, trail = {}, []
    assert eval_builtin("=:=", [1, 1.0], env, trail)
    assert not eval_builtin("=", [1, 1.0], env, trail)


def test_is_with_unbound_variable_is_an_error():
    with pytest.raises(EvaluationError):
        eval_builtin("is", [Var(), Struct("+", [Var("Y"), 1])], {}, [])


def test_division_is_true_division():
    assert eval_arith(Struct("/", [7, 2]), {}) == 3.5


def test_division_by_zero_is_an_error():
    with pytest.raises(EvaluationError):
        eval_arith(Struct("/", [1, 0]), {})


def test_arith_min_max():
    assert eval_arith(Struct("min", [3, 5]), {}) == 3
    assert eval_arith(Struct("max", [3, 5]), {}) == 5


def test_non_numeric_arithmetic_is_an_error():
    with pytest.raises(EvaluationError):
        eval_arith(Struct("+", [1, "a"]), {})


def test_decompose_goal_shapes():
    assert decompose_goal("halt", {}) == ("halt", ())
    name, args = decompose_goal(Struct("p", [1]), {})
    assert name == "p" and args == (1,)
    g = Var()
    name, args = decompose_goal(g, {g: Struct("q", ["a"])})
    assert name == "q"
    with pytest.raises(EvaluationError):
        decompose_goal(Var(), {})
    with pytest.raises(EvaluationError):
        decompose_goal(7, {})


def test_is_builtin_table():
    assert is_builtin("is", 2)
    assert is_builtin("=<", 2)
    assert not is_builtin("is", 3)
    assert not is_builtin("edge", 2)
