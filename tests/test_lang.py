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
from modetab.terms import Struct, Var, deref, term_to_str, variant


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


# every error the parser raises: (parse_program or parse_query, text,
# message, line, column)
PARSE_ERRORS = [
    # a bad character is reported before any syntax error, even one
    # that comes earlier in the text
    ("program", "p(a) :- q(a) ! r.", "unexpected character '!'", 1, 14),
    ("program", "p(a).\np(b) :- 'unterminated.",
     "unexpected character \"'\"", 2, 9),
    ("program", "p(a, b.\nq(!).", "unexpected character '!'", 2, 3),
    ("program", ":- table p(best).\n%\n? q.", "unexpected character '?'",
     3, 1),
    ("program", "p(a, b.", "expected ')'", 1, 7),
    ("program", "p((a + b).", "expected ')'", 1, 10),
    ("program", "p(a) :- q(1 < 2).", "expected ')'", 1, 13),
    ("program", "p((a, b)).", "expected ')'", 1, 5),
    ("program", "p(f(a)(b)).", "expected ')'", 1, 7),
    ("program", "p :- (q)(r).", "expected '.'", 1, 9),
    ("program", "edge(a,b).\np(X :- q.", "expected ')'", 2, 5),
    ("program", "p(a,,b).", "expected a term", 1, 5),
    ("program", "p().", "expected a term", 1, 3),
    ("program", "p(a) :- .", "expected a term", 1, 9),
    ("program", "p(X, Y) :- Y is -X.",
     "unary minus applies to number literals only", 1, 18),
    ("program", "p(X) :- X is - \n a.",
     "unary minus applies to number literals only", 2, 2),
    ("program", ":- table p(index,best).", "unknown mode 'best'", 1, 18),
    ("program", ":- import(foo).", "unknown directive 'import'", 1, 1),
    ("program", ":- table p/2.\n:- table p(index,min).",
     "duplicate table declaration for p/2", 2, 1),
    ("program", ":- table p/x.", "expected an integer", 1, 12),
    ("program", ":- table_strategy p/1.5, local.", "expected an integer",
     1, 21),
    ("program", ":- table_strategy p/1, eager.",
     "strategy must be local or batched", 1, 29),
    ("program", ":- table p index.", "expected '('", 1, 12),
    ("program", ":- table 'p'/1 q.", "expected '.'", 1, 16),
    ("program", ":- 42.", "expected an atom", 1, 4),
    ("program", "42.", "clause head must be an atom or a compound", 1, 1),
    ("program", "X :- p.", "clause head must be an atom or a compound", 1, 1),
    ("program", "\n-1.", "clause head must be an atom or a compound", 2, 1),
    ("program", "p(a) + 1.", "expected '.'", 1, 6),
    ("program", "p(a)", "expected '.'", 1, 5),
    ("program", "p :- X < Y < Z.", "expected '.'", 1, 12),
    ("program", "p :- 3.", "goal is not callable", 1, 6),
    ("program", "p :- X, q.", "goal is not callable", 1, 6),
    ("program", "p :- q,\n  7.", "goal is not callable", 2, 3),
    # after a comment, and after a quoted atom that spans lines
    ("program", "% a comment\n  p(a) q.", "expected '.'", 2, 8),
    ("program", "w('a\nb').\np(a", "expected ')'", 3, 4),
    ("program", "w('a\nb', c) :- x(\n'\n'), 1.", "goal is not callable",
     4, 5),
    ("query", "", "empty query", 1, 1),
    ("query", "  % nothing\n", "empty query", 2, 1),
    ("query", "?- ", "empty query", 1, 4),
    ("query", "?- .", "expected a term", 1, 4),
    ("query", "?- p(X), 3.", "goal is not callable", 1, 10),
    ("query", "p(X). q(X)", "unexpected text after query", 1, 7),
    ("query", "p(X) q(X)", "unexpected text after query", 1, 6),
    ("query", "p(X) ! q(X", "unexpected character '!'", 1, 6),
]


@pytest.mark.parametrize("parse, text, message, line, col", PARSE_ERRORS)
def test_parse_errors_name_their_line_and_column(parse, text, message,
                                                 line, col):
    with pytest.raises(ParseError) as err:
        (parse_program if parse == "program" else parse_query)(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == "line %d, column %d: %s" % (line, col, message)


LINES = """\
% a comment on line 1

:- table path(index,index,min).
path(X,Y,C) :-
    edge(X,Y,C).   % line 4, goal on line 5
% line 6

path(X,Y,C) :- path(X,Z,C1),
    edge(Z,Y,C2), C is C1 + C2.
:- table
   other/1.
w('a
b').
edge(a,b,1). edge(b,c,2).
  odd(X) :- missing(X).
"""


def test_clause_and_declaration_lines():
    program = parse_program(LINES)
    assert [(d.name, d.line) for d in program.declarations] == [
        ("path", 3), ("other", 11)]
    assert [c.line for c in program.clauses] == [4, 8, 12, 14, 14, 15]
    assert validate(program) == [
        "warning: tabled predicate other/1 has no clauses",
        "error: unknown predicate missing/1 called on line 15",
    ]


def test_a_deeply_nested_term_reads():
    deep = "f(" * 10000 + "a" + ")" * 10000
    program = parse_program("q(%s).\nr(X) :- X = %s." % (deep, deep))
    goal = parse_query("q(%s), X is 1" % deep)[0]
    for t in (program.clauses[0].head.args[0],
              program.clauses[1].body[0].args[1], goal.args[0]):
        depth = 0
        while type(t) is Struct:
            t = t.args[0]
            depth += 1
        assert (depth, t) == (10000, "a")


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


# the last four print quoted with escapes, or across a line break
Atoms = st.sampled_from(["a", "b", "foo", "q1", "x y'z", "it's",
                         "back\\slash", "\\'", "two\nlines"])
# eighths print as plain decimals, so every float here reads back
Numbers = (st.integers(-20, 20) | st.sampled_from([0.5, 1.25, 3.0, -2.5])
           | st.integers(-400, 400).map(lambda n: n / 8))
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
            choices += ["fun", "arith", "deep"]
        kind = draw(st.sampled_from(choices))
        if kind == "atom":
            return draw(Atoms)
        if kind == "num":
            return draw(Numbers)
        if kind == "var":
            return var()
        if kind == "arith":
            return Struct(draw(ArithOps), [term(depth - 1), term(depth - 1)])
        if kind == "deep":
            t = term(depth - 1)
            for _ in range(draw(st.integers(4, 9))):
                t = Struct(draw(FunNames), [t])
            return t
        n = draw(st.integers(1, 3))
        return Struct(draw(FunNames), [term(depth - 1) for _ in range(n)])

    def goal():
        kind = draw(st.sampled_from(["compare", "is", "call"]))
        if kind == "compare":
            return Struct(draw(CmpOps), [term(2), term(2)])
        if kind == "is":
            return Struct("is", [var(), term(3)])
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


LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2}


def terse(t):
    """term_to_str, but with only the parentheses that precedence and
    left associativity need: 1 - 2 - 3, 1 - (2 - 3), 1 + 2 * 3."""
    if type(t) is not Struct:
        return term_to_str(t)
    level = LEVELS.get(t.name) if len(t.args) == 2 else None
    if level is None:
        return "%s(%s)" % (term_to_str(t.name), ", ".join(map(terse, t.args)))
    sides = []
    for side, least in zip(t.args, (level, level + 1)):
        text = terse(side)
        if (type(side) is Struct and len(side.args) == 2
                and LEVELS.get(side.name, 3) < least):
            text = "(%s)" % text
        sides.append(text)
    return "%s %s %s" % (sides[0], t.name, sides[1])


def terse_text(program):
    """program_to_text, with each clause printed through terse."""
    lines = [program_to_text(Program(program.declarations,
                                     program.strategy_overrides))]
    for c in program.clauses:
        goals = [(" %s " % g.name).join(map(terse, g.args))
                 if is_builtin(g.name, len(g.args)) else terse(g)
                 for g in c.body]
        lines.append("%s%s.\n" % (terse(c.head), " :- " + ", ".join(goals)
                                   if goals else ""))
    return "".join(lines)


@given(random_program())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(program):
    """Printing then reparsing reproduces the program structurally, with
    every arithmetic term in parentheses or with as few as it needs."""
    _assert_same_program(program, parse_program(program_to_text(program)))
    _assert_same_program(program, parse_program(terse_text(program)))


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
