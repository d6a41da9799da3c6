"""Runs of fact goals, arithmetic and comparisons, compiled to one
generated function per run: long runs, every fallback, and what reaches
the generated source."""

import pytest

import modetab.engine as engine_mod
from modetab.engine import Engine
from modetab.errors import EvaluationError
from modetab.lang import Clause, Declaration, parse_program
from modetab.terms import Struct, Var, term_to_str

BOTH = ("local", "batched")

# a chain 0 -> 1 -> ... -> 62
CHAIN = "".join("e(%d, %d).\n" % (i, i + 1) for i in range(62))


def hops(n):
    """p(X0, Xn) through n consecutive e/2 goals."""
    body = ", ".join("e(X%d, X%d)" % (i, i + 1) for i in range(n))
    return ":- table p/2.\np(X0, X%d) :- %s.\n" % (n, body) + CHAIN


def printed(answers):
    return [{k: term_to_str(v) for k, v in a.items()} for a in answers]


def solve(text, query, strategy="local"):
    return printed(Engine(parse_program(text), strategy).solve(query)[0])


# ---------------------------------------------------------------------------
# long runs and long expressions


@pytest.mark.parametrize("strategy", BOTH)
def test_a_run_of_25_fact_goals(strategy):
    assert solve(hops(25), "?- p(A, B).", strategy) == [
        {"A": str(a), "B": str(a + 25)} for a in range(38)]


@pytest.mark.parametrize("strategy", BOTH)
def test_a_run_of_60_fact_goals(strategy):
    assert solve(hops(60), "?- p(A, B).", strategy) == [
        {"A": "0", "B": "60"}, {"A": "1", "B": "61"}, {"A": "2", "B": "62"}]


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("n", [19, 20, 25])
def test_a_run_whose_fact_goals_each_read_a_slot_bound_before_it(n,
                                                                  strategy):
    # each goal dereferences A and undoes its bindings: the deepest code
    body = ", ".join("e(A, B%d)" % i for i in range(n))
    text = ":- table q/1.\nq(Z) :- A = 1, %s, Z is 6 / A.\n" % body + CHAIN
    assert solve(text, "?- q(Z).", strategy) == [{"Z": "6.0"}]


@pytest.mark.parametrize("strategy", BOTH)
def test_an_expression_of_200_operators(strategy):
    # 1 + Y - Y + Y - ... with 200 operators, then a comparison as long
    ops = "".join(" %s Y" % "+-"[k % 2] for k in range(200))
    text = (":- table p(index, max).\n"
            "p(Y, X) :- n(Y), X is 1%s, 1%s =:= X.\n" % (ops, ops)
            + "n(3). n(7). n(2.5).\n")
    assert solve(text, "?- p(Y, X).", strategy) == [
        {"Y": "3", "X": "1"}, {"Y": "7", "X": "1"}, {"Y": "2.5", "X": "1.0"}]


# ---------------------------------------------------------------------------
# fallbacks

FALLBACKS = """
e(a, 1). e(b, 2).
k(f(b), one). k(f(c), two). k(1, int). k(1.0, float).
k(g(a, a), any). k(g(a, b), other). k(f(1), f1).
r(X) :- e(X, _).
q(Y) :- r(Y).
:- table t(index, index).
t(In, Out) :- Out is In + 1.
:- table u/1.
u(f(1)).
"""


@pytest.fixture
def reached(monkeypatch):
    """Names of the Engine fallbacks that a solve has reached."""
    seen = set()
    for name in ("_rows", "_then"):
        real = getattr(Engine, name)

        def counted(*args, _real=real, _name=name):
            seen.add(_name)
            return _real(*args)
        monkeypatch.setattr(Engine, name, counted)
    return seen


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("query, answers, fallback", [
    # r's X holds q's Var: the fact goal unifies row by row
    ("?- q(Y).", [{"Y": "a"}, {"Y": "b"}], "_rows"),
    ("?- k(f(Z), V).", [{"Z": "b", "V": "one"}, {"Z": "c", "V": "two"},
                        {"Z": "1", "V": "f1"}], "_rows"),
    ("?- X = 3, X is 1 + 2.", [{"X": "3"}], "_then"),
    ("?- X = 4, X is 1 + 2.", [], "_then"),
    ("?- e(b, N), 2 is N.", [{"N": "2"}], "_then"),
])
def test_fallbacks(query, answers, fallback, strategy, reached):
    assert solve(FALLBACKS, query, strategy) == answers
    assert fallback in reached


# a compound read at entry (X) takes the run's general step, whose fact
# goal is _rows
COMPOUND_AT_ENTRY = ("?- X = f(c), k(X, V).", "?- X = g(a, W), k(X, V).",
                     "?- X = f(1.0), k(X, V).")


@pytest.mark.parametrize("strategy", BOTH)
@pytest.mark.parametrize("query, answers", [
    ("?- k(f(b), V).", [{"V": "one"}]),
    ("?- X = f(c), k(X, V).", [{"X": "f(c)", "V": "two"}]),
    # the row binds W, and the binding is undone for the next query row
    ("?- X = g(a, W), k(X, V).", [{"X": "g(a, a)", "W": "a", "V": "any"},
                                  {"X": "g(a, b)", "W": "b", "V": "other"}]),
    ("?- k(1, T).", [{"T": "int"}]),
    ("?- k(1.0, T).", [{"T": "float"}]),
    ("?- X is 2 - 1, k(X, T).", [{"X": "1", "T": "int"}]),
    ("?- X is 0.5 + 0.5, k(X, T).", [{"X": "1.0", "T": "float"}]),
    ("?- X is min(3, 2.0) + max(1, 1.0).", [{"X": "3.0"}]),
    ("?- X is max(1, 1.0), Y is min(1.0, 1).", [{"X": "1", "Y": "1.0"}]),
    ("?- e(A, N), N >= 2.", [{"A": "b", "N": "2"}]),
    # a compound matches as strictly as unify: f(1) is not f(1.0)
    ("?- k(f(1), V).", [{"V": "f1"}]),
    ("?- k(f(1.0), V).", []),
    ("?- X = f(1.0), k(X, V).", []),
    ("?- f(1) = f(1.0).", []),
    ("?- u(f(1)).", [{}]),
    ("?- u(f(1.0)).", []),
    ("?- X = f(1.0), u(X).", []),
])
def test_index_keys_and_arithmetic(query, answers, strategy, reached):
    assert solve(FALLBACKS, query, strategy) == answers
    assert ("_rows" in reached) == (query in COMPOUND_AT_ENTRY)


ERRORS = FALLBACKS + """
n(4). n(2).
:- table w/2.
w(X, Y) :- k(X, _), Z is Y + 1, Z > 0.
:- table v/2.
v(f(X), Y) :- e(X, _), Z is Y + 1, Z > 0.
"""

# the errors the generated steps raise themselves; the other rows reach
# the closures of a run's general step
GENERATED = ("?- n(Y), X is 6 / (Y - 2).", "?- n(Y), 1 < 6 / (Y - 2).")


@pytest.mark.parametrize("query, message", [
    ("?- n(Y), X is 6 / (Y - 2).", "division by zero"),
    ("?- n(Y), 1 < 6 / (Y - 2).", "division by zero"),
    ("?- t(A, B).", "unbound variable In in arithmetic"),
    ("?- q(Y), Z is Y + 1.", "not an arithmetic term: a"),
    # a compound read at entry (X) ...
    ("?- X = f(1), k(X, _), n(N), Z is 1 + 6 / (N - 2).",
     "division by zero"),
    ("?- w(f(1), Y).", "unbound variable Y in arithmetic"),
    ("?- X = f(1), k(X, _), e(A, _), Z is A + 1.",
     "not an arithmetic term: a"),
    # ... and a walk with bindings (q's Y; v's head binds the call's A)
    ("?- q(Y), n(N), Z is 1 + 6 / (N - 2).", "division by zero"),
    ("?- v(A, Y).", "unbound variable Y in arithmetic"),
    ("?- q(Y), e(A, _), 1 < A.", "not an arithmetic term: a"),
])
def test_arithmetic_errors(query, message, monkeypatch):
    # each error is raised at the same Stats when every run takes its
    # general step, the closures, as when the generated steps run
    seen = []
    for closures in (False, True):
        reached = []
        with monkeypatch.context() as m:
            value = engine_mod._value
            m.setattr(engine_mod, "_value",
                      lambda *args: reached.append(1) or value(*args))
            if closures:
                m.setattr(Engine, "_fused",
                          lambda self, ops, nxt, general: general)
            engine = Engine(parse_program(ERRORS))
            with pytest.raises(EvaluationError) as excinfo:
                engine.solve(query)
        seen.append((str(excinfo.value), engine.stats.as_dict(),
                     bool(reached)))
    assert seen[0][:2] == seen[1][:2]
    assert seen[0][0] == message
    assert seen[0][2] == (query not in GENERATED) and seen[1][2]


# ---------------------------------------------------------------------------
# program text reaches the generated function as data only

ATOMS = ("it's", 'say "hi"', "line\nbreak", '__import__("os")',
         "'); __import__('os').system('true'); ('")


def _quoted(atom):
    return "'%s'" % atom.replace("\\", "\\\\").replace("'", "\\'").replace(
        "\n", "\\n")


def test_program_text_stays_out_of_generated_source(monkeypatch):
    sources = []
    real = engine_mod._code

    def recorded(kind, source):
        code = real(kind, source)
        # the text, and the name it was compiled under
        sources.extend((source, code.co_filename))
        return code
    monkeypatch.setattr(engine_mod, "_code", recorded)
    facts = "".join("w(%s, %d).\n" % (_quoted(a), k)
                    for k, a in enumerate(ATOMS))
    text = facts + "v(X, K) :- w(%s, K), w(X, K), X = X.\n" % _quoted(ATOMS[3])
    program = parse_program(text)
    # a variable whose name no parser would take, for the error message
    odd = Var('__import__("os")\n\'')
    program.clauses.append(Clause(Struct("u", (odd,)),
                                  (Struct(">", (odd, 0)),)))
    program.declarations.append(Declaration("u", 1, None))
    engine = Engine(program)
    answers, _ = engine.solve("?- w(A, K), K >= 0, w(A, J), J =< K.")
    assert [a["A"] for a in answers] == list(ATOMS)
    answers, _ = engine.solve("?- v(X, K).")
    assert answers == [{"X": ATOMS[3], "K": 3}]
    # an atom in a comparison is reported as the program wrote it
    with pytest.raises(EvaluationError) as excinfo:
        engine.solve("?- w(A, 4), A > 1.")
    assert str(excinfo.value) == "not an arithmetic term: %s" % term_to_str(
        ATOMS[4])
    with pytest.raises(EvaluationError) as excinfo:
        engine.solve("?- u(X).")
    assert str(excinfo.value) == "unbound variable %s in arithmetic" % odd.name
    assert len(sources) >= 8
    for source in sources:
        for atom in ATOMS + (odd.name,):
            assert atom not in source
