"""Program representation and the parser for the input language.

The language is a small Prolog subset: facts, rules, table
declarations, queries, and arithmetic/comparison builtins. Atoms are
lowercase or quoted, variables start uppercase or with an underscore,
`%` starts a line comment, clauses end with a period.
"""

import operator
import re

from .errors import EvaluationError, ModeError, ParseError
from .modes import MODES, compile_declaration
from .terms import Struct, Var, deref, term_to_str, unify

__all__ = [
    "Clause",
    "Declaration",
    "Program",
    "fact_key",
    "parse_program",
    "parse_query",
    "validate",
    "goal_to_str",
    "decompose_goal",
    "is_builtin",
    "eval_builtin",
    "eval_arith",
]

# the comparison builtins, shared by eval_builtin and the engine's
# compiled comparisons
COMPARE = {
    "=:=": operator.eq,
    "=\\=": operator.ne,
    "=<": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}
_BUILTINS = frozenset((name, 2) for name in tuple(COMPARE) + ("is", "="))
_STRATEGIES = ("local", "batched")


class Clause:
    __slots__ = ("head", "body", "line")

    def __init__(self, head, body=(), line=None):
        self.head = head
        self.body = tuple(body)
        self.line = line

    def functor(self):
        if type(self.head) is Struct:
            return self.head.name, len(self.head.args)
        return self.head, 0

    def __repr__(self):
        return "Clause(%s)" % clause_to_text(self)


class Declaration:
    """One `:- table ...` directive; modes is None for traditional tabling."""

    __slots__ = ("name", "arity", "modes", "line")

    def __init__(self, name, arity, modes, line=None):
        self.name = name
        self.arity = arity
        self.modes = modes
        self.line = line

    def __repr__(self):
        if self.modes is None:
            return "Declaration(%s/%d)" % (self.name, self.arity)
        return "Declaration(%s(%s))" % (self.name, ",".join(self.modes))


class Program:
    __slots__ = ("declarations", "strategy_overrides", "clauses", "_by_pred",
                 "_facts")

    def __init__(self, declarations=(), strategy_overrides=None, clauses=()):
        self.declarations = list(declarations)
        self.strategy_overrides = dict(strategy_overrides or {})
        self.clauses = list(clauses)
        self._by_pred = None
        self._facts = {}

    def table_modes(self, name, arity):
        """Declared modes for a tabled predicate: a tuple, or None for
        traditional tabling. Raises KeyError when the predicate is not
        tabled at all."""
        for d in self.declarations:
            if d.name == name and d.arity == arity:
                return d.modes
        raise KeyError((name, arity))

    def is_tabled(self, name, arity):
        return any(d.name == name and d.arity == arity for d in self.declarations)

    def clauses_for(self, name, arity):
        if self._by_pred is None:
            index = {}
            for c in self.clauses:
                index.setdefault(c.functor(), []).append(c)
            self._by_pred = index
        return self._by_pred.get((name, arity), ())

    def predicates(self):
        return {c.functor() for c in self.clauses}

    def facts(self, name, arity):
        """For a predicate made of ground facts only, its argument rows
        and an index of them by fact_key of the first argument; else None.
        """
        key = (name, arity)
        if key not in self._facts:
            rows = []
            for c in self.clauses_for(name, arity):
                args = c.head.args if type(c.head) is Struct else ()
                if c.body or not arity or not _ground(args):
                    rows = None
                    break
                rows.append(args)
            index = {}
            for args in rows or ():
                index.setdefault(fact_key(args[0]), []).append(args)
            self._facts[key] = (rows, index) if rows else None
        return self._facts[key]


def fact_key(t):
    """A first-argument index key, as strict about types as unification:
    1 and 1.0 get different keys, compounds are keyed by functor."""
    tt = type(t)
    if tt is str or tt is int:
        return t
    if tt is Struct:
        return ("s", t.name, len(t.args))
    if tt is float:
        return ("f", t)
    return None


def _ground(args):
    stack = list(args)
    while stack:
        t = stack.pop()
        if type(t) is Var:
            return False
        if type(t) is Struct:
            stack.extend(t.args)
    return True


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<float>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<qatom>'(?:[^'\\]|\\.)*')
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<atom>[a-z][A-Za-z0-9_]*)
      | (?P<punct>:-|\?-|=\\=|=:=|=<|>=|[()+\-*/,.<>=])
    """,
    re.VERBOSE,
)

_UNESCAPE = {"n": "\n", "t": "\t"}


def _unquote(text):
    body = text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append(_UNESCAPE.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _lex(text):
    tokens = []
    pos = 0
    line = 1
    bol = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                "unexpected character %r" % text[pos], line, pos - bol + 1
            )
        kind = m.lastgroup
        value = m.group()
        col = pos - bol + 1
        if kind == "int":
            tokens.append(("num", int(value), line, col))
        elif kind == "float":
            tokens.append(("num", float(value), line, col))
        elif kind == "qatom":
            tokens.append(("atom", _unquote(value), line, col))
        elif kind in ("atom", "var", "punct"):
            tokens.append((kind, value, line, col))
        # whitespace and comments are skipped, but track line numbers
        newlines = value.count("\n")
        if newlines:
            line += newlines
            bol = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", None, line, pos - bol + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0
        self.vars = {}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def at_punct(self, value):
        tok = self.tokens[self.pos]
        return tok[1] == value and tok[0] == "punct"

    def at_infix(self, ops):
        """Whether the next token is one of the one-character operators."""
        tok = self.tokens[self.pos]
        return tok[0] == "punct" and len(tok[1]) == 1 and tok[1] in ops

    def expect_punct(self, value):
        if not self.at_punct(value):
            self.fail("expected %r" % value)
        return self.next()

    def expect_atom(self):
        if self.peek()[0] != "atom":
            self.fail("expected an atom")
        return self.next()[1]

    # -- programs ----------------------------------------------------

    def program(self):
        decls = []
        overrides = {}
        clauses = []
        while self.peek()[0] != "eof":
            if self.at_punct(":-"):
                self.directive(decls, overrides)
            else:
                clauses.append(self.clause())
        return Program(decls, overrides, clauses)

    def directive(self, decls, overrides):
        tok = self.expect_punct(":-")
        word = self.expect_atom()
        if word == "table":
            decl = self.table_spec()
            for seen in decls:
                if (seen.name, seen.arity) == (decl.name, decl.arity):
                    self.fail(
                        "duplicate table declaration for %s/%d"
                        % (decl.name, decl.arity),
                        tok,
                    )
            decls.append(decl)
        elif word == "table_strategy":
            name = self.expect_atom()
            self.expect_punct("/")
            arity = self.integer()
            self.expect_punct(",")
            strat = self.expect_atom()
            if strat not in _STRATEGIES:
                self.fail("strategy must be local or batched")
            overrides[(name, arity)] = strat
        else:
            self.fail("unknown directive %r" % word, tok)
        self.expect_punct(".")

    def table_spec(self):
        tok = self.peek()
        name = self.expect_atom()
        if self.at_punct("/"):
            self.next()
            arity = self.integer()
            return Declaration(name, arity, None, tok[2])
        self.expect_punct("(")
        modes = [self.mode_atom()]
        while self.at_punct(","):
            self.next()
            modes.append(self.mode_atom())
        self.expect_punct(")")
        return Declaration(name, len(modes), tuple(modes), tok[2])

    def mode_atom(self):
        tok = self.peek()
        word = self.expect_atom()
        if word not in MODES:
            self.fail("unknown mode %r" % word, tok)
        return word

    def integer(self):
        kind, value, _, _ = self.peek()
        if kind != "num" or type(value) is not int:
            self.fail("expected an integer")
        return self.next()[1]

    def clause(self):
        self.vars = {}
        tok = self.peek()
        head = self.primary()
        if type(head) is not Struct and type(head) is not str:
            self.fail("clause head must be an atom or a compound", tok)
        body = []
        if self.at_punct(":-"):
            self.next()
            body = self.body()
        self.expect_punct(".")
        return Clause(head, body, tok[2])

    def body(self):
        goals = [self.goal()]
        while self.at_punct(","):
            self.next()
            goals.append(self.goal())
        return goals

    def query(self):
        if self.at_punct("?-"):
            self.next()
        self.vars = {}
        if self.peek()[0] == "eof":
            self.fail("empty query")
        goals = self.body()
        if self.at_punct("."):
            self.next()
        if self.peek()[0] != "eof":
            self.fail("unexpected text after query")
        return goals

    # -- terms -------------------------------------------------------

    def goal(self):
        tok = self.peek()
        left = self.additive()
        kind, val, _, _ = self.peek()
        if kind == "punct" and (val in COMPARE or val == "="):
            op = self.next()[1]
            return Struct(op, [left, self.additive()])
        if kind == "atom" and val == "is":
            self.next()
            return Struct("is", [left, self.additive()])
        if type(left) is not Struct and type(left) is not str:
            self.fail("goal is not callable", tok)
        return left

    def additive(self):
        t = self.multiplicative()
        while self.at_infix("+-"):
            op = self.next()[1]
            t = Struct(op, [t, self.multiplicative()])
        return t

    def multiplicative(self):
        t = self.primary()
        while self.at_infix("*/"):
            op = self.next()[1]
            t = Struct(op, [t, self.primary()])
        return t

    def primary(self):
        kind, value, line, col = self.peek()
        if kind == "num":
            self.next()
            return value
        if kind == "punct" and value == "-":
            self.next()
            if self.peek()[0] != "num":
                self.fail("unary minus applies to number literals only")
            return -self.next()[1]
        if kind == "punct" and value == "(":
            self.next()
            t = self.additive()
            self.expect_punct(")")
            return t
        if kind == "var":
            self.next()
            if value == "_":
                return Var("_")
            var = self.vars.get(value)
            if var is None:
                var = self.vars[value] = Var(value)
            return var
        if kind == "atom":
            self.next()
            if not self.at_punct("("):
                return value
            self.next()
            args = [self.additive()]
            while self.at_punct(","):
                self.next()
                args.append(self.additive())
            self.expect_punct(")")
            return Struct(value, args)
        self.fail("expected a term")


def parse_program(text):
    return _Parser(text).program()


def parse_query(text):
    return _Parser(text).query()


# ---------------------------------------------------------------------------
# Printing

def goal_to_str(g):
    if type(g) is Struct and len(g.args) == 2 and (
        g.name in COMPARE or g.name in ("is", "=")
    ):
        return "%s %s %s" % (term_to_str(g.args[0]), g.name, term_to_str(g.args[1]))
    return term_to_str(g)


def clause_to_text(clause):
    head = term_to_str(clause.head)
    if not clause.body:
        return "%s." % head
    return "%s :- %s." % (head, ", ".join(goal_to_str(g) for g in clause.body))


# ---------------------------------------------------------------------------
# Static checks

def validate(program):
    """Return a list of 'error: ...' / 'warning: ...' diagnostic strings."""
    out = []
    defined = program.predicates()
    for d in program.declarations:
        if d.modes is not None:
            try:
                compile_declaration(d.name, d.arity, list(d.modes))
            except ModeError as exc:
                out.append("error: %s" % exc)
        if (d.name, d.arity) not in defined:
            out.append(
                "warning: tabled predicate %s/%d has no clauses" % (d.name, d.arity)
            )
    for name, arity in program.strategy_overrides:
        if not program.is_tabled(name, arity):
            out.append(
                "warning: table_strategy for %s/%d has no effect: it has no"
                " table declaration" % (name, arity)
            )
    calls = {}  # predicate -> the predicates its clauses call
    for c in program.clauses:
        name, arity = c.functor()
        if is_builtin(name, arity):
            out.append(
                "error: clause for builtin %s/%d on line %s" % (name, arity, c.line)
            )
        for g in c.body:
            gname, gargs = _functor_of(g)
            key = (gname, len(gargs))
            calls.setdefault((name, arity), set()).add(key)
            if is_builtin(*key) or key in defined or program.is_tabled(*key):
                continue
            out.append(
                "error: unknown predicate %s/%d called on line %s"
                % (gname, len(gargs), c.line)
            )
    for d in program.declarations:
        # a sum counts every delivery, and a call inside its own
        # component is delivered answers before they are final
        todo = [(d.name, d.arity)] if d.modes and "sum" in d.modes else []
        seen = set()
        while todo:
            for key in calls.get(todo.pop(), set()) - seen:
                seen.add(key)
                todo.append(key)
        if (d.name, d.arity) in seen:
            out.append(
                "warning: sum-moded %s/%d can call itself, so its total may"
                " count transient answers under either strategy"
                % (d.name, d.arity)
            )
    return out


def _functor_of(g):
    if type(g) is Struct:
        return g.name, g.args
    return g, ()


# ---------------------------------------------------------------------------
# Builtins

def is_builtin(name, arity):
    return (name, arity) in _BUILTINS


def decompose_goal(goal, env):
    goal = deref(goal, env)
    tg = type(goal)
    if tg is Struct:
        return goal.name, goal.args
    if tg is str:
        return goal, ()
    if tg is Var:
        raise EvaluationError("unbound variable used as a goal")
    raise EvaluationError("goal is not callable: %s" % term_to_str(goal))


ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "min": min,
    "max": max,
}


def eval_arith(t, env):
    t = deref(t, env)
    tt = type(t)
    if tt is int or tt is float:
        return t
    if tt is Var:
        raise EvaluationError("unbound variable %s in arithmetic" % t.name)
    if tt is Struct and len(t.args) == 2:
        op = ARITH_OPS.get(t.name)
        if op is not None:
            x = eval_arith(t.args[0], env)
            y = eval_arith(t.args[1], env)
            try:
                return op(x, y)
            except ZeroDivisionError:
                raise EvaluationError("division by zero") from None
    raise EvaluationError("not an arithmetic term: %s" % term_to_str(t))


def eval_builtin(name, args, env, trail):
    """Run one builtin goal; returns success, binding through the trail."""
    if name == "is":
        return unify(args[0], eval_arith(args[1], env), env, trail)
    if name == "=":
        return unify(args[0], args[1], env, trail)
    return COMPARE[name](eval_arith(args[0], env), eval_arith(args[1], env))
