"""Program representation and the parser for the input language.

The language is a small Prolog subset: facts, rules, table
declarations, queries, and arithmetic/comparison builtins. Atoms are
lowercase or quoted, variables start uppercase or with an underscore,
`%` starts a line comment, clauses end with a period.
"""

import operator
import re
import string
from itertools import islice

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
# Parser

# One findall splits a text into its tokens, as plain strings: blanks and
# comments are skipped, each newline is a token of its own, so is a
# character that starts no token (the parser reports it before any
# syntax error), and the end of the text reads as "". The token group
# always matches after the skip, so the skip never backtracks; its
# comment is written (?:...|) rather than (?:...)?, which matches the
# same text but runs about a fifth slower in findall.
_TOKEN_RE = re.compile(
    r"""[^\S\n]*(?:%[^\n]*|)
      ( [(),.]
      | [A-Za-z_][A-Za-z0-9_]*
      | \d+(?:\.\d+)?
      | \n
      | :-|\?-|=\\=|=:=|=<|>=|[+\-*/<>=]
      | '(?:[^'\\]|\\.)*'
      | .
      | \Z )
    """,
    re.VERBOSE,
)
_ONE_CHAR = frozenset("\n()+-*/,.<>=_" + string.ascii_letters + string.digits)
_PRIORITY = {"+": 1, "-": 1, "*": 2, "/": 2}
_PAREN = object()  # the functor of an open parenthesis
_UNESCAPE = {"n": "\n", "t": "\t"}


def _unquote(text):
    body = text[1:-1]
    if "\\" not in body:
        return body
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


class _Parser:
    """One pass over a text's tokens. tokens yields (index, token) and
    is shared by every method; line is the line of the last token taken
    from it."""

    def __init__(self, text):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.tokens = enumerate(self.toks)
        self.line = 1

    def fail(self, message, i):
        """Raise a ParseError at token i, or at the text's first bad
        character if it has one."""
        for k, tok in enumerate(self.toks):
            if len(tok) == 1 and tok not in _ONE_CHAR and not tok.isdecimal():
                message, i = "unexpected character %r" % tok, k
                break
        pos = next(islice(_TOKEN_RE.finditer(self.text), i, None)).start(1)
        raise ParseError(message, self.text.count("\n", 0, pos) + 1,
                         pos - self.text.rfind("\n", 0, pos))

    def take(self):
        """The index of the next token that is not a newline, and it."""
        for i, tok in self.tokens:
            if tok != "\n":
                return i, tok
            self.line += 1

    def expect(self, value):
        i, tok = self.take()
        if tok != value:
            self.fail("expected %r" % value, i)

    def atom(self):
        """The next token as an atom, its index and its line."""
        i, tok = self.take()
        line = self.line
        if tok[:1] == "'" and len(tok) > 1:
            self.line += tok.count("\n")
            tok = _unquote(tok)
        elif not "a" <= tok[:1] <= "z":
            self.fail("expected an atom", i)
        return tok, i, line

    def integer(self):
        i, tok = self.take()
        if not tok.isdecimal():
            self.fail("expected an integer", i)
        return int(tok)

    # -- programs ----------------------------------------------------

    def program(self):
        decls = []
        overrides = {}
        clauses = []
        i, tok = self.read(clauses)
        while tok:
            self.directive(i, decls, overrides)
            i, tok = self.read(clauses)
        return Program(decls, overrides, clauses)

    def directive(self, start, decls, overrides):
        word = self.atom()[0]
        if word == "table":
            decl = self.table_spec()
            for seen in decls:
                if (seen.name, seen.arity) == (decl.name, decl.arity):
                    self.fail("duplicate table declaration for %s/%d"
                              % (decl.name, decl.arity), start)
            decls.append(decl)
        elif word == "table_strategy":
            name = self.atom()[0]
            self.expect("/")
            arity = self.integer()
            self.expect(",")
            strat = self.atom()[0]
            if strat not in _STRATEGIES:
                self.fail("strategy must be local or batched", self.take()[0])
            overrides[(name, arity)] = strat
        else:
            self.fail("unknown directive %r" % word, start)
        self.expect(".")

    def table_spec(self):
        name, _, line = self.atom()
        i, tok = self.take()
        if tok == "/":
            return Declaration(name, self.integer(), None, line)
        if tok != "(":
            self.fail("expected '('", i)
        modes = []
        while tok != ")":
            word, i, _ = self.atom()
            if word not in MODES:
                self.fail("unknown mode %r" % word, i)
            modes.append(word)
            i, tok = self.take()
            if tok != "," and tok != ")":
                self.fail("expected ')'", i)
        return Declaration(name, len(modes), tuple(modes), line)

    def query(self):
        toks = self.toks
        k = 0
        while toks[k] == "\n":
            k += 1
        if toks[k] == "?-":
            self.take()
            k += 1
        while toks[k] == "\n":
            k += 1
        if not toks[k]:
            self.fail("empty query", k)
        goals, i, tok = self.read(None, k - 1)
        if tok == ".":
            i, tok = self.take()
        if tok:
            self.fail("unexpected text after query", i)
        return goals

    # -- terms -------------------------------------------------------

    def read(self, clauses, goal=-1):
        """Read clauses into the list clauses up to a directive or the
        end of the text, and return the index and token that stop it.
        With clauses None, read a query's goals, which start after
        token goal, instead and return them before the index and token
        that end them.

        One loop over an explicit stack of open compounds and
        parentheses, so any depth of nesting reads. It alternates
        between taking an operand and reading the token after one.
        """
        tokens = self.tokens
        take = tokens.__next__
        line = self.line
        start = -1  # the index of the clause's first token
        cline = line  # its line
        body = clauses is None  # whether goals are read, not a head
        names = {}  # the clause's variables by name
        stack = []
        fun = None  # the open compound's name, _PAREN, or None at the top
        args = []  # its arguments so far; at the top, the goals read
        ops = None  # its pending infix operators, as (left side, operator)
        compare = None  # the goal's comparison, as (left side, operator)
        # goal is the index of the token before the goal's first one
        for i, tok in tokens:
            if start < 0:
                start, cline = i, line
            c = tok[:1]
            if "a" <= c <= "z" or c == "'" and len(tok) > 1:
                if c == "'":
                    line += tok.count("\n")
                    tok = _unquote(tok)
                t = fn = tok
            elif "A" <= c <= "Z" or c == "_":
                fn = None
                if tok == "_":
                    t = Var("_")
                else:
                    t = names.get(tok)
                    if t is None:
                        t = names[tok] = Var(tok)
            elif c.isdecimal():
                fn = None
                t = float(tok) if "." in tok else int(tok)
            elif tok == "\n":
                line += 1
                if fun is None and not body:
                    start = -1
                continue
            elif tok == "(":
                stack.append((fun, args, ops))
                fun, args, ops = _PAREN, [], None
                continue
            elif tok == "-":
                i, tok = take()
                while tok == "\n":
                    line += 1
                    i, tok = take()
                if not tok[:1].isdecimal():
                    self.fail("unary minus applies to number literals only", i)
                fn = None
                t = -float(tok) if "." in tok else -int(tok)
            elif not body and fun is None and (tok == ":-" or not tok):
                self.line = line
                return i, tok
            else:
                self.fail("expected a term", i)
            # t is an operand: read what follows it
            for i, tok in tokens:
                if tok == "(" and fn is not None:
                    stack.append((fun, args, ops))
                    fun, args, ops = fn, [], None
                    break
                if tok == "\n":
                    line += 1
                    continue
                if tok in _PRIORITY and (fun is not None or body):
                    level = _PRIORITY[tok]
                    if ops is None:
                        ops = []
                    while ops and _PRIORITY[ops[-1][1]] >= level:
                        left, op = ops.pop()
                        t = Struct(op, (left, t))
                    ops.append((t, tok))
                    break
                while ops:
                    left, op = ops.pop()
                    t = Struct(op, (left, t))
                if fun is not None:
                    if tok == "," and fun is not _PAREN:
                        args.append(t)
                        break
                    if tok != ")":
                        self.fail("expected ')'", i)
                    if fun is not _PAREN:
                        args.append(t)
                        t = Struct(fun, args)
                    fun, args, ops = stack.pop()
                    fn = None
                    continue
                if not body:  # t is a clause head
                    if type(t) is not Struct and type(t) is not str:
                        self.fail("clause head must be an atom or a compound",
                                  start)
                    if tok == ":-":
                        head, body, goal = t, True, i
                        break
                    if tok != ".":
                        self.fail("expected '.'", i)
                    clauses.append(Clause(t, (), cline))
                    start, names = -1, {}
                    break
                if compare is not None:
                    t = Struct(compare[1], (compare[0], t))
                    compare = None
                elif tok in COMPARE or tok == "=":
                    compare = (t, tok)
                    break
                elif tok == "is" or tok[:1] == "'" and _unquote(tok) == "is":
                    compare = (t, "is")
                    break
                elif type(t) is not Struct and type(t) is not str:
                    goal += 1
                    while self.toks[goal] == "\n":
                        goal += 1
                    self.fail("goal is not callable", goal)
                args.append(t)
                if tok == ",":
                    goal = i
                    break
                if clauses is None:
                    self.line = line
                    return args, i, tok
                if tok != ".":
                    self.fail("expected '.'", i)
                clauses.append(Clause(head, args, cline))
                start, names, body, args = -1, {}, False, []
                break


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
