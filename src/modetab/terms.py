"""Logic terms and their flattened token form.

Atoms are plain Python strings, numbers are plain ints and floats; only
variables and compound terms get wrapper classes. Any argument vector can
be flattened into a token sequence in preorder, with variables numbered
by first occurrence. Two terms are variants exactly when their token
sequences are equal, and the sequence doubles as a trie path.

Tokens are ordinary hashable values: an atom is its string, an integer is
itself, and floats, variables and functors are small tagged tuples so
that 1, 1.0 and 'f' can never collide as dictionary keys.
"""

import re

from .errors import EvaluationError

FLT = "$flt"
VAR = "$var"
FUN = "$fun"

__all__ = [
    "Var",
    "Struct",
    "var_token",
    "fun_token",
    "is_var_token",
    "tokenize",
    "flatten_into",
    "variant",
    "compare_token_seqs",
    "compare_ground",
    "term_to_str",
    "deref",
    "resolve",
    "instantiate",
    "unify",
    "undo_trail",
]


class Var:
    """A logic variable. Identity is all that matters; the name is cosmetic."""

    __slots__ = ("name",)
    _counter = 0

    def __init__(self, name=None):
        if name is None:
            Var._counter += 1
            name = "_G%d" % Var._counter
        self.name = name

    def __repr__(self):
        return self.name


class Struct:
    """Compound term: a functor name applied to one or more arguments."""

    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)

    def __eq__(self, other):
        return (
            type(other) is Struct
            and self.name == other.name
            and self.args == other.args
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.name, self.args))

    def __repr__(self):
        return "%s(%s)" % (self.name, ", ".join(map(repr, self.args)))


# ---------------------------------------------------------------------------
# Tokens

_var_tokens = []
_fun_tokens = {}


def var_token(i):
    """The interned token for the i-th distinct variable of a sequence."""
    while len(_var_tokens) <= i:
        _var_tokens.append((VAR, len(_var_tokens)))
    return _var_tokens[i]


def fun_token(name, arity):
    """The interned token announcing a compound of the given functor."""
    tok = _fun_tokens.get((name, arity))
    if tok is None:
        tok = (FUN, name, arity)
        _fun_tokens[(name, arity)] = tok
    return tok


def is_var_token(tok):
    return type(tok) is tuple and tok[0] == VAR


def flatten_into(t, varmap, out):
    """Append the preorder tokens of one term to out, numbering fresh vars."""
    tt = type(t)
    if tt is Var:
        i = varmap.get(t)
        if i is None:
            i = len(varmap)
            varmap[t] = i
        out.append(var_token(i))
    elif tt is Struct:
        out.append(fun_token(t.name, len(t.args)))
        for a in t.args:
            flatten_into(a, varmap, out)
    elif tt is float:
        out.append((FLT, t))
    else:
        out.append(t)  # str atom or int


def tokenize(args, varmap=None, counts=None):
    """Flatten an argument vector into one token list, preorder.

    varmap maps each unbound Var to its ordinal, assigned at first
    occurrence; pass a shared dict to number variables consistently
    across several vectors. When counts is a list, the number of fresh
    variables each argument contributed is appended to it.
    """
    if varmap is None:
        varmap = {}
    out = []
    for a in args:
        before = len(varmap)
        flatten_into(a, varmap, out)
        if counts is not None:
            counts.append(len(varmap) - before)
    return out


def variant(a, b):
    """True when two terms are identical up to consistent variable renaming."""
    return tokenize([a]) == tokenize([b])


# ---------------------------------------------------------------------------
# Ground-term order: numbers (by value), then atoms, then compounds.

def _token_key(tok):
    tt = type(tok)
    if tt is int:
        return (1, tok)
    if tt is str:
        return (2, tok)
    tag = tok[0]
    if tag == FLT:
        return (1, tok[1])
    if tag == FUN:
        return (3, tok[2], tok[1])
    raise EvaluationError("cannot order a term containing unbound variables")


def compare_token_seqs(a, b):
    """Order two token runs of complete terms; returns -1, 0 or 1.

    Integer and float tokens of equal numeric value compare equal here
    even though they are distinct tokens.
    """
    for x, y in zip(a, b):
        if x == y:
            continue
        kx = _token_key(x)
        ky = _token_key(y)
        if kx < ky:
            return -1
        if kx > ky:
            return 1
    if len(a) != len(b):  # complete terms are prefix-free; guard anyway
        return -1 if len(a) < len(b) else 1
    return 0


def compare_ground(a, b):
    """Total order on ground terms; raises EvaluationError on open terms."""
    sa = tokenize([a])
    sb = tokenize([b])
    for tok in sa:
        if is_var_token(tok):
            raise EvaluationError("compare_ground: left term is not ground")
    for tok in sb:
        if is_var_token(tok):
            raise EvaluationError("compare_ground: right term is not ground")
    return compare_token_seqs(sa, sb)


# ---------------------------------------------------------------------------
# Printing

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_INFIX = ("+", "-", "*", "/")


def _atom_str(name):
    if _ATOM_RE.match(name):
        return name
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def _leaf_str(t):
    tt = type(t)
    if tt is Var:
        return t.name
    if tt is str:
        return _atom_str(t)
    if tt is int:
        return str(t)
    return repr(t)


def term_to_str(t):
    """Print a term; iterative, so any depth of nesting prints."""
    if type(t) is not Struct:
        return _leaf_str(t)
    out = []
    stack = [t]  # pending output: printed text, or a Struct to expand
    while stack:
        t = stack.pop()
        if type(t) is not Struct:
            out.append(t)
            continue
        args = [a if type(a) is Struct else _leaf_str(a) for a in t.args]
        if t.name in _INFIX and len(args) == 2:
            out.append("(")
            stack += (")", args[1], " %s " % t.name, args[0])
        else:
            out.append(_atom_str(t.name) + "(")
            stack.append(")")
            for i in range(len(args) - 1, 0, -1):
                stack += (args[i], ", ")
            stack.extend(args[:1])
    return "".join(out)


# ---------------------------------------------------------------------------
# Bindings: per-walk environment dicts with an undo trail.

def deref(t, env):
    while type(t) is Var:
        b = env.get(t)
        if b is None:
            return t
        t = b
    return t


def resolve(t, env):
    """Deep-substitute bindings; unbound variables stay as they are."""
    t = deref(t, env)
    if type(t) is Struct:
        changed = False
        new = []
        for a in t.args:
            r = resolve(a, env)
            if r is not a:
                changed = True
            new.append(r)
        if changed:
            return Struct(t.name, new)
    return t


def instantiate(t, mapping):
    """Copy a term, replacing its variables via mapping."""
    tt = type(t)
    if tt is Var:
        return mapping.get(t, t)
    if tt is Struct:
        return Struct(t.name, tuple(instantiate(a, mapping) for a in t.args))
    return t


def unify(a, b, env, trail):
    while type(a) is Var:
        n = env.get(a)
        if n is None:
            break
        a = n
    while type(b) is Var:
        n = env.get(b)
        if n is None:
            break
        b = n
    if a is b:
        return True
    ta = type(a)
    if ta is Var:
        env[a] = b
        trail.append(a)
        return True
    tb = type(b)
    if tb is Var:
        env[b] = a
        trail.append(b)
        return True
    if ta is Struct:
        if tb is not Struct or a.name != b.name:
            return False
        aargs = a.args
        bargs = b.args
        if len(aargs) != len(bargs):
            return False
        for x, y in zip(aargs, bargs):
            if not unify(x, y, env, trail):
                return False
        return True
    # 1 and 1.0 unify with themselves only; mixed numeric types stay apart
    return ta is tb and a == b


def undo_trail(env, trail, mark):
    while len(trail) > mark:
        del env[trail.pop()]
