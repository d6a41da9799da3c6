"""Logic terms, their preorder tokens and their keys.

Atoms are plain Python strings, numbers are plain ints and floats; only
variables and compound terms get wrapper classes. A term flattens into
its tokens in preorder, with variables numbered by first occurrence.
Tokens are ordinary hashable values: an atom is its string, an integer is
itself, and floats, variables and functors are small tagged tuples so
that 1, 1.0 and 'f' can never collide as dictionary keys.

term_keys gives a term vector one key per term: an atom or an integer is
its own key, a float v is (FLT, v), a variable its var token and a
compound the tuple of its preorder tokens, with variables numbered
across the vector. Two vectors are variants exactly when their keys are
equal: as a tuple they key a call table, and they are the path of an
answer in an answer trie.
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
    "flatten_into",
    "term_keys",
    "variant",
    "compare_token_seqs",
    "term_to_str",
    "deref",
    "resolve",
    "cyclic_binding",
    "instantiate",
    "unify",
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
        # as strict as unify, so f(1) and f(1.0) differ; iterative
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if type(a) is not type(b):
                return False
            if type(a) is Struct:
                if a.name != b.name or len(a.args) != len(b.args):
                    return False
                pairs += zip(a.args, b.args)
            elif a is not b and a != b:
                return False
        return True

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


def term_keys(terms, varmap=None, counts=None):
    """A term vector's keys, as the module docstring says. varmap maps
    each unbound Var to its ordinal, assigned at first occurrence; pass
    a dict to read it or to go on numbering. When counts is a list, the
    number of fresh variables each term holds is appended to it."""
    if varmap is None:
        varmap = {}
    keys = []
    for t in terms:
        before = len(varmap)
        if type(t) is Struct:
            tokens = []
            flatten_into(t, varmap, tokens)
            keys.append(tuple(tokens))
        else:
            flatten_into(t, varmap, keys)
        if counts is not None:
            counts.append(len(varmap) - before)
    return keys


def variant(a, b):
    """True when two terms are identical up to consistent variable renaming."""
    return term_keys([a]) == term_keys([b])


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


# ---------------------------------------------------------------------------
# Printing

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_INFIX = ("+", "-", "*", "/")


def _atom_str(name):
    if _ATOM_RE.match(name):
        return name
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def _leaf_str(t, names=None):
    tt = type(t)
    if tt is Var:
        if names is None:
            return t.name
        name = names.get(t)
        if name is None:
            name = names[t] = "_G%d" % (len(names) + 1)
        return name
    if tt is str:
        return _atom_str(t)
    if tt is int:
        return str(t)
    return repr(t)


def term_to_str(t, names=None):
    """Print a term; iterative, so any depth of nesting prints.

    A variable prints by its name, or, given a dict names, as _G1, _G2,
    ... numbered at first occurrence; names carries the numbering on to
    the next call, so distinct variables of several terms print apart.
    """
    if type(t) is not Struct:
        return _leaf_str(t, names)
    out = []
    # pending output: printed text, or a Struct to expand or a Var to
    # name, left as they are so variables are named in print order
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
            continue
        if type(t) is Var:
            out.append(_leaf_str(t, names))
            continue
        args = [a if type(a) is Struct or type(a) is Var else _leaf_str(a)
                for a in t.args]
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


def cyclic_binding(env):
    """A variable that occurs in its own binding, directly or through
    other bound variables, or None. unify has no occurs check, so such
    a binding is possible, and resolve never returns on it."""
    done = set()  # bound variables known to lie on no cycle
    for root in env:
        if root in done:
            continue
        on_path = {root}
        work = [(root, [env[root]])]  # (variable, terms left to scan)
        while work:
            v, todo = work[-1]
            if not todo:
                work.pop()
                on_path.discard(v)
                done.add(v)
                continue
            t = todo.pop()
            if type(t) is Struct:
                todo.extend(t.args)
            elif type(t) is Var and t in env and t not in done:
                if t in on_path:
                    return t
                on_path.add(t)
                work.append((t, [env[t]]))
    return None


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
