"""Mode declarations and the answer-insertion policy they drive.

A declaration like p(all, index, min) is compiled into a mode array that
reorders the arguments into fixed groups: index first, then min/max,
then all, then the single sum-or-last argument, then first. Answers are
stored in that order, which keeps every aggregation decision local to a
subtree of the answer trie: replacing a beaten value only ever touches
nodes at or below the point where the comparison happened.

insert_answer walks the answer trie segment by segment. All reads needed
for a rejection happen before any mutation, so a rejected candidate
leaves the table untouched.
"""

from .errors import EvaluationError, ModeError
from .terms import (
    FLT,
    FUN,
    compare_token_seqs,
    flatten_into,
    is_var_token,
)
from .tries import AnswerLeaf, grow_answer, invalidate_branch

MODES = ("index", "first", "last", "min", "max", "sum", "all")

_GROUP = {"index": 0, "min": 1, "max": 1, "all": 2, "sum": 3, "last": 3, "first": 4}

# insert_answer outcome kinds
NEW = "new"
ADDED = "added"
REPLACED = "replaced"
REJECTED = "rejected"
SUM_UPDATED = "sum_updated"

__all__ = [
    "MODES",
    "NEW",
    "ADDED",
    "REPLACED",
    "REJECTED",
    "SUM_UPDATED",
    "InsertOutcome",
    "compile_declaration",
    "traditional_modes",
    "build_segments",
    "insert_answer",
]


class InsertOutcome:
    __slots__ = ("kind", "leaf", "invalidated", "total")

    def __init__(self, kind, leaf=None, invalidated=0, total=None):
        self.kind = kind
        self.leaf = leaf
        self.invalidated = invalidated
        self.total = total

    def __repr__(self):
        return "InsertOutcome(%s, invalidated=%d)" % (self.kind, self.invalidated)


# rejections carry nothing, so they share one outcome
_REJECT = InsertOutcome(REJECTED)


def compile_declaration(name, arity, modes):
    """Reorder declared modes into the fixed group order.

    Returns a tuple of (1-based argument position, mode). The sort is
    stable, so arguments keep their source order within a group.
    """
    if len(modes) != arity:
        raise ModeError(
            "%s/%d declared with %d modes" % (name, arity, len(modes))
        )
    for m in modes:
        if m not in MODES:
            raise ModeError("%s/%d: unknown mode %r" % (name, arity, m))
    singles = sum(1 for m in modes if m in ("sum", "last"))
    if singles > 1:
        raise ModeError(
            "%s/%d: only one argument may use sum or last" % (name, arity)
        )
    entries = [(pos, m) for pos, m in enumerate(modes, start=1)]
    entries.sort(key=lambda e: _GROUP[e[1]])
    return tuple(entries)


def traditional_modes(arity):
    """The mode array of a predicate tabled without modes: all index."""
    return tuple((pos, "index") for pos in range(1, arity + 1))


def build_segments(subst_modes):
    """Compile a substitution array into the insertion walk plan.

    Zero-variable entries are dropped (a bound argument stores nothing)
    and adjacent index/all/first entries merge, which is behaviour
    preserving for those modes. Aggregating entries stay separate: each
    min/max argument is its own decision, applied left to right. Yields
    (mode, first_ordinal, last_ordinal_exclusive, arg_position).
    """
    segments = []
    ordinal = 0
    for mode, n, pos in subst_modes:
        if n == 0:
            continue
        if segments and mode in ("index", "all", "first") and segments[-1][0] == mode:
            prev = segments[-1]
            segments[-1] = (mode, prev[1], ordinal + n, prev[3])
        else:
            segments.append((mode, ordinal, ordinal + n, pos))
        ordinal += n
    return tuple(segments)


def _numeric(frame, tok, pos):
    if type(tok) is int:
        return tok
    if type(tok) is tuple and tok[0] == FLT:
        return tok[1]
    raise EvaluationError(
        "%s: argument %d under sum needs a number" % (frame.name(), pos)
    )


# walk step codes; index and all are below 2, min and max below 4
_CODES = {"index": 0, "all": 1, "min": 2, "max": 3, "first": 4, "last": 5, "sum": 6}


def _steps(segments, offsets):
    """Segments as walk steps (code, first_token, end_token, lo, hi, pos)."""
    return tuple(
        (_CODES[mode], offsets[lo], offsets[hi], lo, hi, pos)
        for mode, lo, hi, pos in segments
    )


def _sum_value(frame, segments, steps, tokens, open_terms):
    """Validate the aggregating arguments; returns the sum contribution.

    This runs before the walk: a divergence in an earlier segment grows
    the rest of the path without revisiting the deeper segments, so
    their checks cannot wait until the walk reaches them.
    """
    value = None
    for (mode, _, _, pos), (code, t0, t1, lo, hi, _) in zip(segments, steps):
        if code < 2:
            continue
        if open_terms and any(map(is_var_token, tokens[t0:t1])):
            raise EvaluationError(
                "%s: argument %d under %s needs a ground value"
                % (frame.name(), pos, mode)
            )
        if code == 6:
            if hi - lo != 1 or t1 - t0 != 1:
                raise EvaluationError(
                    "%s: argument %d under sum must be a single number"
                    % (frame.name(), pos)
                )
            value = _numeric(frame, tokens[t0], pos)
    return value


def insert_answer(frame, subst_terms):
    """Insert one candidate answer, already resolved, into a frame's trie.

    subst_terms holds the binding of each free call variable, listed in
    the order the variables appeared in the reordered call. Atoms and
    integers are their own tokens, so for answers made of them the walk
    plan compiled with the frame applies as it is; other answers are
    flattened and the plan is moved to their token offsets.
    """
    plan = frame.segments
    if plan is None:
        segments = build_segments(frame.subst_modes)
        n = segments[-1][2] if segments else 0
        plan = frame.segments = (
            segments,
            _steps(segments, range(n + 1)),
            any(seg[0] == "sum" for seg in segments),
        )
    segments, steps, has_sum = plan
    if not segments:
        # Fully bound call: the only possible answer is "yes".
        if frame.first_answer is not None:
            return _REJECT
        return InsertOutcome(NEW, grow_answer(frame, None, (), 0, ()))

    tokens = subst_terms
    varmap = None
    for t in subst_terms:
        tt = type(t)
        if tt is not str and tt is not int:
            varmap = {}
            tokens = []
            offsets = [0]
            for t in subst_terms:
                flatten_into(t, varmap, tokens)
                offsets.append(len(tokens))
            steps = _steps(segments, offsets)
            break
    sum_value = None
    if varmap or has_sum:
        sum_value = _sum_value(frame, segments, steps, tokens, varmap)

    node = frame.root
    for code, t0, t1, lo, hi, pos in steps:
        if code < 2:  # index, all: follow the path, grow where it ends
            while t0 < t1:
                child = node.children.get(tokens[t0])
                if child is None:
                    kind = ADDED if code and node.children else NEW
                    leaf = grow_answer(frame, node, tokens, t0, tuple(subst_terms))
                    return InsertOutcome(kind, leaf, 0, sum_value)
                node = child
                t0 += 1
            continue

        children = node.children
        if not children:
            leaf = grow_answer(frame, node, tokens, t0, tuple(subst_terms))
            return InsertOutcome(NEW, leaf, 0, sum_value)

        if code < 4:  # min, max: compare with the one live witness
            snode = next(iter(children.values()))
            stok = snode.token
            if t1 - t0 == 1 and not (type(stok) is tuple and stok[0] == FUN):
                # single flat token on both sides, the usual case
                ctok = tokens[t0]
                if ctok == stok:
                    node = snode
                    continue
                if type(ctok) is int and type(stok) is int:
                    better = ctok < stok if code == 2 else ctok > stok
                else:
                    c = compare_token_seqs((ctok,), (stok,))
                    better = c == (-1 if code == 2 else 1)
            else:
                # Read the stored witness: walk the (single) live branch
                # until as many complete terms as this segment holds are
                # spelled out.
                stored = [stok]
                pending = hi - lo - 1
                if type(stok) is tuple and stok[0] == FUN:
                    pending += stok[2]
                while pending:
                    snode = next(iter(snode.children.values()))
                    tok = snode.token
                    stored.append(tok)
                    pending -= 1
                    if type(tok) is tuple and tok[0] == FUN:
                        pending += tok[2]
                cand = list(tokens[t0:t1])
                if cand == stored:
                    node = snode
                    continue
                better = compare_token_seqs(cand, stored) == (-1 if code == 2 else 1)
            if not better:
                # Worse, or numerically tied with a differently typed
                # value: the stored witness stays.
                return _REJECT
            kind = REPLACED
            terms = tuple(subst_terms)
        elif code == 4:  # first: keep whatever arrived first
            return _REJECT
        elif code == 5:  # last
            kind = REPLACED
            terms = tuple(subst_terms)
        else:  # sum
            total = _numeric(frame, next(iter(children)), pos) + sum_value
            tok = (FLT, total) if type(total) is float else total
            tokens = [*tokens[:t0], tok, *tokens[t1:]]
            kind = SUM_UPDATED
            terms = (*subst_terms[:lo], total, *subst_terms[hi:])
            sum_value = total
        dropped = 0
        for child in list(children.values()):
            dropped += invalidate_branch(frame, child)
        leaf = grow_answer(frame, node, tokens, t0, terms)
        return InsertOutcome(kind, leaf, dropped, sum_value)

    # Every segment matched an existing path: exact duplicate.
    assert not tokens or type(node) is AnswerLeaf
    return _REJECT
