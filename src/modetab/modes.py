"""Mode declarations and the answer-insertion policy they drive.

A declaration like p(all, index, min) is compiled into a mode array that
reorders the arguments into fixed groups: index first, then min/max,
then all, then the single sum-or-last argument, then first. Answers are
stored in that order, which keeps every aggregation decision local to a
subtree of the answer trie: replacing a beaten value only ever touches
nodes at or below the point where the comparison happened.

An answer is keyed one trie key per term, as terms.term_keys keys a
call's arguments (answer_keys), and the keys of its index terms begin
its trie path. Where every later segment of the plan keeps one answer per
index key (min, max, first, last or sum, over any number of ordinals,
with no all segment), that is its whole path: the last index key maps
straight to the answer's record, whose terms hold the stored values
(leaf_depth). A min/max witness and a sum's running total are read from
the record, and a replacement tags the record invalid, counts it, and
stores the new one under the same key. A plan with an all segment, or
with no index ordinal, keeps one trie level per answer term instead,
reads a stored value as its node's one key, and replaces by popping the
branches below the node where the decision fell (tries.drop_below).

insert_answer walks the keys segment by segment and reads a stored
min/max witness in full before comparing it with beats. All reads
needed for a rejection happen before any mutation, so a rejected
candidate leaves the table untouched. It is the general path: the
engine's generated puts store an answer made of atoms and numbers in
the same layout themselves, sharing beats and tries.drop_below, and hand
every other answer (compounds, variables, or a min, max or sum over more
than one term) to insert_answer before changing anything.
"""

import functools

from .errors import EvaluationError, ModeError, ModetabError
from .terms import FLT, compare_token_seqs, is_var_token, term_keys
from .tries import AnswerLeaf, drop_below, grow_answer

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
    "answer_keys",
    "leaf_depth",
    "beats",
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


@functools.lru_cache(maxsize=1024)
def build_segments(subst_modes):
    """Compile a substitution array into the insertion walk plan.

    Zero-variable entries are dropped (a bound argument stores nothing)
    and adjacent index/all/first entries merge, which is behaviour
    preserving for those modes. Aggregating entries stay separate: each
    min/max argument is its own decision, applied left to right. Yields
    (mode, first_ordinal, last_ordinal_exclusive, arg_position). The
    plan is cached per substitution array, so frames of one shape share
    one tuple.
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


def _tokens(keys):
    """The preorder tokens of the terms that keys hold, in order."""
    out = []
    for key in keys:
        if type(key) is tuple and type(key[0]) is tuple:  # a compound
            out += key
        else:
            out.append(key)
    return out


def answer_keys(frame, segments, subst_terms):
    """An answer's trie keys, one per ordinal as terms.term_keys makes
    them, and its sum contribution.

    A variable marks the table's entry open. The aggregating arguments
    are checked before the walk: a divergence in an earlier segment
    grows the rest of the path without visiting the deeper segments.
    """
    varmap = {}
    keys = term_keys(subst_terms, varmap)
    if varmap:
        frame.entry.open = True
    value = None
    for mode, lo, hi, pos in segments:
        if mode == "index" or mode == "all":
            continue
        tokens = _tokens(keys[lo:hi])
        if varmap and any(map(is_var_token, tokens)):
            problem = "under %s needs a ground value" % mode
        elif mode != "sum":
            continue
        elif len(tokens) != 1 or hi - lo != 1:
            problem = "under sum must be a single number"
        elif type(subst_terms[lo]) is int or type(subst_terms[lo]) is float:
            value = subst_terms[lo]
            continue
        else:
            problem = "under sum needs a number"
        raise EvaluationError(
            "%s: argument %d %s" % (frame.name(), pos, problem))
    return keys, value


def leaf_depth(segments):
    """How many trie levels lead to an answer's record under the plan
    segments: the number of index ordinals, when the plan starts with
    index ordinals and has no all segment, so that each index key holds
    at most one answer; 0 when the answer keeps one level per term."""
    if not segments or segments[0][0] != "index" or any(
            seg[0] == "all" for seg in segments):
        return 0
    return segments[0][2]


def beats(cand, stored, sign):
    """True when the ground keys cand order before (sign -1) or after
    (sign 1) the stored keys. An integer and a float of one value tie,
    so neither beats the other."""
    return compare_token_seqs(_tokens(cand), _tokens(stored)) == sign


def insert_answer(frame, subst_terms):
    """Insert one candidate answer, already resolved, into a frame's trie.

    subst_terms holds the binding of each free call variable, listed in
    the order the variables appeared in the reordered call. The answer
    is walked segment by segment of the frame's plan, in the layout
    leaf_depth gives it.
    """
    root = frame.root
    if root is None:
        raise ModetabError("cannot insert into completed table %s" % frame.name())
    segments = build_segments(frame.subst_modes)
    if not segments:
        # Fully bound call: the only possible answer is "yes".
        if frame.first_answer is not None:
            return _REJECT
        return InsertOutcome(NEW, grow_answer(frame, None, (), 0, ()))

    keys, total = answer_keys(frame, segments, subst_terms)
    terms = tuple(subst_terms)
    depth = leaf_depth(segments)
    if depth:
        return _insert_in_place(frame, segments, depth, keys, terms, total)
    node = root
    for mode, lo, hi, _pos in segments:
        if mode == "index" or mode == "all":  # follow the path, grow where it ends
            for o in range(lo, hi):
                child = node.get(keys[o])
                if child is None:
                    kind = ADDED if mode == "all" and node else NEW
                    leaf = grow_answer(frame, node, keys, o, terms)
                    return InsertOutcome(kind, leaf, 0, total)
                node = child
            continue

        if not node:
            leaf = grow_answer(frame, node, keys, lo, terms)
            return InsertOutcome(NEW, leaf, 0, total)

        kind = REPLACED  # min, max and last; sum updates its total
        if mode == "min" or mode == "max":
            # Read the one live witness, one key per ordinal.
            stored, witness = [], node
            while len(stored) < hi - lo:
                stored.append(next(iter(witness)))
                witness = witness[stored[-1]]
            if stored == keys[lo:hi]:
                node = witness
                continue
            if not beats(keys[lo:hi], stored, -1 if mode == "min" else 1):
                # Worse, or numerically tied with a differently typed
                # value: the stored witness stays.
                return _REJECT
        elif mode == "first":  # keep whatever arrived first
            return _REJECT
        elif mode == "sum":
            s = next(iter(node))
            total += s if type(s) is int else s[1]
            keys[lo] = (FLT, total) if type(total) is float else total
            kind = SUM_UPDATED
            terms = (*terms[:lo], total, *terms[hi:])
        dropped = drop_below(frame, node)
        leaf = grow_answer(frame, node, keys, lo, terms)
        return InsertOutcome(kind, leaf, dropped, total)

    # Every segment matched an existing path: exact duplicate.
    assert type(node) is AnswerLeaf
    return _REJECT


def _insert_in_place(frame, segments, depth, keys, terms, total):
    """insert_answer for a plan whose record hangs right under its last
    index key: the decisions read the stored record's terms."""
    path = keys[:depth]
    node, old = None, frame.root
    for o, key in enumerate(path):  # old ends as the record, node its dict
        node, old = old, old.get(key)
        if old is None:
            leaf = grow_answer(frame, node, path, o, terms)
            return InsertOutcome(NEW, leaf, 0, total)
    kind = REPLACED  # min, max and last; sum updates its total
    for mode, lo, hi, _pos in segments[1:]:
        if mode == "min" or mode == "max":
            stored = term_keys(old.terms[lo:hi])
            if stored == keys[lo:hi]:
                continue
            if not beats(keys[lo:hi], stored, -1 if mode == "min" else 1):
                # Worse, or numerically tied with a differently typed
                # value: the stored witness stays.
                return _REJECT
        elif mode == "first":  # keep whatever arrived first
            return _REJECT
        elif mode == "sum":
            total += old.terms[lo]
            kind = SUM_UPDATED
            terms = (*terms[:lo], total, *terms[hi:])
        break
    else:
        return _REJECT  # every value matched: exact duplicate
    old.valid = False
    frame.n_invalidated += 1
    leaf = grow_answer(frame, node, path, depth - 1, terms)
    return InsertOutcome(kind, leaf, 1, total)
