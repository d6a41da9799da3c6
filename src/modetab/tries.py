"""The table space: a call table and answer tries with invalidatable chains.

Each tabled predicate owns a TableEntry whose call table is one dict
from a call's variant key to its SubgoalFrame: the tuple of the call's
argument keys in mode-array order, as terms.term_keys makes them.
subgoal_lookup_insert, the one frame maker, takes a key its caller has
built; the engine's call sites build theirs from their slots and
constants. Frames with the same variable count per argument share the
entry's one substitution array for that shape, and so
modes.build_segments's one cached plan tuple. Every frame owns an answer
trie keyed by the substitution terms of the call's free variables: a
node is a plain dict from a term's key to its child, with no pointer
back to its parent. An answer path ends in the answer's record, an
AnswerLeaf created together with the path and holding the answer's
terms, so readers never rebuild an answer from the trie. Which terms
are levels depends on the frame's plan (modes.leaf_depth): where every
column after the index columns keeps one answer (min, max, first, last
or sum), only the index terms are, and the last index key maps to the
record, whose terms hold the stored values; otherwise (a plan with an
all column, or with no index column) each term is a level. grow_answer
makes path and record for modes.insert_answer, the general insertion
path; the engine's generated puts grow the answers of atoms and numbers
the same way inline. Records are chained in insertion order so readers
can pick up new answers by following a single pointer. The "yes" answer
of a fully bound call has no keys; its record is chained under no node.

Superseding an answer makes it invisible to fresh lookups and tags its
leaf invalid, but the leaf stays on the chain so a reader parked on a
dead leaf can keep walking. A record under its last index key is
replaced by the new record under the same key; in a trie of one level
per term, drop_below pops every branch below the node where the
decision fell. Dead leaves are only dropped when the table completes:
one pass over the chain relinks it in place, giving a new next only to
a valid leaf whose successor was dead, and builds no list. Completion
also drops the answer trie itself: from then on readers follow the
chain only, and nothing inserts or invalidates.

A frame's generator slot is the engine's: it holds whatever the engine
keeps while the table is incomplete, and completion clears it.
"""

from .errors import ModetabError

__all__ = [
    "AnswerLeaf",
    "SubgoalFrame",
    "TableEntry",
    "TableSpace",
    "subgoal_lookup_insert",
    "grow_answer",
    "drop_below",
    "complete_table",
    "iterate_answers",
]


class AnswerLeaf:
    """Chain record for one stored answer: the value its path ends in."""

    __slots__ = ("next", "valid", "seq", "terms")

    def __init__(self, seq, terms):
        self.next = None
        self.valid = True
        self.seq = seq
        self.terms = terms  # the substitution vector


class SubgoalFrame:
    """Per-variant-call record anchoring the answer trie and its chain."""

    __slots__ = (
        "entry",
        "subst_modes",
        "root",
        "first_answer",
        "last_answer",
        "complete",
        "generator",
        "n_inserted",
        "n_invalidated",
        "n_purged",
    )

    def __init__(self, entry, subst_modes):
        self.entry = entry
        self.subst_modes = subst_modes  # tuple of (mode, var_count, arg_position)
        self.root = {}  # the answer trie; None once the table completes
        self.first_answer = None
        self.last_answer = None
        self.complete = False
        self.generator = None
        self.n_inserted = 0
        self.n_invalidated = 0
        self.n_purged = 0

    def name(self):
        return "%s/%d" % (self.entry.name, self.entry.arity)


class TableEntry:
    """One per tabled predicate: its mode array and the table of calls."""

    __slots__ = ("name", "arity", "mode_array", "any_order", "calls", "frames",
                 "shapes", "open")

    def __init__(self, name, arity, mode_array):
        self.name = name
        self.arity = arity
        self.mode_array = mode_array  # tuple of (1-based position, mode)
        self.any_order = not any(
            mode in ("first", "last", "sum") for _pos, mode in mode_array)
        self.calls = {}  # variant key (one key per argument) -> frame
        self.frames = self.calls.values()  # live, in creation order
        self.shapes = {}  # per-argument variable counts -> subst_modes
        self.open = False  # an answer offered to a frame held a variable


class TableSpace:
    def __init__(self):
        self.entries = {}

    def entry(self, name, arity, mode_array):
        key = (name, arity)
        e = self.entries.get(key)
        if e is None:
            e = TableEntry(name, arity, mode_array)
            self.entries[key] = e
        return e


def subgoal_lookup_insert(entry, key, counts):
    """Find or create the frame for a call's variant key.

    key is the call's argument keys in mode order, as the module
    docstring describes, and counts, in the same order, how many fresh
    variables each argument holds. A new frame gets the entry's
    substitution array for its shape. Returns (frame, is_new).
    """
    frame = entry.calls.get(key)
    if frame is not None:
        return frame, False
    subst = entry.shapes.get(counts)
    if subst is None:
        subst = entry.shapes[counts] = tuple(
            (mode, n, pos) for (pos, mode), n in zip(entry.mode_array, counts))
    frame = entry.calls[key] = SubgoalFrame(entry, subst)
    return frame, True


def grow_answer(frame, node, keys, start, terms):
    """Create the path keys[start:] below node and chain its record.

    keys are the path's keys, one per trie level: every term's, or only
    the index terms' where the record holds the one-answer columns. The
    path's last key maps to the new answer's record, holding terms; an
    existing record under it is replaced. An answer without keys gets a
    record under no node. This is modes.insert_answer's; the engine's
    puts grow inline.
    """
    frame.n_inserted += 1
    leaf = AnswerLeaf(frame.n_inserted, terms)
    if keys:
        last = len(keys) - 1
        for i in range(start, last):
            child = node[keys[i]] = {}
            node = child
        node[keys[last]] = leaf
    if frame.last_answer is None:
        frame.first_answer = leaf
    else:
        frame.last_answer.next = leaf
    frame.last_answer = leaf
    return leaf


def drop_below(frame, node):
    """Pop every branch below node and tag its leaves invalid.

    Once popped, root-down lookups no longer see them; their leaves keep
    their chain links so lagging readers can still walk past them.
    Returns the number of leaves tagged. Replacement uses it only in a
    trie of one level per term: a plan with an all column, or with no
    index column.
    """
    dropped = 0
    stack = list(node.values())
    node.clear()
    while stack:
        x = stack.pop()
        if type(x) is AnswerLeaf:
            x.valid = False
            dropped += 1
        else:
            stack.extend(x.values())
    frame.n_invalidated += dropped
    return dropped


def complete_table(frame):
    """Purge invalid leaves from the chain, freeze the table and drop its
    answer trie and whatever its generator slot holds.

    One pass relinks the chain in place: only a valid leaf whose
    successor was purged gets a new next, the next valid leaf or None.
    Purged leaves keep their old forward pointers, so a reader parked on
    one still reaches the surviving suffix of the chain.
    """
    if frame.complete:
        raise ModetabError("table %s completed twice" % frame.name())
    purged = 0
    last = None  # the last valid leaf met
    leaf = frame.first_answer
    while leaf is not None:
        if not leaf.valid:
            purged += 1
        elif last is None:
            frame.first_answer = leaf
            last = leaf
        else:
            if last.next is not leaf:
                last.next = leaf
            last = leaf
        leaf = leaf.next
    if last is None:
        frame.first_answer = None
    elif last.next is not None:
        last.next = None
    frame.last_answer = last
    frame.n_purged += purged
    frame.complete = True
    frame.generator = None
    frame.root = None


def iterate_answers(frame, after=None):
    """Yield valid leaves in chain order, starting after the given leaf."""
    leaf = frame.first_answer if after is None else after.next
    while leaf is not None:
        if leaf.valid:
            yield leaf
        leaf = leaf.next
