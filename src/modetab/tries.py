"""The table space: tries of calls and answers with invalidatable leaf chains.

Each tabled predicate owns a TableEntry whose call trie maps one path per
variant call to a SubgoalFrame. Every frame owns an answer trie holding
only the substitution terms of the call's free variables. Each answer is
one record, an AnswerLeaf: the last node of its trie path, created by
grow_answer together with the path and holding the answer's terms, so
readers never rebuild an answer from the trie. Records are chained in
insertion order so readers can pick up new answers by following a
single pointer. The "yes" answer of a fully bound call has no tokens;
its record is chained under no node.

Superseding an answer detaches its branch from the trie root (making it
invisible to fresh lookups) and tags its leaves invalid, but the leaves
stay on the chain, still pointing at their old parents, so a reader
parked on a dead leaf can keep walking. Dead leaves are only dropped
when the table completes.

Frames also carry what completion needs: each incomplete frame belongs
to a component of frames that wait on each other, and the component's
leader counts the calls its members have suspended on frames outside
it. depend, release and merge keep those counts as calls suspend,
components complete and cycles are contracted. A leader also knows
whether any member has a first, last or sum column, whose content
depends on the order or the number of deliveries.
"""

from types import MappingProxyType

from .errors import ModetabError
from .terms import tokenize

__all__ = [
    "TrieNode",
    "AnswerLeaf",
    "SubgoalFrame",
    "TableEntry",
    "TableSpace",
    "trie_insert",
    "subgoal_lookup_insert",
    "grow_answer",
    "invalidate_branch",
    "complete_table",
    "depend",
    "release",
    "merge",
    "waited_on",
    "iterate_answers",
]


class TrieNode:
    __slots__ = ("token", "parent", "children", "payload")

    def __init__(self, token, parent):
        self.token = token
        self.parent = parent
        self.children = {}
        self.payload = None  # the SubgoalFrame, on call-trie leaves


# the children of an answer record: a leaf never gets any
_NO_CHILDREN = MappingProxyType({})


class AnswerLeaf(TrieNode):
    """Chain record for one stored answer: the last node of its path.

    It has no children and leaves payload unset.
    """

    __slots__ = ("next", "valid", "seq", "terms")

    def __init__(self, seq, terms, token, parent):
        self.token = token
        self.parent = parent
        self.children = _NO_CHILDREN
        self.next = None
        self.valid = True
        self.seq = seq
        self.terms = terms  # the substitution vector


class SubgoalFrame:
    """Per-variant-call record anchoring the answer trie and its chain."""

    __slots__ = (
        "entry",
        "call_tokens",
        "subst_modes",
        "segments",
        "root",
        "first_answer",
        "last_answer",
        "complete",
        "strategy",
        "generator",
        "consumers",
        "calls",
        "leader",
        "members",
        "waits",
        "any_order",
        "seq_counter",
        "n_inserted",
        "n_invalidated",
        "n_purged",
    )

    def __init__(self, entry, call_tokens, subst_modes):
        self.entry = entry
        self.call_tokens = call_tokens
        self.subst_modes = subst_modes  # tuple of (mode, var_count, arg_position)
        self.segments = None  # insertion plan, compiled on first insert
        self.root = TrieNode(None, None)
        self.first_answer = None
        self.last_answer = None
        self.complete = False
        self.strategy = None
        self.generator = None
        self.consumers = []  # suspended calls reading this table
        self.calls = []  # frames that calls made evaluating this one wait on
        # completion: the component this frame belongs to (its leader),
        # and on a leader, the members and how many calls they have
        # suspended on incomplete frames outside the component
        self.leader = self
        self.members = [self]
        self.waits = 0
        # no column whose content depends on delivery order; on a
        # leader, true of every member
        self.any_order = entry.any_order
        self.seq_counter = 0
        self.n_inserted = 0
        self.n_invalidated = 0
        self.n_purged = 0

    def name(self):
        return "%s/%d" % (self.entry.name, self.entry.arity)


class TableEntry:
    """One per tabled predicate: its mode array and the trie of calls."""

    __slots__ = ("name", "arity", "mode_array", "any_order", "root", "frames")

    def __init__(self, name, arity, mode_array):
        self.name = name
        self.arity = arity
        self.mode_array = mode_array  # tuple of (1-based position, mode)
        self.any_order = not any(
            mode in ("first", "last", "sum") for _pos, mode in mode_array)
        self.root = TrieNode(None, None)
        self.frames = []


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


def trie_insert(root, tokens):
    """Ensure a path for tokens exists; returns (leaf, existed)."""
    node = root
    existed = True
    for tok in tokens:
        child = node.children.get(tok)
        if child is None:
            existed = False
            child = TrieNode(tok, node)
            node.children[tok] = child
        node = child
    return node, existed


def subgoal_lookup_insert(entry, call_args):
    """Find or create the frame for a call, reordering arguments by mode.

    Arguments are tokenized in mode-array order, so variant calls land on
    the same path no matter how their variables are named. Returns
    (frame, is_new, varmap) where varmap gives each unbound variable of
    call_args its ordinal in the answer substitution vector.
    """
    ordered = [call_args[pos - 1] for pos, _mode in entry.mode_array]
    varmap = {}
    counts = []
    tokens = tokenize(ordered, varmap, counts)
    leaf, _ = trie_insert(entry.root, tokens)
    frame = leaf.payload
    is_new = frame is None
    if is_new:
        subst = tuple(
            (mode, n, pos)
            for (pos, mode), n in zip(entry.mode_array, counts)
        )
        frame = SubgoalFrame(entry, tokens, subst)
        leaf.payload = frame
        entry.frames.append(frame)
    return frame, is_new, varmap


def grow_answer(frame, node, tokens, start, terms):
    """Create the path tokens[start:] below node and chain its record.

    The last node of the path is the new answer's record, holding
    terms. An answer without tokens gets a record under no node.
    """
    frame.seq_counter += 1
    if tokens:
        last = len(tokens) - 1
        for i in range(start, last):
            tok = tokens[i]
            child = TrieNode(tok, node)
            node.children[tok] = child
            node = child
        leaf = AnswerLeaf(frame.seq_counter, terms, tokens[last], node)
        node.children[tokens[last]] = leaf
    else:
        leaf = AnswerLeaf(frame.seq_counter, terms, None, None)
    if frame.last_answer is None:
        frame.first_answer = leaf
    else:
        frame.last_answer.next = leaf
    frame.last_answer = leaf
    frame.n_inserted += 1
    return leaf


def invalidate_branch(frame, node):
    """Detach one answer branch and tag its leaves invalid.

    The branch top is unlinked from its parent so root-down lookups no
    longer see it; leaves keep their parent pointers and chain links so
    lagging readers can still walk past them. Returns the number of
    leaves tagged.
    """
    if frame.complete:
        raise ModetabError("cannot invalidate answers of a completed table")
    if node.parent is None:
        raise ModetabError("refusing to invalidate a trie root")
    # The node must hang off this frame's root through live links only;
    # anything already detached, and anything from another trie, is out.
    top = node
    while top.parent is not None:
        if top.parent.children.get(top.token) is not top:
            raise ModetabError("node is not a live branch of this answer trie")
        top = top.parent
    if top is not frame.root:
        raise ModetabError("node is not a live branch of this answer trie")
    del node.parent.children[node.token]
    tagged = 0
    stack = [node]
    while stack:
        n = stack.pop()
        if type(n) is AnswerLeaf:
            n.valid = False
            tagged += 1
        else:
            stack.extend(n.children.values())
    frame.n_invalidated += tagged
    return tagged


def complete_table(frame):
    """Purge invalid leaves from the chain and freeze the table.

    Purged leaves keep their old forward pointers, so a reader parked on
    one still reaches the surviving suffix of the chain.
    """
    if frame.complete:
        raise ModetabError("table %s completed twice" % frame.name())
    survivors = []
    cur = frame.first_answer
    while cur is not None:
        if cur.valid:
            survivors.append(cur)
        else:
            frame.n_purged += 1
        cur = cur.next
    for i, leaf in enumerate(survivors):
        leaf.next = survivors[i + 1] if i + 1 < len(survivors) else None
    frame.first_answer = survivors[0] if survivors else None
    frame.last_answer = survivors[-1] if survivors else None
    frame.complete = True
    frame.generator = None


def depend(host, frame):
    """Record a call suspended on frame while evaluating host."""
    host.calls.append(frame)
    if frame.leader is not host.leader:
        host.leader.waits += 1


def release(lead):
    """Count off the calls suspended on a component that has completed.

    Returns the leaders of calling components that now wait on nothing.
    """
    freed = []
    for frame in lead.members:
        for consumer in frame.consumers:
            host = consumer.host
            if host is not None and host.leader is not lead and not host.complete:
                outer = host.leader
                outer.waits -= 1
                if not outer.waits:
                    freed.append(outer)
    return freed


def merge(leads):
    """Contract the components of the given leaders into one, led by the
    first, and count its calls on frames outside it; returns the leader."""
    lead = leads[0]
    for other in leads[1:]:
        for frame in other.members:
            frame.leader = lead
        lead.members.extend(other.members)
        lead.any_order = lead.any_order and other.any_order
    lead.waits = sum(1 for _ in waited_on(lead))
    return lead


def waited_on(lead):
    """The leaders of other incomplete components a component waits on."""
    return (
        frame.leader
        for member in lead.members
        for frame in member.calls
        if not frame.complete and frame.leader is not lead
    )


def iterate_answers(frame, after=None):
    """Yield valid leaves in chain order, starting after the given leaf."""
    leaf = frame.first_answer if after is None else after.next
    while leaf is not None:
        if leaf.valid:
            yield leaf
        leaf = leaf.next
