"""Independent reference implementations used to check the engine.

Everything here is deliberately naive: flat sequences, dict joins and
exhaustive fixpoints, sharing no code with the package internals they
are meant to judge.
"""

from modetab.errors import EvaluationError, ModetabError
from modetab.terms import Struct, Var, resolve, unify


def flat_aggregate(modes, candidates):
    """Expected final answer set for a flat candidate sequence.

    modes lists one mode per substitution position, already in group
    order, e.g. ("index", "min", "all"). candidates is a list of ground
    tuples of the same width. Supports the shapes exercised by the
    tests: any number of leading index positions, at most one
    aggregating position, and optionally one trailing all position.
    """
    idx = [i for i, m in enumerate(modes) if m == "index"]
    agg = [(i, m) for i, m in enumerate(modes) if m in ("min", "max", "first", "last", "sum")]
    alls = [i for i, m in enumerate(modes) if m == "all"]
    assert len(agg) <= 1, "reference aggregator models a single aggregate column"

    def key_of(c):
        return tuple(c[i] for i in idx)

    if not agg:
        return frozenset(candidates)

    pos, mode = agg[0]
    out = set()
    keys = []
    for c in candidates:
        k = key_of(c)
        if k not in keys:
            keys.append(k)
    for k in keys:
        group = [c for c in candidates if key_of(c) == k]
        if mode == "min" or mode == "max":
            pick = min if mode == "min" else max
            best = pick(c[pos] for c in group)
            if alls:
                out.update(c for c in group if c[pos] == best)
            else:
                # one witness per key
                assert pos == len(modes) - 1, "aggregate column is last"
                out.add(k + (best,))
        elif mode == "first":
            out.add(group[0])
        elif mode == "last":
            out.add(group[-1])
        else:  # sum
            total = sum(c[pos] for c in group)
            assert pos == len(modes) - 1
            out.add(k + (total,))
    return frozenset(out)


class TableModel:
    """One frame's answer table as a list of records, for judging
    modes.insert_answer.

    subst_modes is the frame's substitution array, (mode, variable
    count, argument position) per call argument in mode order; name is
    the table's name for error messages. A candidate is checked, then
    matched against the live records segment by segment, each segment
    narrowing the records that share the candidate's values so far.
    Values are compared in their own canonical form (variables numbered
    at first occurrence across the answer, 1 and 1.0 apart) and ordered
    in standard order (numbers by value, then atoms, then compounds by
    arity, name and arguments; an int and a float of one value tie).
    """

    def __init__(self, name, subst_modes):
        self.name = name
        self.segments = []  # (mode, first ordinal, end ordinal, position)
        n = 0
        for mode, count, pos in subst_modes:
            if count == 0:
                continue
            last = self.segments[-1] if self.segments else None
            if (last is not None and last[0] == mode
                    and mode in ("index", "all", "first")):
                self.segments[-1] = (mode, last[1], n + count, last[3])
            else:
                self.segments.append((mode, n, n + count, pos))
            n += count
        self.records = []  # [seq, terms, canonical values, valid]
        self.complete = False
        self.open = False
        self.n_inserted = self.n_invalidated = self.n_purged = 0

    def insert(self, terms):
        """Store one candidate; returns (kind, invalidated, total, seq)."""
        if self.complete:
            raise ModetabError("cannot insert into completed table %s"
                               % self.name)
        terms = tuple(terms)
        if not self.segments:
            if self.records:
                return ("rejected", 0, None, None)
            return self._add((), "new", 0, None)
        canon = _canonical(terms)
        if any(map(_holds_var, canon)):
            self.open = True
        total = None
        for mode, lo, hi, pos in self.segments:
            if mode == "index" or mode == "all":
                continue
            if any(map(_holds_var, canon[lo:hi])):
                raise EvaluationError(
                    "%s: argument %d under %s needs a ground value"
                    % (self.name, pos, mode))
            if mode == "sum":
                value = canon[lo]
                if hi - lo != 1 or value[0] == "c" and value[2]:
                    raise EvaluationError(
                        "%s: argument %d under sum must be a single number"
                        % (self.name, pos))
                if value[0] not in ("i", "f"):
                    raise EvaluationError(
                        "%s: argument %d under sum needs a number"
                        % (self.name, pos))
                total = terms[lo]
        live = [r for r in self.records if r[3]]
        for mode, lo, hi, pos in self.segments:
            same = [r for r in live if r[2][lo:hi] == canon[lo:hi]]
            if mode == "index" or mode == "all":
                if not same:
                    kind = "added" if mode == "all" and live else "new"
                    return self._add(terms, kind, 0, total)
                live = same
                continue
            if not live:
                return self._add(terms, "new", 0, total)
            if mode == "first":
                return ("rejected", 0, None, None)
            kind = "replaced"
            if mode == "min" or mode == "max":
                if same:
                    live = same
                    continue
                order = _standard_order(canon[lo:hi], live[0][2][lo:hi])
                if order != (-1 if mode == "min" else 1):
                    return ("rejected", 0, None, None)
            elif mode == "sum":
                total = live[0][1][lo] + total
                terms = terms[:lo] + (total,) + terms[hi:]
                kind = "sum_updated"
            for r in live:
                r[3] = False
            self.n_invalidated += len(live)
            return self._add(terms, kind, len(live), total)
        return ("rejected", 0, None, None)

    def _add(self, terms, kind, invalidated, total):
        self.n_inserted += 1
        self.records.append([self.n_inserted, terms, _canonical(terms), True])
        return (kind, invalidated, total, self.n_inserted)

    def finish(self):
        """Complete the table: drop the invalidated records."""
        self.n_purged += sum(1 for r in self.records if not r[3])
        self.records = [r for r in self.records if r[3]]
        self.complete = True

    def chain(self):
        return [(r[0], r[1], r[3]) for r in self.records]


def _canonical(terms):
    """Per term: ("v", k) for the k-th distinct variable, ("i", n),
    ("f", x), ("a", name), or ("c", name, (canonical args))."""
    numbers = {}

    def canon(t):
        if type(t) is Var:
            return ("v", numbers.setdefault(t, len(numbers)))
        if type(t) is Struct:
            return ("c", t.name, tuple(canon(a) for a in t.args))
        return ({int: "i", float: "f", str: "a"}[type(t)], t)

    return tuple(canon(t) for t in terms)


def _holds_var(c):
    return c[0] == "v" or c[0] == "c" and any(map(_holds_var, c[2]))


def _rank(c):
    if c[0] == "c":
        return (2, len(c[2]), c[1], tuple(map(_rank, c[2])))
    return (1 if c[0] == "a" else 0, c[1])


def _standard_order(a, b):
    ra, rb = tuple(map(_rank, a)), tuple(map(_rank, b))
    return -1 if ra < rb else 1 if ra > rb else 0


def bottom_up(program, limit=20000):
    """Naive bottom-up fixpoint of a parsed program, ignoring table modes.

    Returns a dict (name, arity) -> set of ground argument tuples.
    Builtins in clause bodies are evaluated; a derived head that is not
    ground raises, as does exceeding the fact limit.
    """
    from modetab.lang import decompose_goal, eval_builtin, is_builtin

    facts = {}
    total = 0
    changed = True
    while changed:
        changed = False
        for clause in program.clauses:
            name, head_args = _functor(clause.head)
            key = (name, len(head_args))
            bucket = facts.setdefault(key, set())
            for env in _solve_body(list(clause.body), {}, facts, is_builtin,
                                    eval_builtin, decompose_goal):
                row = tuple(resolve(a, env) for a in head_args)
                if any(_open(t) for t in row):
                    raise RuntimeError("bottom_up derived a non-ground fact")
                if row not in bucket:
                    bucket.add(row)
                    total += 1
                    if total > limit:
                        raise RuntimeError("bottom_up fact limit exceeded")
                    changed = True
    return facts


def _functor(t):
    if type(t) is Struct:
        return t.name, t.args
    return t, ()


def _open(t):
    if type(t) is Var:
        return True
    if type(t) is Struct:
        return any(_open(a) for a in t.args)
    return False


def _solve_body(goals, env, facts, is_builtin, eval_builtin, decompose_goal):
    if not goals:
        yield env
        return
    goal = goals[0]
    rest = goals[1:]
    name, args = decompose_goal(goal, env)
    if is_builtin(name, len(args)):
        trail = []
        if eval_builtin(name, args, env, trail):
            yield from _solve_body(rest, env, facts, is_builtin, eval_builtin,
                                   decompose_goal)
        for v in trail:
            del env[v]
        return
    for row in sorted(facts.get((name, len(args)), ()), key=repr):
        trail = []
        if all(unify(a, v, env, trail) for a, v in zip(args, row)):
            yield from _solve_body(rest, env, facts, is_builtin, eval_builtin,
                                   decompose_goal)
        for v in trail:
            del env[v]
