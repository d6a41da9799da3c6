"""Independent reference implementations used to check the engine.

Everything here is deliberately naive: flat sequences, dict joins and
exhaustive fixpoints, sharing no code with the package internals they
are meant to judge.
"""

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
