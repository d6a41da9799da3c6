"""Tabled resolution over the mode-directed table space.

Each clause is compiled once, on the first call of its predicate: its
variables become numbered slots, each occurrence marked first or not,
and its body a chain of steps, each calling the next. A run of inline
goals (ground-fact goals with distinct variables and no compound that
holds one, and `is` and comparisons over numbers and bound variables)
is generated as one Python function per pattern of slots None at entry
that its calls meet, and not before: a fact goal is a loop over its
indexed rows, arithmetic straight-line code and a comparison an if,
with values in locals, which at the innermost point go into the
activation for the next step. A call that the generated function
cannot take (the walk has bindings, a slot read at entry holds a
variable or a compound, arithmetic reads what is not a number, or an
`is` would unify) takes the run's general step: the goals' closures,
which unify. Other goals are closures; a builtin whose operands are not
such arithmetic runs through lang.eval_builtin.
An activation is a list of slot values, None while unbound; a clause
try renames its clause apart by making a fresh one. A tabled
generator tries its clauses through generated functions, one per
_TRIES clauses, for each call shape (the predicate, the call's link and
its substitution array): per clause it counts the derivation, matches
the head against the call's unlinked arguments, storing first
occurrences into a fresh activation, then runs the body into a sink
whose outputs were fixed with the shape. Where every call variable is
linked, the unlinked arguments are ground, and a head that holds no
compound with variables is matched inline and binds nothing; any other
head meets the call through _unify, argument by argument, and its
bindings are undone before the next clause.
A variable that must outlive its activation unbound (inside a
compound, or passed to a non-tabled rule or to a tabled call on the
general path) gets a Var, bound in a per-walk dict with a trail.

A body ends in its sink's put, one generated function per answer shape:
which head slot, if any, holds each answer value (from the clause head
and the generator call's link), and the frame's substitution array.
Puts are cached per process by shape, so the frames of one shape share
them, and reach the engine through the sink. A put checks the
derivation limit and reads the answer. A query's put appends it to the
answer list. A table's put stores an answer of atoms and numbers
itself, from its first read to the counted record: it walks the answer
trie segment by segment of the insertion plan (index, all, min, max,
first, last, sum), in the layout modes.insert_answer uses (the record
under the last index key, holding the one-answer columns, or one level
per term), each level's value as its trie key (a float v as (FLT, v)),
grows the new path and chains its record, and hands any other answer to
modes.insert_answer, whose trie keys, witness compare (modes.beats)
and branch drop (tries.drop_below) it shares. Only a traced insertion,
or one that changed a table with a consumer that does not settle, makes
a call more, to log its trace event and queue it for those consumers.
A run that ends a table's clause body is generated per put as well,
with the put's store written in at its innermost point, reading the
run's locals and making each check fixed for the call once; another put
or pattern switches it. A query's run calls the query's put.

A tabled goal without a compound that holds variables compiles to a call
site. Its steps are generated, one per pattern (the slots unbound at the
call) when a call first meets it; a call of another pattern switches the
site to that pattern's step. The first fetches the table entry, so
entries stay in first-call order. A step keys the call, as tries
describes, from its constants, its free slots' variable tokens and its
bound slots' values, keying one that holds no atom or integer on a slow
branch. A miss hands the key to tries.subgoal_lookup_insert and builds
the generator call in place, each free slot a fresh Var, linked to its
answer ordinal where the goal names it once. Any other goal, and a call
whose slot holds an unbound variable, takes the general path: build the
arguments on a copy of the activation as an untabled call does, key them
with terms.term_keys, and read each answer into the slots that got a Var
and through the Vars that were there before. Both paths start a new
frame's generator the same way. Each read of an answer that holds
variables gets them renamed apart, as a clause try renames its clause.

Runs, delivery loops, call site steps, tries and puts are all generated
one way: the generator writes lines into a _Source, which hands out the
constants' names, and its make compiles the text, once per distinct text
the cache holds, under the name <modetab KIND N> (KIND run, deliver,
site, tries or put, N a serial of the process), gives the text to
linecache while a function made from it lives, and runs it in this
module's globals. So a traceback shows a generated function's lines,
and a profiler keeps each source's functions apart.

A call to a tabled predicate, from a site or the general path, starts a
generator (first call) and registers in _consume a consumer, which runs
the next goal's closure once per delivered answer. On a completed table
it is delivered every answer at once, within the calling walk.
Otherwise it suspends, keeping copies of the activation and its callers
(plain copies unless the walk has bindings, and a sink caller as it
is), and settles when its frame is scheduled local, or when it sits in
a table and neither that table nor the one it reads has a first, last
or sum column, whose content depends on the order or the number of
deliveries.

* A consumer that does not settle (batched only) is listed in its
  table's record, and gets each table-changing insertion queued as an
  event, plus a bounded catch-up run at registration time, so it may
  see answers that a later insertion invalidates; a sum table counts
  each one.
* A settled consumer gets nothing until the task queue drains. Completion
  works on the strongly connected components of the dependency graph
  between incomplete frames, kept as calls suspend: each component
  counts the calls its members have suspended on frames outside it. In
  a component whose count is zero, consumers inside it are walked to a
  fixpoint, the component completes, its callers' counts drop, and only
  the surviving answers are released to outside callers, in chain
  order. When no component is free, Tarjan's algorithm finds a set of
  components that wait only on each other, and that set is contracted
  into one. Its wait edges are read from the frames' consumer lists.

While a table is incomplete, its frame's generator slot holds the
engine's record of it: the generator call, the suspended consumers and
the component. Completion drops the record, so the consumers and the
copies they hold are freed as soon as their last walk has run.

A walk inside a component follows the answer chain, except when the
frame's first min/max column is a single free variable and no member
of the component has a first, last or sum column. Then the walk keeps
a heap of the pending answers and delivers the best value first
(numbers before anything else, ties and non-numbers in chain order),
as Dijkstra's algorithm does; on a graph with non-negative weights no
answer that a better one supersedes is delivered. first, last and sum
are left out because what they keep depends on the order or the
number of deliveries.

Every delivery (an insertion event, a catch-up run, a read of a
completed table, a walk in either order) goes through one loop text,
_loop's: it reads the consumer once, reads the chain lazily (so answers
its own deliveries add come in the same run), and per answer checks the
derivation limit and counts. The plain loop, one per order made once per
process, copies the activation with the answer in the call's slots (and
binds a general-path call's Vars) for the next step. A consumer whose
next step is a fused run takes the run's loop, which reads the answer
into the run's locals and runs the run and its store inline. A single
tabled goal's query reads the completed table's chain directly into its
answers.
"""

import linecache
import sys
from collections import deque
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter
from weakref import finalize

from .errors import DerivationLimitError, EvaluationError
from .lang import (ARITH_OPS, COMPARE, decompose_goal, eval_arith,
                   eval_builtin, fact_key, is_builtin, parse_query)
from .modes import (ADDED, NEW, REJECTED, REPLACED, SUM_UPDATED, beats,
                    build_segments, compile_declaration, insert_answer,
                    leaf_depth, traditional_modes)
from .terms import (FLT, Struct, Var, cyclic_binding, instantiate, resolve,
                    term_keys, term_to_str, unify, var_token)
from .tries import (AnswerLeaf, TableSpace, complete_table, drop_below,
                    subgoal_lookup_insert)

__all__ = ["Engine", "Stats", "solve", "DEFAULT_LIMIT"]

DEFAULT_LIMIT = 5_000_000

# the bound of a walk's run of deliveries: above every answer's seq
_EVERY = sys.maxsize


class Stats:
    __slots__ = (
        "derivations",
        "insertions",
        "invalidations",
        "propagations",
        "resumptions",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return "Stats(%s)" % ", ".join(
            "%s=%d" % kv for kv in sorted(self.as_dict().items())
        )


class _Slot:
    """One occurrence of a clause variable: its slot in the activation."""

    __slots__ = ("i", "first", "name")

    def __init__(self, i, first, name):
        self.i = i
        self.first = first  # no earlier occurrence has bound or read it
        self.name = name


class _Tmpl:
    """A compound clause term with variables in it: the term as written,
    and per variable the slot that holds its value."""

    __slots__ = ("term", "slots")

    def __init__(self, term, slots):
        self.term = term
        self.slots = slots  # tuple of (Var, _Slot)


class _Sink:
    """Where a finished derivation goes: a frame's table, or a query's
    answer list (names set). outs holds slots of the top activation or
    terms resolved when the derivation suspended; put(env, sink) reads
    them and stores the answer."""

    __slots__ = ("engine", "frame", "outs", "put", "answers", "names")

    def __init__(self, engine, frame, outs, put, answers=None, names=None):
        self.engine = engine
        self.frame = frame
        self.outs = outs
        self.put = put
        self.answers = answers
        self.names = names


class _Eval:
    """What the engine keeps for an incomplete table, in its frame's
    generator slot: the generator call, the calls reading the table (the
    only record of who waits on it), and its component."""

    __slots__ = ("args", "link", "subst", "local", "consumers", "eager",
                 "leader", "members", "waits", "any_order")

    def __init__(self, frame, args, link, subst, local):
        self.args = args
        self.link = link  # per argument, the answer ordinal it is linked to
        self.subst = subst  # the call's Vars, in answer ordinal order
        self.local = local  # scheduled local, not batched
        self.consumers = []  # suspended calls reading this table
        # those of them that do not settle, in order; None while none has
        self.eager = None
        # completion: the component this table belongs to (its leader's
        # record), and on a leader, the member frames and how many calls
        # they have suspended on incomplete frames outside the component
        self.leader = self
        self.members = (frame,)
        self.waits = 0
        # no column whose content depends on delivery order; on a
        # leader, true of every member
        self.any_order = frame.entry.any_order


class _Loops(dict):
    """Delivery loops per order (None or _best's pair), made by make."""

    __slots__ = ("make",)

    def __missing__(self, best):
        return self.setdefault(best, self.make(best))


class Consumer:
    """A tabled call: where it reads and how to go on.

    plan maps answer ordinals to the slots of env unbound at the call,
    hplan to the Vars a general-path call's arguments held before it
    (empty for a site); step(env, parent) runs the rest of the
    derivation. env and the callers in parent were copied when the call
    suspended, all but a sink no walk binding reached, which is shared; a
    read of a completed table keeps the caller's own.
    """

    __slots__ = ("frame", "host", "plan", "hplan", "step", "env", "parent",
                 "last", "cid", "settles")

    def __init__(self, frame, host, plan, hplan, step, env, parent, cid):
        self.frame = frame
        self.host = host  # frame whose evaluation this call sits in, or None
        # read at completion, as under local, instead of per insertion;
        # a read of a completed table is delivered at once
        self.settles = not frame.complete and (frame.generator.local or (
            host is not None and host.entry.any_order
            and frame.entry.any_order))
        self.plan = plan  # tuple of (slot, answer ordinal)
        self.hplan = hplan  # tuple of (Var, answer ordinal)
        self.step = step
        self.env = env
        self.parent = parent
        self.last = None  # chain position for walk-style delivery
        self.cid = cid  # numbered only while tracing


class Engine:
    def __init__(self, program, strategy="local", limit=DEFAULT_LIMIT, trace=False):
        if strategy not in ("local", "batched"):
            raise ValueError("strategy must be 'local' or 'batched'")
        self.program = program
        self.strategy = strategy
        self.limit = limit
        self.stats = Stats()
        self.events = [] if trace else None
        self.space = TableSpace()
        self.tasks = deque()
        self.incomplete = {}  # incomplete frames, in creation order
        self.ready = []  # component leaders that may wait on nobody
        self.bind = {}  # Var bindings of the running walk
        self.trail = []
        self._compiled = {}  # (name, arity) -> compiled clauses
        self._runs = {}  # a run that ends a body -> its delivery loops
        self._shapes = {}  # (entry, link, subst_modes) -> its tries
        self._next_cid = 0

    # -- bookkeeping ---------------------------------------------------

    def _log(self, kind, **fields):
        if self.events is not None:
            fields["kind"] = kind
            self.events.append(fields)

    def entry(self, name, arity):
        found = self.space.entries.get((name, arity))
        if found is None:
            modes = self.program.table_modes(name, arity)
            array = (traditional_modes(arity) if modes is None
                     else compile_declaration(name, arity, list(modes)))
            found = self.space.entry(name, arity, array)
        return found

    # -- compilation -----------------------------------------------------

    def _clauses(self, name, arity):
        """Compiled clauses: (slot count, head, body step) each."""
        code = self._compiled.get((name, arity))
        if code is None:
            # tabled clauses only run as generators, others under a caller
            last = _emit if self.program.is_tabled(name, arity) else _return
            code = self._compiled[(name, arity)] = [
                self._compile(c.head.args if type(c.head) is Struct else (),
                              c.body, {}, last)
                for c in self.program.clauses_for(name, arity)
            ]
        return code

    def _compile(self, head, body, slots, last):
        """Compile one clause; slots maps its Vars to slot numbers, and
        last(env, parent) takes over after the body.

        Occurrences are numbered in the order they run: left to right,
        except that `is` evaluates its right side and `=` builds its
        right side before touching the left. Each goal compiles to a
        maker that, given the next goal's step, returns its own, or, if
        it is inline, to a tuple that joins a run for _run_step.
        """
        st = self.stats

        def term(t):
            tt = type(t)
            if tt is Var:
                i = slots.get(t)
                if i is None:
                    i = slots[t] = len(slots)
                    return _Slot(i, True, t.name)
                return _Slot(i, False, t.name)
            if tt is Struct:
                seen = {}
                term_keys((t,), seen)
                if seen:
                    return _Tmpl(t, tuple((v, term(v)) for v in seen))
            return t

        def compiles(t):
            """Whether t is arithmetic over numbers and bound variables."""
            tt = type(t)
            if tt is Var:
                return t in slots
            if tt is Struct:
                return (len(t.args) == 2 and t.name in _ARITH
                        and compiles(t.args[0]) and compiles(t.args[1]))
            return tt is int or tt is float

        def arith(t):
            """Compiled arithmetic: a slot, a number, or (operator,
            left, right)."""
            if type(t) is Struct:
                return (t.name, arith(t.args[0]), arith(t.args[1]))
            return term(t)

        def goal(g):
            tg = type(g)
            if tg is Struct:
                name, args = g.name, g.args
            elif tg is str:
                name, args = g, ()
            elif tg is Var:
                return lambda nxt: _raiser("unbound variable used as a goal")
            else:
                msg = "goal is not callable: %s" % term_to_str(g)
                return lambda nxt: _raiser(msg)
            arity = len(args)
            if name == "is" and arity == 2 and compiles(args[1]):
                e = arith(args[1])
                return ("is", term(args[0]), e)
            if name == "=" and arity == 2:
                right = term(args[1])
                left = term(args[0])

                def make(nxt):
                    def step(env, parent):
                        st.derivations += 1
                        self._then(left, _build(right, env), env, parent, nxt)
                    return step
                return make
            if name in _COMPARE and all(map(compiles, args)):
                return ("cmp", name, arith(args[0]), arith(args[1]))
            if is_builtin(name, arity):
                # what the compiler does not take apart (a variable at
                # its first occurrence, an atom or a compound where a
                # number belongs) is left to lang, whose eval_arith
                # raises on it, so nothing here binds; `is` reads its
                # right side first
                order = (1, 0) if name == "is" else (0, 1)
                specs = [(k, term(args[k])) for k in order]

                def make(nxt):
                    def step(env, parent):
                        st.derivations += 1
                        vals = [None, None]
                        for k, s in specs:
                            vals[k] = _build(s, env)
                        if eval_builtin(name, vals, self.bind, self.trail):
                            nxt(env, parent)
                    return step
                return make
            specs = tuple(term(a) for a in args)
            if self.program.is_tabled(name, arity):
                if _Tmpl not in map(type, specs):
                    return lambda nxt: self._site_step(name, specs, nxt)
                call = self._call_tabled
            elif not self.program.clauses_for(name, arity):
                msg = "unknown predicate %s/%d" % (name, arity)
                return lambda nxt: _raiser(msg)
            elif self.program.facts(name, arity):
                rows, index = self.program.facts(name, arity)
                seen = [s.i for s in specs if type(s) is _Slot]
                if len(seen) == len(set(seen)) and _Tmpl not in map(type, specs):
                    return ("facts", rows, index, specs)
                # a repeated variable or a compound: unify row by row
                return lambda nxt: self._closure(("facts", rows, index, specs),
                                                 nxt)
            else:
                call = self._call_rules
            return lambda nxt: (
                lambda env, parent: call(name, specs, env, parent, nxt))

        head = tuple(term(a) for a in head)
        step = last
        run = []  # the inline goals after the current one
        for make in reversed([goal(g) for g in body]):
            if type(make) is tuple:
                run.insert(0, make)
                continue
            if run:
                step, run = self._run_step(run, step), []
            step = make(step)
        if run:
            step = self._run_step(run, step)
        return (len(slots), head, step)

    def _run_step(self, ops, nxt):
        """A run of inline goals, then nxt: its general step, made of the
        goals' closures, behind the pattern switch of _fused. A run longer
        than a function can nest is cut into runs that call each other."""
        if len(ops) > _RUN:
            nxt = self._run_step(ops[_RUN:], nxt)
            ops = ops[:_RUN]
        general = nxt
        for op in reversed(ops):
            general = self._closure(op, general)
        return self._fused(ops, nxt, general)

    def _closure(self, op, nxt):
        """An inline goal's closure, for its run's general step: a
        fact goal through _rows, an `is` through _then and a comparison,
        their arithmetic through _value."""
        st = self.stats
        if op[0] == "facts":
            _, rows, index, specs = op
            return lambda env, parent: self._rows(rows, index, specs, env,
                                                  parent, nxt)
        if op[0] == "is":
            _, left, e = op

            def step(env, parent):
                st.derivations += 1
                self._then(left, _value(e, env, self.bind), env, parent, nxt)
            return step
        _, name, a, b = op
        test = COMPARE[name]

        def step(env, parent):
            st.derivations += 1
            if test(_value(a, env, self.bind), _value(b, env, self.bind)):
                nxt(env, parent)
        return step

    def _fused(self, ops, nxt, general):
        """A run's step: the generated step of the last pattern met (the
        slots None at entry, bar those the run binds first) and, where the
        run ends a table's clause body, put, with the put's store fused
        in; switch makes each, or takes general where _generate makes
        none. Unless the engine traces, _deliver finds a run that ends a
        body by its step, and the run's delivery loops with it."""
        steps = {}  # (put or None, pattern) -> its step
        born = {s.i for op in ops  # a fact goal's specs, an `is`'s left
                for s in (op[3] if op[0] == "facts" else op[1:2])
                if type(s) is _Slot and s.first}
        ends = nxt is _emit

        def switch(env, parent):
            # a table's put; a query's the run calls as its next step
            put = (parent.put if ends and parent.put.shape[1] is not None
                   else None)
            key = (put, frozenset(i for i, v in enumerate(env)
                                  if v is None and i not in born))
            found = steps.get(key)
            if found is None:
                src = _generate(ops, put, key[1])
                found = steps[key] = general if src is None else src.make(
                    self, put, nxt, general, switch)
            if found is not general:
                step[0] = found
            found(env, parent)
        step = [switch]

        def run(env, parent):
            step[0](env, parent)
        if ends and self.events is None:
            self._runs[run] = self._loops(ops)
        return run

    def _loops(self, ops):
        """A fused run's loops per order: the last put, pattern (slots None
        in env, bar the plan's) and plan's, which hands another to switch;
        a general-path call, a query and a pattern not fused get plain."""
        made = {}  # (put, pattern, plan, order) -> its loop, or None

        def order(best):
            plain = _PLAIN[best]

            def switch(engine, consumer, event, resumed, bound):
                put, plan = consumer.parent.put, consumer.plan
                found = None
                if not consumer.hplan and put.shape[1] is not None:
                    writes = {k for k, _ in plan}
                    key = (put, frozenset(
                        i for i, v in enumerate(consumer.env)
                        if v is None and i not in writes), plan, best)
                    if key not in made:
                        src = _generate(ops, put, key[1], plan, best)
                        made[key] = src and src.make(self, put, plan, switch,
                                                     plain)
                    found = made[key]
                if found is not None or put.shape[1] is None:
                    loops[best] = found or plain
                (found or plain)(self, consumer, event, resumed, bound)
            return switch
        loops = _Loops()
        loops.make = order
        return loops

    # -- resolution ----------------------------------------------------

    def _then(self, s, v, env, parent, nxt):
        """Unify compiled term s with v, go on with nxt, then undo."""
        reset = []
        trail = self.trail
        m = len(trail)
        if self._unify(s, v, env, reset):
            nxt(env, parent)
        for k in reset:
            env[k] = None
        while len(trail) > m:
            del self.bind[trail.pop()]

    def _unify(self, s, v, env, reset):
        """Unify a compiled term with a value; slots bound here that
        were unbound go on reset, Var bindings on the trail."""
        if type(s) is not _Slot:
            return unify(_build(s, env), v, self.bind, self.trail)
        if s.first:
            env[s.i] = v
            return True
        w = env[s.i]
        if w is None:
            env[s.i] = v
            reset.append(s.i)
            return True
        return unify(w, v, self.bind, self.trail)

    def _rows(self, rows, index, specs, env, parent, nxt):
        """A fact goal that unifies: one whose call repeats a variable or
        holds a compound with variables, and an inline one on its run's
        general step. Each row's bindings are undone before the next."""
        key = _build(specs[0], env)
        while type(key) is Var and key in self.bind:
            key = self.bind[key]
        if type(key) is not Var:
            rows = index.get(fact_key(key), ())
        trail = self.trail
        m = len(trail)
        for row in rows:
            self.stats.derivations += 1
            reset = []
            for s, f in zip(specs, row):
                if not self._unify(s, f, env, reset):
                    break
            else:
                nxt(env, parent)
            for k in reset:
                env[k] = None
            while len(trail) > m:
                del self.bind[trail.pop()]

    def _clause_copy(self, clause, args):
        """Rename a compiled clause apart: a fresh activation whose head
        meets the call's arguments, or None when the head does not match."""
        st = self.stats
        st.derivations += 1
        if st.derivations > self.limit:
            _over(self.limit)
        env = [None] * clause[0]
        for s, a in zip(clause[1], args):
            if not self._unify(s, a, env, []):
                return None
        return env

    def _call_rules(self, name, specs, env, parent, nxt):
        args = [_build(s, env) for s in specs]
        cont = (nxt, env, parent)
        trail = self.trail
        for clause in self._clauses(name, len(specs)):
            m = len(trail)
            cenv = self._clause_copy(clause, args)
            if cenv is not None:
                clause[2](cenv, cont)
            while len(trail) > m:
                del self.bind[trail.pop()]

    # -- tabled calls ----------------------------------------------------

    def _materialize(self, name, args):
        """Find or create the frame for a general-path call or a tabled
        query; start its generator if new. Returns the frame and the
        ordinals of the call's variables."""
        entry = self.entry(name, len(args))
        varmap, counts = {}, []
        key = tuple(term_keys([args[pos - 1] for pos, _ in entry.mode_array],
                              varmap, counts))
        frame, is_new = subgoal_lookup_insert(entry, key, tuple(counts))
        if is_new:
            # a call variable that stands alone as an argument and occurs
            # nowhere else is linked to the head argument it meets, so
            # the generator reads its answer from there
            inner = {}
            term_keys([a for a in args if type(a) is Struct], inner)
            link = tuple(
                varmap[a] if type(a) is Var and a not in inner
                and sum(b is a for b in args) == 1 else None
                for a in args
            )
            # ordinals are handed out at first occurrence, so the map is
            # already in ordinal order
            self._start(frame, tuple(args), link, tuple(varmap))
        return frame, varmap

    def _start(self, frame, args, link, subst):
        """Start a new frame's generator: args in source order, link per
        argument, subst the call's Vars in answer ordinal order."""
        entry = frame.entry
        local = self.program.strategy_overrides.get(
            (entry.name, entry.arity), self.strategy) == "local"
        frame.generator = _Eval(frame, args, link, subst, local)
        self.incomplete[frame] = None
        self.ready.append(frame.generator)
        self.tasks.append(("gen", frame))
        if self.events is not None:
            self._log("call", frame=frame.name(), new=True)

    def _site_step(self, name, specs, nxt):
        """A compiled call site, as the module docstring describes: it
        runs the step of the last pattern met, which hands a call of
        another pattern to switch, the maker of each pattern's step."""
        steps = {}  # pattern -> its generated step

        def switch(env, parent):
            free = frozenset(s.i for s in specs if type(s) is _Slot
                             and (s.first or env[s.i] is None))
            found = steps.get(free)
            if found is None:
                entry = self.entry(name, len(specs))
                found = steps[free] = _site_source(entry, specs, free).make(
                    self, entry, specs, nxt, switch)
            step[0] = found
            found(env, parent)
        step = [switch]
        return lambda env, parent: step[0](env, parent)

    def _call_tabled(self, name, specs, env, parent, nxt):
        """The general path; a copy of env takes the Vars it builds."""
        work = list(env)
        args = [_build(s, work) for s in specs]
        if self.bind:
            args = [resolve(a, self.bind) for a in args]
        frame, varmap = self._materialize(name, args)
        made = {v: i for i, v in enumerate(work) if v is not env[i]}
        self._consume(frame, tuple((i, varmap[v]) for v, i in made.items()),
                      tuple(vo for vo in varmap.items() if vo[0] not in made),
                      env, parent, nxt)

    def _consume(self, frame, plan, hplan, env, parent, nxt):
        """Register a tabled call, from a site or the general path, and
        read the frame's answers into it: now, or once suspended."""
        cid = None
        if self.events is not None:
            self._next_cid += 1
            cid = self._next_cid
        if frame.complete:
            # read now, within this walk: the activation and its callers
            # are live, and nothing waits on the read
            consumer = Consumer(frame, _host(parent), plan, hplan, nxt, env,
                                parent, cid)
        else:
            bind = self.bind
            if bind or type(parent) is tuple:
                host, parent = _host(parent), self._freeze(parent)
            else:
                host = parent.frame
            env = self._copy(env) if bind else list(env)
            consumer = Consumer(frame, host, plan, hplan, nxt, env, parent, cid)
            gen = frame.generator
            gen.consumers.append(consumer)
            # the host's component waits on this call unless the frame
            # belongs to it
            if host is not None and gen.leader is not host.generator.leader:
                host.generator.leader.waits += 1
            if consumer.settles:
                return
            if gen.eager is None:
                gen.eager = []
            gen.eager.append(consumer)
        # catch up on the valid answers stored before registration (all
        # of a completed table's); later ones arrive as insertion events,
        # so the run is bounded to keep the two channels from overlapping
        self._deliver(consumer, None, False, frame.n_inserted)

    def _copy(self, env):
        """A copy of an activation that no later binding reaches."""
        bind = self.bind
        if not bind:
            return list(env)
        return [resolve(v, bind) if type(v) is Var or type(v) is Struct else v
                for v in env]

    def _freeze(self, parent):
        """A copy of the callers of a suspending call."""
        if type(parent) is tuple:
            step, env, up = parent
            return step, self._copy(env), self._freeze(up)
        if self.bind:
            outs = tuple(o if type(o) is _Slot else resolve(o, self.bind)
                         for o in parent.outs)
            parent = _Sink(self, parent.frame, outs, parent.put,
                           parent.answers, parent.names)
        return parent

    def _deliver(self, consumer, leaf, resumed, bound=None, best=None):
        """Deliver leaf, or with a bound the answers _loop reads, in chain
        order or best value first (_best's pair): through the loop of the
        fused run that is the consumer's step, which runs the run on each
        answer, or else through the plain loop, which calls the step."""
        self._runs.get(consumer.step, _PLAIN)[best](
            self, consumer, leaf, resumed, bound)

    # -- task loop -------------------------------------------------------

    def _run_generator(self, frame):
        gen = frame.generator
        self.bind = {}
        self.trail = []
        for tries in self._shape(frame.entry, gen.link, frame.subst_modes):
            tries(self, frame, gen.args, gen.subst)

    def _shape(self, entry, link, subst_modes):
        """The tries of entry's predicate for the frames of one shape,
        the generator call's link and substitution array: one function
        per _TRIES clauses, run in turn."""
        key = (entry, link, subst_modes)
        found = self._shapes.get(key)
        if found is None:
            clauses = self._clauses(entry.name, entry.arity)
            found = self._shapes[key] = tuple(
                _tries_source(clauses[i:i + _TRIES], link, subst_modes).make()
                for i in range(0, len(clauses), _TRIES))
        return found

    def _walk_consumer(self, consumer):
        """Deliver every valid answer the consumer has not seen, and those
        its deliveries add: best value first where the module docstring
        says so, otherwise in chain order."""
        frame = consumer.frame
        host = consumer.host
        gen = frame.generator
        best = (host is not None and gen is not None
                and host.generator.leader is gen.leader
                and gen.leader.any_order and _best(frame)) or None
        self._deliver(consumer, None, True, _EVERY, best)

    def run(self):
        while True:
            while self.tasks:
                task = self.tasks.popleft()
                kind = task[0]
                if kind == "gen":
                    self._run_generator(task[1])
                elif kind == "event":
                    self._deliver(task[1], task[2], True)
                else:  # walk
                    self._walk_consumer(task[1])
            if not self._checkpoint():
                return

    # -- completion -------------------------------------------------------

    def _checkpoint(self):
        """Queue is empty: walk or complete the components that wait on
        no other incomplete component.

        Returns True when new tasks were scheduled, False at the global
        fixpoint. Components freed by a completion are taken up in the
        next round, after the walks this round scheduled.
        """
        tasks = self.tasks
        while self.incomplete:
            # judged before any completes, so a component freed in this
            # round waits for the walks that feed it
            batch = [
                lead for lead in dict.fromkeys(
                    self.ready or [self._close_cycle()])
                if lead.leader is lead and not lead.waits
            ]
            self.ready = []
            pushed = False
            for lead in batch:
                # completing purges only invalid answers, so what is
                # pending now is pending after completion too
                pending = [
                    consumer
                    for frame in lead.members
                    for consumer in frame.generator.consumers
                    if consumer.settles and _pending(consumer)
                ]
                walkers = [consumer for consumer in pending
                           if consumer.host is not None
                           and consumer.host.generator.leader is lead]
                if walkers:
                    tasks.extend(("walk", consumer) for consumer in walkers)
                    self.ready.append(lead)
                    pushed = True
                    continue
                for frame in lead.members:
                    consumers = frame.generator.consumers
                    complete_table(frame)
                    del self.incomplete[frame]
                    if self.events is not None:
                        self._log("complete", frame=frame.name())
                    # count off the calls suspended on it from outside; a
                    # component left waiting on nothing goes next round
                    for consumer in consumers:
                        host = consumer.host
                        if host is not None and not host.complete:
                            outer = host.generator.leader
                            if outer is not lead:
                                outer.waits -= 1
                                if not outer.waits:
                                    self.ready.append(outer)
                # the component's records are now unreachable, its
                # consumers with them, once the leader lets go of itself
                lead.leader = None
                # the rest are read by callers outside the component
                tasks.extend(("walk", consumer) for consumer in pending)
                pushed = pushed or bool(pending)
            if pushed:
                return True
        return False

    def _close_cycle(self):
        """Every incomplete component waits on another: merge the first
        strongly connected set of them, which waits on nothing outside
        itself, into one component; returns its leader. The wait edges are
        the consumers whose host sits in another component."""
        adj = {frame.generator.leader: [] for frame in self.incomplete}
        for frame in self.incomplete:
            lead = frame.generator.leader
            for consumer in frame.generator.consumers:
                host = consumer.host
                if host is not None and host.generator.leader is not lead:
                    adj[host.generator.leader].append(lead)
        lead, *others = _tarjan(list(adj), adj)[0][::-1]
        members = list(lead.members)
        for other in others:
            for frame in other.members:
                frame.generator.leader = lead
            members += other.members
            lead.any_order = lead.any_order and other.any_order
        lead.members = tuple(members)
        lead.waits = 0
        return lead

    # -- queries -----------------------------------------------------------

    def solve(self, query):
        """Evaluate a query (text or goal list); returns (answers, stats).

        Each answer maps variable names to terms, in first-occurrence
        order. A query made of a single tabled goal reports the final
        content of the completed table, in chain order. Recursion deeper
        than Python's stack, in untabled calls or in nested terms, raises
        EvaluationError, as does a variable bound to a term that holds it.
        """
        try:
            return self._solve(query)
        except RecursionError:
            # the walk that failed left its bindings behind
            var = cyclic_binding(self.bind)
            if var is not None:
                raise EvaluationError(
                    "cyclic term: %s = %s (unification has no occurs check)"
                    % (var.name, term_to_str(self.bind[var]))) from None
            raise EvaluationError(
                "recursion went too deep: untabled calls or terms nest"
                " beyond the interpreter's stack") from None

    def _solve(self, query):
        goals = tuple(parse_query(query) if isinstance(query, str) else query)
        seen = {}  # the query's Vars, numbered by first occurrence
        term_keys(goals, seen)
        qvars = tuple(v for v in seen if v.name != "_")
        names = tuple(v.name for v in qvars)
        self.bind = {}
        self.trail = []
        if len(goals) == 1:
            name, args = decompose_goal(goals[0], {})
            if not is_builtin(name, len(args)) and self.program.is_tabled(
                name, len(args)
            ):
                frame, varmap = self._materialize(name, list(args))
                self.run()
                # the completed chain holds valid answers only, their
                # terms resolved when they were derived; where the query's
                # variables are the first ordinals in order, the terms
                # are read as they are
                where = tuple(varmap[v] for v in qvars)
                get = (None if where == tuple(range(len(where)))
                       else itemgetter(*where) if len(where) > 1
                       else lambda terms, o=where[0]: (terms[o],))
                answers = []
                leaf = frame.first_answer
                while leaf is not None:
                    terms = leaf.terms
                    answers.append(dict(zip(
                        names, terms if get is None else get(terms))))
                    leaf = leaf.next
                return answers, self.stats
        slots = {}
        nvars, _, body = self._compile((), goals, slots, _emit)
        outs = tuple(_Slot(slots[v], False, v.name) for v in qvars)
        answers = []
        put = _put(tuple(o.i for o in outs), None)
        body([None] * nvars, _Sink(self, None, outs, put, answers, names))
        self.run()
        return answers, self.stats


def _return(env, parent):
    """After a rule body: go on with the caller."""
    step, env, up = parent
    step(env, up)


def _emit(env, sink):
    """After a generator or query body: hand the result to the sink's put."""
    sink.put(env, sink)


def _renamed(terms):
    """An answer's terms with their variables renamed apart: each reader
    of a table gets its own, as a clause try does."""
    varmap = {}
    term_keys(terms, varmap)
    fresh = {v: Var(v.name) for v in varmap}
    return [instantiate(t, fresh) for t in terms]


def _over(limit):
    raise DerivationLimitError("derivation limit of %d exceeded" % limit)


def _raiser(message):
    """A goal step or an evaluator that raises when it runs."""
    def fail(*args):
        raise EvaluationError(message)
    return fail


# Python for the operators a run evaluates inline, by name: a program's
# text picks an entry but never reaches the source
_ARITH = {"+": "%s + %s", "-": "%s - %s", "*": "%s * %s", "/": "%s / %s",
          "min": "min(%s, %s)", "max": "max(%s, %s)"}
_COMPARE = {"=:=": "==", "=\\=": "!=", "=<": "<=", ">=": ">=", "<": "<",
            ">": ">"}
# whether value f matches term v: a compound unifies, as strict about
# types inside it as at the top, and anything else has v's type and value
_MATCH = ("({f} is {v} or (unify({v}, {f}, bind, trail) if type({v}) is Struct"
          " else type({f}) is type({v}) and {f} == {v}))")
# the same where v is an atom or a number, which unifies only with its equal
_MATCH_ATOM = "({f} is {v} or type({f}) is type({v}) and {f} == {v})"

# the types a fused run knows a value may hold: an `is` result's, and an
# atom or a number's
_NUMBER = frozenset((int, float))
_ATOMIC = _NUMBER | {str}

# CPython refuses a function that nests more than 20 for, while and try
# blocks (CO_MAXBLOCKS). Each fact goal of a run opens a for loop, and
# the code of any goal opens at most one more block inside them.
_RUN = 20 - 1

# The clauses of one tries function; a predicate of more gets one per
# _TRIES of them. Each clause adds about 290 characters to the source,
# and about 0.5 ms and 30 KiB to compiling it.
_TRIES = 16


# a call site's read of bound slot {0}, with its slow branch
_BOUND = """\
        v{0} = k{0} = env[{0}]
        if type(v{0}) is not int and type(v{0}) is not str:
            if v{0} is None:
                return switch(env, parent)
            v{0}, k{0} = _ground(v{0}, self.bind)
            if k{0} is None:
                return self._call_tabled(entry.name, specs, env, parent, nxt)"""

_serial = count(1)  # numbers the generated sources of this process


@lru_cache(maxsize=256)
def _code(kind, source):
    """Compile a generated source under a name of its own, whose lines
    linecache holds (an entry without a modification time, which
    checkcache keeps) until the source's code and functions are gone. One
    the cache evicted and meets again is compiled under a new name."""
    name = "<modetab %s %d>" % (kind, next(_serial))
    linecache.cache[name] = (len(source), None, _Lines(source), name)
    code = body = compile(source, name, "exec")
    for _ in range(2):  # make's code, then its function's: the last to go
        body = next(c for c in body.co_consts if type(c) is type(code))
    finalize(body, linecache.cache.pop, name, None)
    return code


class _Lines:
    """A source's lines for linecache, split when read: compiled late in a
    solve, it leaves no string per line to keep freed memory resident."""

    __slots__ = ("source",)

    def __init__(self, source):
        self.source = source

    def __len__(self):
        return len(self.source.splitlines(True))

    def __getitem__(self, k):
        return self.source.splitlines(True)[k]


class _Source:
    """A generated function's source, as its generator writes it: a
    make(D, *params) whose body's lines read constants d0, d1, ... from
    D and define the function named result, which make returns."""

    __slots__ = ("kind", "params", "result", "data", "lines")

    def __init__(self, kind, params, result):
        self.kind = kind  # run, deliver, site, tries or put: in its name
        self.params = params
        self.result = result
        self.data = []
        self.lines = []

    def const(self, v):
        """The name under which the source reads v."""
        self.data.append(v)
        return "d%d" % (len(self.data) - 1)

    def emit(self, depth, *texts):
        self.lines += ["    " * depth + text for text in texts]

    def make(self, *args):
        """Compile the source, once per distinct text, and run make in
        this module's globals, so traced functions are found at call
        time."""
        head = ["def make(%s):" % ", ".join(("D",) + self.params),
                "    %s = D" % _tup("d%d" % k for k in range(len(self.data)))]
        source = "\n".join(head + self.lines + ["    return " + self.result, ""])
        scope = {}
        exec(_code(self.kind, source), globals(), scope)
        return scope["make"](tuple(self.data), *args)


def _tup(items):
    """Python for a tuple display of the given expressions."""
    return "(%s)" % "".join(x + ", " for x in items)


def _loop(best):
    """The lines of a delivery loop, _deliver(self, consumer, event,
    resumed, bound), that per answer take the next into ans, check the
    limit (st and limit read before) and count. Without a bound the run
    is event alone; with one, every valid answer not seen whose seq is
    at most bound, read lazily past consumer.last, parked on each as it
    is read, so answers the deliveries add come too: in chain order, or
    given best (_best's pair; a walk's) best value first: the answers
    read pushed on a heap, (0, value, seq, answer), or (1, seq, answer)
    for a non-number, and the chain read again after each delivery."""
    first = "fr.first_answer if last is None else last.next"
    if not best:
        read = ["if bound is None:", "    if event is None:", "        return",
                "    ans, event = event, None", "else:",
                "    last = consumer.last", "    ans = " + first,
                "    while ans is not None and not ans.valid:",
                "        ans = ans.next", "    if ans is None or ans.seq"
                " > bound:", "        return", "    consumer.last = ans"]
    else:
        read = ["last = consumer.last", "ans = " + first,
                "while ans is not None:", "    if ans.valid:",
                "        consumer.last = ans", "        x = ans.terms[%d]"
                % best[0], "        heappush(heap, (0, %sx, ans.seq, ans) if"
                " type(x) is int or type(x) is float else (1, ans.seq, ans))"
                % ("-" if best[1] < 0 else ""), "    ans = ans.next",
                "if not heap:", "    return", "ans = heappop(heap)[-1]",
                "if not ans.valid:", "    continue"]
    return ["        fr = consumer.frame", "        entry = fr.entry"] + [
        "        heap = []"] * bool(best) + ["        while True:"] + [
        "            " + line for line in read + [
            "if st.derivations > limit:", "    _over(limit)",
            "st.propagations += 1", "if resumed:", "    st.resumptions += 1"]]


def _handed(plan):
    """Lines handing the answer's terms to the step in a copy of env,
    renamed if the entry is open (read per answer: a delivery may open
    it); given plan, a site consumer's, else with hplan's Vars bound."""
    out = ["if entry.open:", "    terms = _renamed(terms)", "work = list(env)"]
    if plan is not None:
        return out + ["work[%d] = terms[%d]" % ko for ko in plan] + [
            "step(work, parent)"]
    return out + ["for k, o in plan:", "    work[k] = terms[o]",
                  "if not hplan:", "    step(work, parent)", "else:",
                  "    for var, o in hplan:", "        bind[var] = terms[o]",
                  "    step(work, parent)", "    for var, o in hplan:",
                  "        del bind[var]"]


def _plain(best):
    """The plain delivery loop of one order (see _loop), _deliver(self,
    consumer, event, resumed, bound): it reads the fields once, logs each
    delivery of a traced engine and hands each answer to the step."""
    src = _Source("deliver", (), "_deliver")
    src.emit(1, "def _deliver(self, consumer, event, resumed, bound):")
    # the running walk's bindings stay: a completed read needs them, and
    # a suspended consumer's copies were resolved through them
    src.emit(2, "st = self.stats", "limit = self.limit", "bind = self.bind",
             "events = self.events", *("%s = consumer.%s" % (f, f) for f in (
                 "plan", "hplan", "step", "env", "parent")))
    src.lines += _loop(best)
    src.emit(3, "if events is not None:", "    self._log('deliver', frame=fr."
             "name(), seq=ans.seq, consumer=consumer.cid, host=(consumer.host"
             ".name() if consumer.host is not None else None), complete=fr."
             "complete, resumed=resumed)", "terms = ans.terms", *_handed(None))
    return src.make()


# the plain delivery loops, one per order, made once per process; chain
# order's, which every engine uses, at import, so that its code is not
# left among the first solve's memory
_PLAIN = _Loops()
_PLAIN.make = _plain
_PLAIN[None]


def _generate(ops, put, free, plan=None, best=None):
    """The source of a run of inline goals, specialised to free, the slots
    None at entry (bar those the run binds first), and to put, a table's
    put where the run ends its clause body, else None: make(D, self,
    put, nxt, general, switch) returns the run's step. Each fact goal is
    a for loop over its candidate rows, arithmetic is straight-line code
    and a comparison an if. The step hands a call of another put or
    pattern to switch, and one whose walk has bindings or that reads at
    entry what it cannot take to general, the goals' closures (see
    Engine._run_step). So it knows which slots a goal binds or matches
    and whether a key can be a compound; values are ground and stay in
    locals. A slot read at entry must be an atom or a number (a number
    where arithmetic reads it), and a row value is checked as far as its
    column's types need. It never checks a slot the run binds first: the
    closures leave those written. At the innermost point, a run with a
    put has the put's store, which leaves each row by continue (return
    outside a loop); any other writes the slots it bound into env, calls
    nxt(env, parent) and sets them back to None. None where an `is`
    would unify. The source is made of slot numbers, argument positions
    and the tables above: constants, variable names, fact tables and
    compiled terms come in D.

    Given also plan and best (see _loop), it is the run's delivery loop:
    make(D, self, put, plan, switch, plain) returns a _deliver that runs
    the fused run on each answer, the plan's slots read from it. A step's
    per-call checks are made per run where they read env (another put,
    plan or pattern to switch, what it cannot take to plain) and per
    answer where they read it (to the step, as plain would, as is an
    open entry's). Also None where the answer would hold an unbound slot.
    """
    loop = plan is not None
    if loop:
        src = _Source("deliver", ("self", "put", "plan", "switch", "plain"),
                      "_deliver")
        src.emit(1, "def _deliver(self, consumer, event, resumed, bound):")
    else:
        src = _Source("run", ("self", "put", "nxt", "general", "switch"),
                      "step")
        src.emit(1, "st = self.stats", "def step(env, parent):")
    const, emit = src.const, src.emit
    at = len(src.lines)  # where the per-call lines go
    temps = [0]
    answer = dict(plan or ())  # per slot the plan writes, its ordinal
    # the slots read at entry (see read) and those arithmetic reads; the
    # store's per-call and per-answer lines (see _put_source)
    entry, pattern, numbers, call, each = {}, {}, set(), [], []
    heads = {2: (call, 2, [
        "return plain(self, consumer, event, resumed, bound)" if loop
        else "return general(env, parent)"]), 1: (each, 3, None)}

    def read(i, known, match=True):
        """The local for slot i and the types it may hold (None for any);
        of one read at entry, note whether a goal or the store reads it
        and, unless the plan writes it, whether it is None."""
        if i in known:
            return known[i]
        entry[i] = entry.get(i) or match
        if i not in answer:
            pattern[i] = i in free
        return "s%d" % i, _ATOMIC if match else None

    def value(e, depth, known):
        """Emit the evaluation of compiled arithmetic, left to right;
        returns the name that holds its value."""
        if type(e) is not _Slot and type(e) is not tuple:
            return const(e)
        if type(e) is _Slot:
            v, types = read(e.i, known, False)
            if e.i not in known:  # checked at entry
                numbers.add(e.i)
            if e.i in numbers or types <= _NUMBER:
                return v
        temps[0] += 1
        x = "a%d" % temps[0]
        if type(e) is tuple:
            a = value(e[1], depth, known)
            emit(depth, "%s = %s" % (x, _ARITH[e[0]] % (
                a, value(e[2], depth, known))))
            return x
        emit(depth, "%s = %s" % (x, v),
             "if type(%s) is not int and type(%s) is not float:" % (x, x),
             "    %s = _number(%s, %s, bind)" % (x, x, const(e.name)))
        return x

    def evaluate(exprs, depth, known):
        if not any(map(_divides, exprs)):
            return [value(e, depth, known) for e in exprs]
        emit(depth, "try:")
        names = [value(e, depth + 1, known) for e in exprs]
        emit(depth, "except ZeroDivisionError:")
        emit(depth + 1, 'raise EvaluationError("division by zero") from None')
        return names

    def goals(j, depth, known, loops=False):
        """Emit goal j and the goals after it, or return False where an
        `is` would unify or a loop's answer would hold a slot left
        unbound. known maps the slots that this function has bound around
        them to read's pair; loops is whether a fact goal encloses the
        point."""
        if j == len(ops) and put is None:
            emit(depth, *("env[%d] = %s" % (i, known[i][0]) for i in known))
            emit(depth, "nxt(env, parent)")
            emit(depth, *("env[%d] = None" % i for i in known))
            return True
        if j == len(ops):
            shape, subst_modes = put.shape
            pattern.update((i, True) for i in shape if i in free)
            vals = []  # see _put_source
            for i in shape:
                if i in known:
                    vals.append((known[i][0], 0, known[i][1]))
                elif i < 0 or i in free:
                    if loop and i >= 0:
                        return False
                    vals.append(None)
                else:  # checked at entry
                    vals.append((read(i, known)[0], 1 if i in answer else 2,
                                 _NUMBER if i in numbers else _ATOMIC))
            _put_source(shape, subst_modes, src, depth, vals,
                        "continue" if loops or loop else "return", heads)
            return True
        op = ops[j]
        if op[0] == "cmp":
            emit(depth, "st.derivations += 1")
            x, y = evaluate(op[2:], depth, known)
            emit(depth, "if %s %s %s:" % (x, _COMPARE[op[1]], y))
            return goals(j + 1, depth + 1, known, loops)
        if op[0] == "is":
            _, left, e = op
            if type(left) is not _Slot or left.i in known or not (
                    left.first or left.i in free):
                return False
            emit(depth, "st.derivations += 1")
            x, = evaluate([e], depth, known)
            if not left.first:
                pattern[left.i] = True
            return goals(j + 1, depth, {**known, left.i: (x, _NUMBER)}, loops)
        _, rows, index, specs = op
        dr, di, r = const(rows), const(index), "r%d" % j
        # it binds first occurrences and unbound slots None at entry
        binds = {k: s for k, s in enumerate(specs) if type(s) is _Slot
                 and (s.first or s.i in free and s.i not in known)}
        # the index key is as strict as a match: an atom or a number at
        # position 0 needs no check
        s = specs[0]
        if type(s) is not _Slot:
            cands = const(index.get(fact_key(s), ()))
        elif 0 in binds:
            cands = dr
        else:
            cands, v = "c%d" % j, read(s.i, known)[0]
            emit(depth, "if type(%s) is str or type(%s) is int:" % (v, v),
                 "    %s = %s.get(%s, ())" % (cands, di, v), "else:",
                 "    %s = %s.get(fact_key(%s), ())" % (cands, di, v))
        emit(depth, "for %s in %s:" % (r, cands))
        emit(depth + 1, "st.derivations += 1")
        for k, s in enumerate(specs):
            if k in binds:
                continue
            v, types = read(s.i, known) if type(s) is _Slot else (
                const(s), None if type(s) is Struct else _ATOMIC)
            # the index key matched any other
            if k > 0 or types is None or Struct in types:
                emit(depth + 1, "if not %s:" % _MATCH_ATOM.format(
                    f="%s[%d]" % (r, k), v=v), "    continue")
        known = dict(known)
        for k, s in binds.items():
            emit(depth + 1, "s%d = %s[%d]" % (s.i, r, k))
            known[s.i] = ("s%d" % s.i,
                          frozenset(type(row[k]) for row in rows))
            if not s.first:
                pattern[s.i] = True
        return goals(j + 1, depth + 1, known, True)

    if not goals(0, 3 if loop else 2, {}):
        return None

    def checks(slots):
        """What, in a slot read at entry, the run cannot take."""
        return ["type(s%d) is not int and type(s%d) is not float" % (i, i)
                if i in numbers else
                "type(s%d) is Var or type(s%d) is Struct" % (i, i)
                for i in slots if i in numbers or entry[i]]

    # the per-call lines: entry reads, the put and pattern guard, the
    # binds-nothing check, and the store's; a loop's per-answer lines
    reads = [i for i in sorted(entry) if i not in answer]
    top = ["s%d = env[%d]" % (i, i) for i in reads]
    guard = " or ".join(["parent.put is not put"] * (put is not None) + [
        "env[%d] is not None" % i if none else "s%d is None" % i
        for i, none in sorted(pattern.items())])
    leave = "bind = self.bind", "if %s:" % " or ".join(
        ["bind"] + checks(reads))
    if not loop:
        top += ["if %s:" % guard, "    return switch(env, parent)"] * bool(
            guard) + [*leave, "    return general(env, parent)"]
        src.lines[at:at] = ["        " + line for line in top] + call
        return src
    args = "(self, consumer, event, resumed, bound)"
    later = [i for i in sorted(entry) if i in answer]
    top = ["env = consumer.env", "parent = consumer.parent",
           "step = consumer.step", *top,
           "if consumer.plan != plan or consumer.hplan or %s:" % guard,
           "    return switch" + args, *leave, "    return plain" + args]
    per = ["terms = ans.terms"] + [
        "s%d = terms[%d]" % (i, answer[i]) for i in later] + [
        "if %s:" % " or ".join(["entry.open"] + checks(later))] + [
        "    " + line for line in _handed(plan) + ["continue"]]
    src.lines[at:at] = (["        " + line for line in top] + call
                        + _loop(best) + ["            " + line for line in per]
                        + each)
    return src


def _tries_source(clauses, link, subst_modes):
    """The source of the tries of some clauses under one generator call
    shape, whose make(D) returns tries(engine, frame, args, subst).

    It tries each clause in order, as _clause_copy does: count
    the derivation and check the limit, match each head argument that
    no link names, or that holds a compound with variables, against the
    call's, and run the body on a fresh activation that holds the first
    occurrences and a sink of the clause's outs and put. An output
    whose argument a link names is the head's term, read by the put
    from its slot or from outs; any other is the call's variable in
    subst, which the put resolves through the head's bindings. Where
    every call variable is linked, the unlinked arguments are ground,
    so a head that holds no compound with variables binds nothing: an
    atom or a number is tested inline, a repeated variable by _MATCH, a
    compound by unify, and every body step undoes its own bindings.
    Any other head meets the call through Engine._unify, and the
    bindings are cleared after the clause. The source is made of slot
    numbers, argument positions and counts; bodies, constants, outs and
    puts come in D.
    """
    src = _Source("tries", (), "tries")
    const, emit = src.const, src.emit
    n = sum(count for _, count, _ in subst_modes)
    ground = len(link) - link.count(None) == n
    emit(1, "def tries(engine, frame, args, subst):")
    emit(2, "st = engine.stats", "limit = engine.limit", "bind = engine.bind",
         "trail = engine.trail", "%s = args" % _tup(
             "a%d" % k for k in range(len(link))))
    for size, head, body in clauses:
        emit(2, "st.derivations += 1", "if st.derivations > limit:",
             "    _over(limit)")
        plain = ground and _Tmpl not in map(type, head)  # binds nothing
        tests = []
        env = ["None"] * size  # the fresh activation
        seen = {}
        shape = [-1] * n  # per ordinal, the slot the put reads
        outs = [None] * n
        for k, (s, o) in enumerate(zip(head, link)):
            a = "a%d" % k
            if o is not None and type(s) is not _Tmpl:
                outs[o] = s
                if type(s) is _Slot:
                    shape[o] = s.i
            elif type(s) is _Slot and (s.first or plain and s.i not in seen):
                seen[s.i] = env[s.i] = a
            elif not plain:
                tests.append("engine._unify(%s, %s, env, [])" % (const(s), a))
            elif type(s) is _Slot:
                tests.append(_MATCH.format(f=a, v=seen[s.i]))
            elif type(s) is Struct:
                tests.append("unify(%s, %s, bind, trail)" % (const(s), a))
            else:
                tests.append(_MATCH_ATOM.format(f=a, v=const(s)))
        if any(s is None for s in outs):
            outs = _tup("subst[%d]" % o if s is None else const(s)
                        for o, s in enumerate(outs))
        else:
            outs = const(tuple(outs))  # shared by every try
        env = "[%s]" % ", ".join(env)
        if not plain:
            emit(2, "env = " + env)
            env = "env"
        if tests:
            emit(2, "if %s:" % " and ".join(tests))
        emit(2 + bool(tests), "%s(%s, _Sink(engine, frame, %s, %s))" % (
            const(body), env, outs, const(_put(tuple(shape), subst_modes))))
        if not plain:
            emit(2, "bind.clear()", "trail.clear()")
    return src


def _site_source(entry, specs, free):
    """The source of a call site's step under one pattern, free the
    slots unbound at the call: make(D, self, entry, specs, nxt, switch)
    returns the step the module docstring describes. The source is made
    of slot numbers; constants and their keys, variable tokens and
    names, link, counts and plan come in D.
    """
    src = _Source("site", ("self", "entry", "specs", "nxt", "switch"), "step")
    const, emit = src.const, src.emit
    emit(1, "calls = entry.calls", "def step(env, parent):")
    args, link = [None] * len(specs), [None] * len(specs)
    key, counts, subst, fresh, plan = [], [], [], [], []
    keys = {}  # per slot read, the name of its key
    for pos, _ in entry.mode_array:
        s = specs[pos - 1]
        new = type(s) is _Slot and s.i not in keys
        counts.append(int(new and s.i in free))
        if type(s) is not _Slot:
            k, = term_keys((s,))
            key.append(const(k))
            args[pos - 1] = key[-1] if k is s else const(s)
            continue
        if new and s.i in free:
            same = [t for t in specs if type(t) is _Slot and t.i == s.i]
            if not any(t.first for t in same):
                emit(2, "if env[%d] is not None:" % s.i,
                     "    return switch(env, parent)")
            if len(same) == 1:
                link[pos - 1] = len(subst)
            plan.append((s.i, len(subst)))
            keys[s.i] = const(var_token(len(subst)))
            subst.append("v%d" % s.i)
            fresh.append("v%d = Var(%s)" % (s.i, const(s.name)))
        elif new:
            keys[s.i] = "k%d" % s.i
            emit(0, _BOUND.format(s.i))
        key.append(keys[s.i])
        args[pos - 1] = "v%d" % s.i
    emit(2, "key = " + _tup(key), "frame = calls.get(key)", "if frame is None:")
    emit(3, *fresh)
    emit(3, "frame = subgoal_lookup_insert(entry, key, %s)[0]"
         % const(tuple(counts)), "self._start(frame, %s, %s, %s)"
         % (_tup(args), const(tuple(link)), _tup(subst)))
    emit(2, "self._consume(frame, %s, (), env, parent, nxt)"
         % const(tuple(plan)))
    return src


def _ground(v, bind):
    """A bound slot's term resolved through bind, and its key, or None
    for the key when the term holds an unbound variable."""
    v = resolve(v, bind)
    varmap = {}
    k, = term_keys((v,), varmap)
    return v, None if varmap else k


@lru_cache(maxsize=256)
def _put(shape, subst_modes):
    """The put of one sink shape: per answer ordinal, the slot its value
    is read from, or -1 to read the sink's outs; subst_modes is the
    frame's substitution array, None for a query's sink; both are its
    shape attribute, for the runs that fuse its store."""
    put = _put_source(shape, subst_modes).make()
    put.shape = (shape, subst_modes)
    return put


def _put_source(shape, subst_modes, src=None, depth=2, vals=None,
                exit="return", heads=None):
    """The source of a put(env, sink), whose make(D) returns it: check
    the derivation limit, read the outputs (an unbound slot gets a Var;
    with bindings, each is resolved through them), then append a query's
    answer or store a frame's.

    An answer made of atoms and numbers is walked down the answer trie
    inline, segment by segment of the insertion plan, in the layout
    modes.leaf_depth gives it. Each ordinal that is a trie level is
    keyed: an atom or an integer is its own key, a float v the key
    (FLT, v). Where the last index key holds the answer's record, a
    stored min/max witness or sum total is read from the record's
    terms; where each ordinal is a level, from its node's one key, a sum
    total stored as (FLT, total) when it is a float. A witness whose
    value has the candidate's type is compared inline; one of another
    type (an integer against a float, a number against an atom, or a
    compound) is compared by modes.beats, so a numeric tie between an
    integer and a float keeps the stored witness. Where the walk first
    leaves the trie, the put grows the rest of the path as one nested
    dict display ending in the new AnswerLeaf and chains the leaf. A
    beaten witness, a last value or a sum total is replaced: a record
    under the last index key is tagged invalid and counted, and the new
    one stored under the same key; otherwise drop_below pops the
    branches it replaces and the new path grows in their place. A
    duplicate, a worse witness or a later first is rejected inline. Any
    other answer, and every answer of a plan whose min, max or sum spans
    more than one ordinal, goes to _general. The walk changes nothing
    before it has decided, so that fallback finds the table as it was.
    Only a traced insertion, or one that changed a table with a
    consumer that does not settle, calls _announce. The source is made
    of slot numbers, ordinals and mode names only.

    Given src, a run's that binds nothing (see _generate), it writes the
    store there at depth instead, leaving by exit: vals gives per
    ordinal the run's local for its value, where it is fixed (0 per row,
    1 per answer a loop delivers, 2 per call) and the types it may hold
    (None for any; they may spare a check), or None to read it as a put
    does. heads maps 2, and in a loop 1, to the lines where what is fixed
    there is read and keyed, their depth, and the lines that hand the
    call on (a complete table, an out not an atom or a number).
    """
    fused = src is not None
    if not fused:
        src = _Source("put", (), "put")
        src.emit(1, "def put(env, sink):")
        vals = [None] * len(shape)
    sink = "parent" if fused else "sink"

    def emit(rel, *texts):  # per row, rel deeper than the store
        src.emit(depth + rel, *texts)

    def writer(level):
        """Where the lines of a value fixed at level go."""
        if not fused or not level:
            return emit
        lines, d, _ = heads[level]
        return lambda rel, *texts: lines.extend("    " * (d + rel) + text
                                                for text in texts)

    def general(level, rel):
        """Hand the answer to _general, or what is fixed at level on."""
        writer(level)(rel, *heads[level][2] if fused and level else (
            "_general(engine, frame, %s)" % row, exit))

    n = len(shape)
    names = [v[0] if v else "v%d" % o for o, v in enumerate(vals)]
    level = [v[1] if v else 2 if shape[o] < 0 else 0
             for o, v in enumerate(vals)]
    call = writer(2)
    call(0, "engine = %s.engine" % sink, "st = engine.stats",
         "limit = engine.limit")
    emit(0, "if st.derivations > limit:", "    _over(limit)")
    for o, i in enumerate(shape):
        v = names[o]
        if vals[o] is None and i < 0:
            call(0, "%s = %s.outs[%d]" % (v, sink, o))
        elif vals[o] is None:
            emit(0, "%s = env[%d]" % (v, i), "if %s is None:" % v,
                 "    %s = env[%d] = Var(%s.outs[%d].name)" % (v, i, sink, o))
    if n and not fused:
        emit(0, "bind = engine.bind")
        emit(0, "if bind:")
        for v in names:
            emit(1, "%s = resolve(%s, bind)" % (v, v))
    row = _tup(names)
    if subst_modes is None:
        emit(0, "sink.answers.append(dict(zip(sink.names, %s)))" % row)
        return src
    call(0, "frame = %s.frame" % sink)

    segments = build_segments(subst_modes)
    if any(hi - lo != 1 for mode, lo, hi, _ in segments
           if mode in ("min", "max", "sum")):
        general(0, 0)
        return src

    # the ordinals below leaf_at are the trie levels above the record;
    # with leaf_at 0, every ordinal is a level
    leaf_at = leaf_depth(segments)
    levels = leaf_at or n
    sums = [lo for mode, lo, _, _ in segments if mode == "sum"]
    call(0, "root = frame.root", "if root is None:")
    general(2, 1)
    emit(0, "node = root")
    # per level, its value's key: the value where it can only be an atom
    # or an integer, else t<o>; a sum's takes numbers only and changes
    keys = []
    for o, v in enumerate(names):
        at = 0 if o in sums else level[o]
        write = writer(at)
        types = vals[o] and vals[o][2]
        ok = _NUMBER if o in sums else _ATOMIC
        if o >= levels:
            if types is None or not types <= ok:
                write(0, "if type(%s) is not int%s and type(%s) is not float:"
                      % (v, "" if o in sums else " and type(%s) is not str"
                         % v, v))
                general(at, 1)
            continue
        ok = ok - {float}
        if types is not None and types <= ok and o not in sums:
            keys.append(v)
            continue
        keys.append("t%d" % o)
        write(0, "t%d = %s" % (o, v))
        if types is not None and types <= ok | {float}:
            write(0, "if type(%s) is float:" % v)
        else:
            write(0, "if type(%s) is not int:" % v if o in sums else
                  "if type(%s) is not int and type(%s) is not str:" % (v, v))
            write(1, "if type(%s) is not float:" % v)
            general(at, 2)
        write(1, "t%d = (FLT, %s)" % (o, v))
    if sums:
        emit(0, "total = %s" % names[sums[0]])
    # what is stored: a sum's total in place of the candidate's value
    terms = _tup("total" if o in sums else v for o, v in enumerate(names))
    total = "total" if sums else "None"

    def grow(d, at, kind):
        """Store the answer below node from ordinal at on; a replacement
        first drops what is below node, or the record old."""
        dropped = "0"
        if kind in ("REPLACED", "SUM_UPDATED") and leaf_at:
            dropped = "1"
            emit(d, "old.valid = False", "frame.n_invalidated += 1",
                 "st.invalidations += 1")
        elif kind in ("REPLACED", "SUM_UPDATED"):
            dropped = "dropped"
            emit(d, "dropped = drop_below(frame, node)")
            emit(d, "st.invalidations += dropped")
        elif kind != "NEW":  # decided before node changes
            emit(d, "kind = %s" % kind)
            kind = "kind"
        emit(d, "frame.n_inserted += 1")
        emit(d, "leaf = AnswerLeaf(frame.n_inserted, %s)" % terms)
        if at < levels:
            path = "leaf"
            for o in range(levels - 1, at, -1):
                path = "{%s: %s}" % (keys[o], path)
            emit(d, "node[%s] = %s" % (keys[at], path))
        emit(d, "if frame.last_answer is None:")
        emit(d + 1, "frame.first_answer = leaf")
        emit(d, "else:")
        emit(d + 1, "frame.last_answer.next = leaf")
        emit(d, "frame.last_answer = leaf")
        emit(d, "st.insertions += 1")
        emit(d, "if engine.events is not None or frame.generator.eager:")
        emit(d + 1, "_announce(engine, frame, %s, leaf, %s, %s)"
             % (kind, dropped, total))
        emit(d, exit)

    def reject(d):
        emit(d, "st.insertions += 1")
        emit(d, "if engine.events is not None:")
        emit(d + 1, "_announce(engine, frame, REJECTED, None, 0, None)")
        emit(d, exit)

    if not segments:  # a fully bound call: its one answer is "yes"
        emit(0, "if frame.first_answer is None:")
        grow(1, 0, "NEW")
    for j, (mode, lo, hi, _) in enumerate(segments):
        v = names[lo]
        if mode == "index" or mode == "all":
            for t in range(lo, hi):
                if t == leaf_at - 1:  # the last index key holds the record
                    emit(0, "old = node.get(%s)" % keys[t])
                    emit(0, "if old is None:")
                    grow(1, t, "NEW")
                    continue
                emit(0, "c = node.get(%s)" % keys[t])
                emit(0, "if c is None:")
                grow(1, t, "ADDED if node else NEW" if mode == "all"
                     else "NEW")
                if t + 1 < hi or j + 1 < len(segments):
                    emit(0, "node = c")
            continue
        at = leaf_at - 1 if leaf_at else lo  # where a replacement is stored
        if not leaf_at:
            emit(0, "if not node:")
            grow(1, lo, "NEW")
        if mode == "first":
            break
        if mode == "last":
            grow(0, at, "REPLACED")
            return src
        if mode == "sum" and leaf_at:
            emit(0, "total = old.terms[%d] + %s" % (lo, v))
            grow(0, at, "SUM_UPDATED")
            return src
        if leaf_at:  # min, max: the witness w is the record's value
            emit(0, "w = old.terms[%d]" % lo)
            emit(0, "if type(w) is not type(%s):" % v)
            emit(1, "c, s = term_keys((%s, w))" % v)
            emit(1, "if beats((c,), (s,), %d):"
                 % (-1 if mode == "min" else 1))
            grow(2, at, "REPLACED")
            reject(1)
            emit(0, "if %s %s w:" % (v, "<" if mode == "min" else ">"))
            grow(1, at, "REPLACED")
            emit(0, "if %s != w:" % v)
            reject(1)
            continue
        emit(0, "s = next(iter(node))")
        if mode == "sum":  # a stored total is an int or (FLT, total)
            emit(0, "total = (s if type(s) is int else s[1]) + %s" % v)
            emit(0, "%s = (FLT, total) if type(total) is float else total"
                 % keys[lo])
            grow(0, lo, "SUM_UPDATED")
            return src
        # min, max: w is the witness's value; one of the candidate's type
        # compares as it is, any other through beats
        emit(0, "if s != %s:" % keys[lo])
        emit(1, "w = s[1] if type(s) is tuple and s[0] == FLT else s")
        emit(1, "if type(w) is type(%s):" % v)
        emit(2, "better = %s %s w" % (v, "<" if mode == "min" else ">"))
        emit(1, "else:")
        emit(2, "better = beats((%s,), (s,), %d)"
             % (keys[lo], -1 if mode == "min" else 1))
        emit(1, "if better:")
        grow(2, lo, "REPLACED")
        reject(1)
        if j + 1 < len(segments):
            emit(0, "node = node[s]")
    reject(0)  # every token matched: a duplicate
    return src


def _general(engine, frame, vals):
    """Store an answer through insert_answer, count and announce it."""
    o = insert_answer(frame, vals)
    st = engine.stats
    st.insertions += 1
    st.invalidations += o.invalidated
    _announce(engine, frame, o.kind, o.leaf, o.invalidated, o.total)


def _announce(engine, frame, kind, leaf, dropped, total):
    """Log an insertion's trace event and, if it changed the table,
    queue it for each consumer that does not settle (batched only)."""
    if engine.events is not None:
        engine._log("insert", frame=frame.name(), outcome=kind,
                    invalidated=dropped,
                    seq=leaf.seq if leaf is not None else None, total=total)
    eager = frame.generator.eager
    if eager and kind is not REJECTED:
        engine.tasks.extend(("event", consumer, leaf) for consumer in eager)


def _divides(e):
    return type(e) is tuple and (e[0] == "/" or _divides(e[1])
                                 or _divides(e[2]))


def _number(v, name, bind):
    """The arithmetic value of what a slot holds."""
    while type(v) is Var:
        v = bind.get(v)
    if v is None:
        raise EvaluationError("unbound variable %s in arithmetic" % name)
    if type(v) is int or type(v) is float:
        return v
    return eval_arith(v, bind)


def _value(e, env, bind):
    """The value of compiled arithmetic (see Engine._compile) in env, as
    a generated run evaluates it: left to right, each slot by _number."""
    if type(e) is _Slot:
        return _number(env[e.i], e.name, bind)
    if type(e) is not tuple:
        return e
    x, y = _value(e[1], env, bind), _value(e[2], env, bind)
    try:
        return ARITH_OPS[e[0]](x, y)
    except ZeroDivisionError:
        raise EvaluationError("division by zero") from None


def _build(s, env):
    """The term a compiled term stands for; unbound slots get a Var."""
    ts = type(s)
    if ts is _Slot:
        if not s.first:
            v = env[s.i]
            if v is not None:
                return v
        v = env[s.i] = Var(s.name)
        return v
    if ts is _Tmpl:
        return instantiate(s.term, {v: _build(o, env) for v, o in s.slots})
    return s


def _host(parent):
    """The frame whose evaluation a call sits in; None under a query."""
    while type(parent) is tuple:
        parent = parent[2]
    return parent.frame


def _best(frame):
    """For an incomplete frame whose first min/max column is a single
    free variable: that column's answer ordinal, and 1 for min or -1
    for max. None otherwise."""
    args = frame.generator.args
    ordinal = 0
    for mode, n, pos in frame.subst_modes:
        if mode == "min" or mode == "max":
            if n == 1 and type(args[pos - 1]) is Var:
                return ordinal, 1 if mode == "min" else -1
            return None
        ordinal += n
    return None


def _pending(consumer):
    """Whether the consumer's frame holds a valid answer it has not seen."""
    last = consumer.last
    leaf = consumer.frame.first_answer if last is None else last.next
    while leaf is not None and not leaf.valid:
        leaf = leaf.next
    return leaf is not None


def _tarjan(nodes, adj):
    """Strongly connected components, iteratively; sinks come out first."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work.pop()
            if pi == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            deeper = False
            edges = adj[node]
            while pi < len(edges):
                succ = edges[pi]
                pi += 1
                if succ not in index:
                    work.append((node, pi))
                    work.append((succ, 0))
                    deeper = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if deeper:
                continue
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member is node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def solve(program, query, strategy="local", limit=DEFAULT_LIMIT, trace=False):
    """One-shot evaluation; see Engine.solve."""
    engine = Engine(program, strategy, limit, trace)
    answers, stats = engine.solve(query)
    return answers, stats
