"""Tabled resolution over the mode-directed table space.

Each clause is compiled once, on the first call of its predicate: its
variables become numbered slots, each occurrence marked first or not,
and its body a chain of closures, one per goal, each binding what its
argument slots and compiled arithmetic say before calling the next. A
builtin whose operands are not arithmetic over numbers and bound
variables runs through lang.eval_builtin instead. An activation is a
list of slot values, None while unbound; a clause try renames its
clause apart by making a fresh one. A variable that must outlive its
activation unbound (inside a compound, or passed to a non-tabled rule)
gets a Var, bound in a per-walk dict with a trail.

A call to a tabled predicate starts a generator (first call), reads a
completed table inline, or suspends: a consumer keeps the next goal's
closure and copies of the activation and its callers, and resumes once
per delivered answer. How answers reach consumers depends on the
frame's scheduling strategy:

* batched: every table-changing insertion is pushed to all registered
  consumers right away, plus a bounded catch-up walk at registration
  time. Consumers may observe answers that a later insertion
  invalidates.
* local: consumers get nothing until the task queue drains. Completion
  works on the strongly connected components of the dependency graph
  between incomplete frames, kept as calls suspend: each component
  counts the calls its members have suspended on frames outside it. In
  a component whose count is zero, consumers inside it are walked to a
  fixpoint, the component completes, its callers' counts drop, and only
  the surviving answers are released to outside callers, in chain
  order. When no component is free, Tarjan's algorithm over the
  components' wait edges finds a set of them that wait only on each
  other, and that set is contracted into one component.

A walk inside a component follows the answer chain, except when the
frame's first min/max column is a single free variable and no member
of the component has a first, last or sum column. Then the walk keeps
a heap of the pending answers and delivers the best value first
(numbers before anything else, ties and non-numbers in chain order),
as Dijkstra's algorithm does; on a graph with non-negative weights no
answer that a better one supersedes is delivered. first, last and sum
are left out because what they keep depends on the order or the
number of deliveries.
"""

import functools
import operator
from collections import deque
from heapq import heappop, heappush

from .errors import DerivationLimitError, EvaluationError
from .lang import (ARITH_OPS, COMPARE, decompose_goal, eval_arith, eval_builtin,
                   fact_key, is_builtin, parse_query)
from .modes import REJECTED, compile_declaration, insert_answer, traditional_modes
from .terms import (Struct, Var, instantiate, resolve, term_to_str, tokenize,
                    unify)
from .tries import (TableSpace, complete_table, depend, iterate_answers, merge,
                    release, subgoal_lookup_insert, waited_on)

__all__ = ["Engine", "Stats", "solve", "DEFAULT_LIMIT"]

DEFAULT_LIMIT = 5_000_000


class Stats:
    __slots__ = (
        "derivations",
        "insertions",
        "invalidations",
        "propagations",
        "resumptions",
    )

    def __init__(self):
        self.derivations = 0
        self.insertions = 0
        self.invalidations = 0
        self.propagations = 0
        self.resumptions = 0

    def as_dict(self):
        return {
            "derivations": self.derivations,
            "insertions": self.insertions,
            "invalidations": self.invalidations,
            "propagations": self.propagations,
            "resumptions": self.resumptions,
        }

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
    terms resolved when the derivation suspended."""

    __slots__ = ("engine", "frame", "outs", "get", "answers", "names")

    def __init__(self, engine, frame, outs, answers=None, names=None):
        self.engine = engine
        self.frame = frame
        self.outs = outs
        # reads every output at once when all are slots
        self.get = (_getter(tuple(o.i for o in outs))
                    if all(type(o) is _Slot for o in outs) else None)
        self.answers = answers
        self.names = names


class Consumer:
    """A suspended tabled call: where it reads and how to go on.

    plan maps answer ordinals to slots of env that were unbound at the
    call, hplan to Vars; step(env, parent) runs the rest of the
    derivation. env and the callers in parent were copied when the call
    suspended.
    """

    __slots__ = ("frame", "host", "plan", "hplan", "step", "env", "parent",
                 "last", "cid")

    def __init__(self, frame, host, plan, hplan, step, env, parent, cid):
        self.frame = frame
        self.host = host  # frame whose evaluation this call sits in, or None
        self.plan = plan  # tuple of (slot, answer ordinal)
        self.hplan = hplan  # tuple of (Var, answer ordinal)
        self.step = step
        self.env = env
        self.parent = parent
        self.last = None  # chain position for walk-style delivery
        self.cid = cid


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
        self._code = {}
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

    def frame_strategy(self, name, arity):
        return self.program.strategy_overrides.get((name, arity), self.strategy)

    # -- compilation -----------------------------------------------------

    def _clauses(self, name, arity):
        """Compiled clauses: (slot count, head, body step) each."""
        code = self._code.get((name, arity))
        if code is None:
            # tabled clauses only run as generators, others under a caller
            last = _emit if self.program.is_tabled(name, arity) else _return
            code = self._code[(name, arity)] = [
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
        maker that, given the next goal's closure, returns its own.
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
                tokenize((t,), seen)
                if seen:
                    return _Tmpl(t, tuple((v, term(v)) for v in seen))
            return t

        def compiles(t):
            """Whether t is arithmetic over numbers and bound variables."""
            tt = type(t)
            if tt is Var:
                return t in slots
            if tt is Struct:
                return (len(t.args) == 2 and t.name in ARITH_OPS
                        and compiles(t.args[0]) and compiles(t.args[1]))
            return tt is int or tt is float

        def expr(t):
            """An operand (slot or -1, number, name) or an evaluator."""
            tt = type(t)
            if tt is int or tt is float:
                return (-1, t, None)
            if tt is Var:
                s = term(t)
                return (s.i, None, s.name)
            return self._apply(ARITH_OPS[t.name], expr(t.args[0]),
                               expr(t.args[1]))

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
                ev = self._evaluator(expr(args[1]))
                s = term(args[0])
                return lambda nxt: self._is_step(s, ev, nxt)
            if name == "=" and arity == 2:
                right = term(args[1])
                left = term(args[0])

                def make(nxt):
                    def step(env, parent):
                        st.derivations += 1
                        self._then(left, _build(right, env), env, parent, nxt)
                    return step
                return make
            if name in COMPARE and all(map(compiles, args)):
                fn = COMPARE[name]
                ea = self._evaluator(expr(args[0]))
                eb = self._evaluator(expr(args[1]))

                def make(nxt):
                    def step(env, parent):
                        st.derivations += 1
                        if fn(ea(env), eb(env)):
                            nxt(env, parent)
                    return step
                return make
            if is_builtin(name, arity):
                # what the compiler does not take apart (a variable not
                # bound yet, an atom where a number belongs) is left to
                # lang; `is` reads its right side first
                order = (1, 0) if name == "is" else (0, 1)
                specs = [(k, term(args[k])) for k in order]

                def make(nxt):
                    def step(env, parent):
                        st.derivations += 1
                        vals = [None, None]
                        for k, s in specs:
                            vals[k] = _build(s, env)
                        trail = self.trail
                        m = len(trail)
                        if eval_builtin(name, vals, self.bind, trail):
                            nxt(env, parent)
                        while len(trail) > m:
                            del self.bind[trail.pop()]
                    return step
                return make
            specs = tuple(term(a) for a in args)
            if self.program.is_tabled(name, arity):
                call = self._call_tabled
            elif not self.program.clauses_for(name, arity):
                msg = "unknown predicate %s/%d" % (name, arity)
                return lambda nxt: _raiser(msg)
            elif self.program.facts(name, arity):
                rows, index = self.program.facts(name, arity)
                return lambda nxt: self._facts_step(rows, index, specs, nxt)
            else:
                call = self._call_rules
            return lambda nxt: (
                lambda env, parent: call(name, specs, env, parent, nxt))

        head = tuple(term(a) for a in head)
        step = last
        for make in reversed([goal(g) for g in body]):
            step = make(step)
        return (len(slots), head, step)

    def _apply(self, fn, a, b):
        """An evaluator for fn over two compiled operands; slots and
        numbers are read in place, nested expressions evaluated."""
        ka, ca, na = a if type(a) is tuple else (-2, a, None)
        kb, cb, nb = b if type(b) is tuple else (-2, b, None)

        def ev(env):
            x = env[ka] if ka >= 0 else ca if ka == -1 else ca(env)
            if type(x) is not int and type(x) is not float:
                x = _number(x, na, self.bind)
            y = env[kb] if kb >= 0 else cb if kb == -1 else cb(env)
            if type(y) is not int and type(y) is not float:
                y = _number(y, nb, self.bind)
            try:
                return fn(x, y)
            except ZeroDivisionError:
                raise EvaluationError("division by zero") from None
        return ev

    def _evaluator(self, e):
        """A compiled operand as a function of the activation."""
        if type(e) is not tuple:
            return e
        k, c, name = e
        if k < 0:
            return lambda env: c
        return lambda env: _number(env[k], name, self.bind)

    def _is_step(self, s, ev, nxt):
        st = self.stats
        k = s.i if type(s) is _Slot else None

        def step(env, parent):
            st.derivations += 1
            val = ev(env)
            if k is not None and env[k] is None:
                env[k] = val
                nxt(env, parent)
                env[k] = None
            else:
                self._then(s, val, env, parent, nxt)
        return step

    def _facts_step(self, rows, index, specs, nxt):
        """Resolve against ground facts, indexed on the first argument."""
        st = self.stats
        seen = [s.i for s in specs if type(s) is _Slot]
        if len(seen) != len(set(seen)) or any(type(s) is _Tmpl for s in specs):
            # a repeated variable or a compound: unify row by row
            return lambda env, parent: self._rows(rows, index, specs, env,
                                                  parent, nxt)
        sets = [(k, s.i) for k, s in enumerate(specs)
                if type(s) is _Slot and s.first]
        gets = [(k, s) for k, s in enumerate(specs)
                if not (type(s) is _Slot and s.first)]

        def step(env, parent):
            bind = self.bind
            assign = list(sets)  # positions whose row value goes to a slot
            checks = []  # positions whose row value must equal a term
            for k, s in gets:
                if type(s) is _Slot:
                    v = env[s.i]
                    if v is None:
                        assign.append((k, s.i))
                        continue
                    while type(v) is Var and v in bind:
                        v = bind[v]
                    if type(v) is Var:  # a Var that may be shared: unify
                        return self._rows(rows, index, specs, env, parent, nxt)
                else:
                    v = s
                checks.append((k, v))
            cands = rows
            if checks and checks[0][0] == 0:
                v = checks[0][1]
                cands = index.get(
                    v if type(v) is str or type(v) is int else fact_key(v), ())
                if type(v) is not Struct:
                    del checks[0]  # the key is type strict: position 0 matches
            trail = self.trail
            m = len(trail)
            for row in cands:
                st.derivations += 1
                for k, v in checks:
                    f = row[k]
                    if f is v or (type(f) is type(v) and f == v):
                        continue
                    if type(v) is Struct and unify(v, f, bind, trail):
                        continue
                    break
                else:
                    for k, s in assign:
                        env[s] = row[k]
                    nxt(env, parent)
                while len(trail) > m:
                    del bind[trail.pop()]
            for k, s in assign[len(sets):]:
                env[s] = None
        return step

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
        """Facts whose call repeats a variable, holds a compound or a Var."""
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

    def _clause_copy(self, clause, args, link=None, outs=None):
        """Rename a compiled clause apart: a fresh activation whose head
        meets the call's arguments, or None when the head does not match.

        A call argument linked to an answer ordinal (link) is not
        unified; the head argument goes to outs at that ordinal instead,
        to be read when the body has run.
        """
        st = self.stats
        st.derivations += 1
        if st.derivations > self.limit:
            _over(self.limit)
        env = [None] * clause[0]
        for k, s in enumerate(clause[1]):
            o = link[k] if link is not None else None
            if o is not None and type(s) is not _Tmpl:
                outs[o] = s
            elif not self._unify(s, args[k], env, []):
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
        """Find or create the frame for a call; start its generator if new."""
        entry = self.entry(name, len(args))
        frame, is_new, varmap = subgoal_lookup_insert(entry, args)
        if is_new:
            frame.strategy = self.frame_strategy(name, len(args))
            # a call variable that stands alone as an argument and occurs
            # nowhere else is linked to the head argument it meets, so
            # the generator reads its answer from there
            alone = [a for a in args if type(a) is Var]
            inner = {}
            tokenize([a for a in args if type(a) is Struct], inner)
            link = tuple(
                varmap[a] if type(a) is Var and alone.count(a) == 1
                and a not in inner else None
                for a in args
            )
            # ordinals are handed out at first occurrence, so the map is
            # already in ordinal order
            frame.generator = (tuple(args), link, tuple(varmap))
            self.incomplete[frame] = None
            self.ready.append(frame)
            self.tasks.append(("gen", frame))
            if self.events is not None:
                self._log("call", frame=frame.name(), new=True)
        return frame, varmap

    def _call_tabled(self, name, specs, env, parent, nxt):
        bind = self.bind
        fresh = {}  # slot -> stand-in Var for slots unbound at the call
        args = [_call_arg(s, env, fresh, bind) for s in specs]
        frame, varmap = self._materialize(name, args)
        slot_of = {v: k for k, v in fresh.items()}
        plan = tuple((slot_of[v], o) for v, o in varmap.items() if v in slot_of)
        hplan = tuple((v, o) for v, o in varmap.items() if v not in slot_of)
        if frame.complete:
            # completed tables behave like memoized lookups
            st = self.stats
            for leaf in iterate_answers(frame):
                st.propagations += 1
                terms = leaf.terms
                for k, o in plan:
                    env[k] = terms[o]
                for var, o in hplan:
                    bind[var] = terms[o]
                nxt(env, parent)
                for var, o in hplan:
                    del bind[var]
            for k, o in plan:
                env[k] = None
            return
        host, parent = self._freeze(parent)
        self._next_cid += 1
        consumer = Consumer(frame, host, plan, hplan, nxt, self._copy(env),
                            parent, self._next_cid)
        frame.consumers.append(consumer)
        if host is not None and not host.complete:
            depend(host, frame)
        if frame.strategy == "batched":
            # catch up on answers stored before registration; later ones
            # arrive as insertion events, so the walk is bounded to keep
            # the two channels from overlapping
            bound = frame.seq_counter
            for leaf in iterate_answers(frame):
                if leaf.seq > bound:
                    break
                consumer.last = leaf
                self._deliver(consumer, leaf, resumed=False)

    def _copy(self, env):
        """A copy of an activation that no later binding reaches."""
        bind = self.bind
        if not bind:
            return list(env)
        return [resolve(v, bind) if type(v) is Var or type(v) is Struct else v
                for v in env]

    def _freeze(self, parent):
        """Copy the callers of a suspending call; returns (host, copy)."""
        if type(parent) is tuple:
            step, env, up = parent
            host, up = self._freeze(up)
            return host, (step, self._copy(env), up)
        if self.bind:
            outs = tuple(o if type(o) is _Slot else resolve(o, self.bind)
                         for o in parent.outs)
            parent = _Sink(self, parent.frame, outs, parent.answers,
                           parent.names)
        return (parent.frame if parent.names is None else None), parent

    def _deliver(self, consumer, leaf, resumed):
        st = self.stats
        if st.derivations > self.limit:
            _over(self.limit)
        st.propagations += 1
        if resumed:
            st.resumptions += 1
        if self.events is not None:
            self._log(
                "deliver",
                frame=consumer.frame.name(),
                seq=leaf.seq,
                consumer=consumer.cid,
                host=consumer.host.name() if consumer.host is not None else None,
                complete=consumer.frame.complete,
                resumed=resumed,
            )
        terms = leaf.terms
        env = list(consumer.env)
        for k, o in consumer.plan:
            env[k] = terms[o]
        saved = self.bind, self.trail
        if consumer.hplan or saved[0]:
            # a walk of its own: catch-up deliveries run inside another walk
            self.bind = {var: terms[o] for var, o in consumer.hplan}
            self.trail = []
        consumer.step(env, consumer.parent)
        self.bind, self.trail = saved

    # -- task loop -------------------------------------------------------

    def _run_generator(self, frame):
        args, link, subst = frame.generator
        self.bind = {}
        self.trail = []
        for clause in self._clauses(frame.entry.name, frame.entry.arity):
            outs = list(subst)
            env = self._clause_copy(clause, args, link, outs)
            if env is not None:
                clause[2](env, _Sink(self, frame, tuple(outs)))
            self.bind.clear()
            self.trail.clear()

    def _walk_consumer(self, consumer):
        """Deliver every valid answer the consumer has not seen, and those
        its deliveries add; the chain is read lazily, so they come too.
        Best value first where the module docstring says so."""
        frame = consumer.frame
        host = consumer.host
        best = (host is not None and host.leader is frame.leader
                and frame.leader.any_order and _best(frame))
        if not best:
            for leaf in iterate_answers(frame, consumer.last):
                consumer.last = leaf
                self._deliver(consumer, leaf, resumed=True)
            return
        k, sign = best
        heap = []  # (0, value, seq, leaf) for numbers, (1, seq, leaf) after
        while True:
            for leaf in iterate_answers(frame, consumer.last):
                consumer.last = leaf
                v = leaf.terms[k]
                heappush(heap, (0, sign * v, leaf.seq, leaf)
                         if type(v) is int or type(v) is float
                         else (1, leaf.seq, leaf))
            if not heap:
                return
            leaf = heappop(heap)[-1]
            if leaf.valid:
                self._deliver(consumer, leaf, resumed=True)

    def run(self):
        while True:
            while self.tasks:
                task = self.tasks.popleft()
                kind = task[0]
                if kind == "gen":
                    self._run_generator(task[1])
                elif kind == "event":
                    self._deliver(task[1], task[2], resumed=True)
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
                if lead.leader is lead and not lead.waits and not lead.complete
            ]
            self.ready = []
            pushed = False
            for lead in batch:
                # completing purges only invalid answers, so what is
                # pending now is pending after completion too
                pending = [
                    consumer
                    for frame in lead.members
                    if frame.strategy == "local"
                    for consumer in frame.consumers
                    if _pending(consumer)
                ]
                walkers = [consumer for consumer in pending
                           if consumer.host is not None
                           and consumer.host.leader is lead]
                if walkers:
                    tasks.extend(("walk", consumer) for consumer in walkers)
                    self.ready.append(lead)
                    pushed = True
                    continue
                for frame in lead.members:
                    complete_table(frame)
                    del self.incomplete[frame]
                    self._log("complete", frame=frame.name())
                self.ready.extend(release(lead))
                # the rest are read by callers outside the component
                tasks.extend(("walk", consumer) for consumer in pending)
                pushed = pushed or bool(pending)
            if pushed:
                return True
        return False

    def _close_cycle(self):
        """Every incomplete component waits on another: merge the first
        strongly connected set of them, which waits on nothing outside
        itself, into one component; returns its leader."""
        leads = list(dict.fromkeys(frame.leader for frame in self.incomplete))
        adj = {lead: list(waited_on(lead)) for lead in leads}
        return merge(_tarjan(leads, adj)[0][::-1])

    # -- queries -----------------------------------------------------------

    def solve(self, query):
        """Evaluate a query (text or goal list); returns (answers, stats).

        Each answer maps variable names to terms, in first-occurrence
        order. A query made of a single tabled goal reports the final
        content of the completed table, in chain order. Recursion deeper
        than Python's stack, in untabled calls or in nested terms, raises
        EvaluationError.
        """
        try:
            return self._solve(query)
        except RecursionError:
            raise EvaluationError(
                "recursion went too deep: untabled calls or terms nest"
                " beyond the interpreter's stack") from None

    def _solve(self, query):
        goals = tuple(parse_query(query) if isinstance(query, str) else query)
        seen = {}  # the query's Vars, numbered by first occurrence
        tokenize(goals, seen)
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
                where = [varmap[v] for v in qvars]
                answers = []
                for leaf in iterate_answers(frame):
                    vals = [leaf.terms[o] for o in where]
                    for k, v in enumerate(vals):
                        if type(v) is Var or type(v) is Struct:
                            vals[k] = resolve(v, dict(zip(varmap, leaf.terms)))
                    answers.append(dict(zip(names, vals)))
                return answers, self.stats
        slots = {}
        nvars, _, body = self._compile((), goals, slots, _emit)
        outs = tuple(_Slot(slots[v], False, v.name) for v in qvars)
        answers = []
        body([None] * nvars, _Sink(self, None, outs, answers, names))
        self.run()
        return answers, self.stats


def _return(env, parent):
    """After a rule body: go on with the caller."""
    step, env, up = parent
    step(env, up)


def _emit(env, sink):
    """After a generator or query body: hand the result to the sink."""
    engine = sink.engine
    st = engine.stats
    if st.derivations > engine.limit:
        _over(engine.limit)
    get = sink.get
    if get is None or engine.bind or None in (vals := get(env)):
        vals = _outputs(sink, env)
    if sink.names is not None:
        sink.answers.append(dict(zip(sink.names, vals)))
        return
    frame = sink.frame
    outcome = insert_answer(frame, vals)
    st.insertions += 1
    if outcome.invalidated:
        st.invalidations += outcome.invalidated
    if engine.events is not None:
        engine._log(
            "insert",
            frame=frame.name(),
            outcome=outcome.kind,
            invalidated=outcome.invalidated,
            seq=outcome.leaf.seq if outcome.leaf is not None else None,
            total=outcome.total,
        )
    if outcome.kind != REJECTED and frame.strategy == "batched":
        engine.tasks.extend(("event", consumer, outcome.leaf)
                            for consumer in frame.consumers)


@functools.lru_cache(maxsize=1024)
def _getter(slots):
    """A function reading the given slots of an activation as a tuple."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    return lambda env: tuple([env[k] for k in slots])


def _outputs(sink, env):
    """A sink's outputs, resolved; an unbound slot gets a Var."""
    bind = sink.engine.bind
    vals = []
    for o in sink.outs:
        if type(o) is _Slot:
            v = env[o.i]
            if v is None:
                v = env[o.i] = Var(o.name)
        else:
            v = o
        if bind and (type(v) is Var or type(v) is Struct):
            v = resolve(v, bind)
        vals.append(v)
    return tuple(vals)


def _over(limit):
    raise DerivationLimitError("derivation limit of %d exceeded" % limit)


def _raiser(message):
    """A goal step or an evaluator that raises when it runs."""
    def fail(*args):
        raise EvaluationError(message)
    return fail


def _number(v, name, bind):
    """The arithmetic value of what a slot holds."""
    while type(v) is Var:
        v = bind.get(v)
    if v is None:
        raise EvaluationError("unbound variable %s in arithmetic" % name)
    if type(v) is int or type(v) is float:
        return v
    return eval_arith(v, bind)


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


def _call_arg(s, env, fresh, bind):
    """A tabled call argument, resolved; slots unbound at the call get
    a stand-in Var from fresh, so answers can be bound to the slot."""
    ts = type(s)
    if ts is _Slot:
        v = fresh.get(s.i)
        if v is not None:
            return v
        v = None if s.first else env[s.i]
        if v is None:
            v = fresh[s.i] = Var(s.name)
        elif bind and (type(v) is Var or type(v) is Struct):
            v = resolve(v, bind)
        return v
    if ts is _Tmpl:
        return instantiate(s.term, {v: _call_arg(o, env, fresh, bind)
                                    for v, o in s.slots})
    return s


def _best(frame):
    """For an incomplete frame whose first min/max column is a single
    free variable: that column's answer ordinal, and 1 for min or -1
    for max. None otherwise."""
    args = frame.generator[0]
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
    return next(iterate_answers(consumer.frame, consumer.last), None) is not None


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
