"""Benchmark programs, instance generators, and checking oracles.

Each family pairs a tabled program built from generated facts with an
independent dynamic-programming oracle. The graph families share one
weighted-digraph generator; the path relation they compute covers
walks of one edge or more, so the distance oracle is a min-plus
closure without a free zero diagonal (the diagonal holds shortest
cycle costs).

Documented size bounds per family: shortest, shortest_first,
shortest_all, shortest_pref and pagerank take 2..200 nodes; lcs takes
sequence lengths 1..200; knapsack takes 1..40 items (capacity fixed at
4*size, weights 1..50, values 1..100); matrix takes 1..30 matrices
(dimensions 5..100). pagerank evaluates a fixed number of power
iterations (payload["iterations"], default 10) and runs under the
local strategy only.
"""

import operator
import random
import time

import numpy as np

from .engine import Engine
from .lang import parse_program

__all__ = ["FAMILIES", "Instance", "gen_instance", "program_text", "query_text",
           "query_vars", "check_answers", "run_benchmark"]

FAMILIES = (
    "shortest",
    "shortest_first",
    "shortest_all",
    "shortest_pref",
    "knapsack",
    "lcs",
    "matrix",
    "pagerank",
)

_GRAPH_FAMILIES = ("shortest", "shortest_first", "shortest_all", "shortest_pref")

INF = 2 ** 40

DAMPING = 0.85

_BOUNDS = {
    "shortest": (2, 200),
    "shortest_first": (2, 200),
    "shortest_all": (2, 200),
    "shortest_pref": (2, 200),
    "knapsack": (1, 40),
    "lcs": (1, 200),
    "matrix": (1, 30),
    "pagerank": (2, 200),
}


class Instance:
    __slots__ = ("name", "size", "seed", "payload")

    def __init__(self, name, size, seed, payload):
        self.name = name
        self.size = size
        self.seed = seed
        self.payload = payload

    def __repr__(self):
        return "Instance(%r, %d, %d)" % (self.name, self.size, self.seed)


# ---------------------------------------------------------------------------
# Generation


def gen_instance(name, size, seed):
    if name not in FAMILIES:
        raise ValueError("unknown benchmark %r" % name)
    lo, hi = _BOUNDS[name]
    if not lo <= size <= hi:
        raise ValueError("%s size must be in %d..%d" % (name, lo, hi))
    rng = random.Random(seed)
    if name in _GRAPH_FAMILIES:
        payload = {"edges": _weighted_digraph(rng, size)}
    elif name == "knapsack":
        payload = {
            "weights": [rng.randint(1, 50) for _ in range(size)],
            "values": [rng.randint(1, 100) for _ in range(size)],
            "capacity": 4 * size,
        }
    elif name == "lcs":
        payload = {
            "a": [rng.choice("abcd") for _ in range(size)],
            "b": [rng.choice("abcd") for _ in range(size)],
        }
    elif name == "matrix":
        payload = {"dims": [rng.randint(5, 100) for _ in range(size + 1)]}
    else:  # pagerank
        payload = {"links": _link_graph(rng, size), "iterations": 10}
    return Instance(name, size, seed, payload)


def _weighted_digraph(rng, n):
    """Strongly connected: a ring plus ~3 extra out-edges per node."""
    edges = []
    seen = set()
    for u in range(n):
        v = (u + 1) % n
        seen.add((u, v))
        edges.append((u, v, rng.randint(1, 100)))
    for u in range(n):
        for _ in range(3):
            v = rng.randrange(n)
            if v == u or (u, v) in seen:
                continue
            seen.add((u, v))
            edges.append((u, v, rng.randint(1, 100)))
    return edges


def _link_graph(rng, n):
    links = []
    for q in range(n):
        targets = [p for p in range(n) if p != q]
        rng.shuffle(targets)
        for p in targets[: rng.randint(1, min(4, n - 1))]:
            links.append((q, p))
    return links


# ---------------------------------------------------------------------------
# Programs

_GRAPH_RULES = {
    "shortest": """\
:- table path(index,index,min).
path(X,Y,C) :- edge(X,Y,C).
path(X,Y,C) :- path(X,Z,C1), edge(Z,Y,C2), C is C1 + C2.
""",
    "shortest_first": """\
:- table path(index,index,min,first).
path(X,Y,C,X) :- edge(X,Y,C).
path(X,Y,C,Z) :- path(X,Z,C1,_), edge(Z,Y,C2), C is C1 + C2.
""",
    "shortest_all": """\
:- table path(index,index,min,all).
path(X,Y,C,1) :- edge(X,Y,C).
path(X,Y,C,H) :- path(X,Z,C1,H1), edge(Z,Y,C2), C is C1 + C2, H is H1 + 1.
""",
    "shortest_pref": """\
:- table path(index,index,min).
:- table best(index,index,last).
path(X,Y,C) :- edge(X,Y,C).
path(X,Y,C) :- path(X,Z,C1), edge(Z,Y,C2), C is C1 + C2.
best(X,Y,C) :- path(X,Y,C).
""",
}

_KNAPSACK_RULES = """\
:- table ks(index,index,max).
ks(0, _, 0).
ks(I, W, V) :- I > 0, I1 is I - 1, ks(I1, W, V).
ks(I, W, V) :- I > 0, weight(I, WI), W >= WI, I1 is I - 1, W1 is W - WI,
    ks(I1, W1, V1), value(I, VI), V is V1 + VI.
"""

_LCS_RULES = """\
:- table lcs(index,index,max).
lcs(0, _, 0).
lcs(_, 0, 0).
lcs(I, J, L) :- I > 0, J > 0, sym_a(I, S), sym_b(J, S),
    I1 is I - 1, J1 is J - 1, lcs(I1, J1, L1), L is L1 + 1.
lcs(I, J, L) :- I > 0, I1 is I - 1, lcs(I1, J, L).
lcs(I, J, L) :- J > 0, J1 is J - 1, lcs(I, J1, L).
"""

_MATRIX_RULES = """\
:- table cost(index,index,min).
cost(I, I, 0) :- idx(I).
cost(I, J, C) :- idx(I), idx(J), I < J, idx(K), I =< K, K < J,
    K1 is K + 1, cost(I, K, C1), cost(K1, J, C2),
    I0 is I - 1, dim(I0, DA), dim(K, DB), dim(J, DC),
    C is C1 + C2 + DA * DB * DC.
"""

_PAGERANK_RULES = """\
:- table rank(index,index,sum).
rank(0, P, R) :- page(P), num_pages(N), R is 1 / N.
rank(I, P, R) :- I > 0, page(P), num_pages(N), R is (1 - %(d)s) / N.
rank(I, P, R) :- I > 0, I1 is I - 1, rank(I1, Q, RQ), link(Q, P),
    out_degree(Q, K), R is %(d)s * RQ / K.
""" % {"d": repr(DAMPING)}


def _node(i):
    return "n%d" % i


def program_text(inst):
    name = inst.name
    lines = []
    if name in _GRAPH_FAMILIES:
        lines.append(_GRAPH_RULES[name])
        for u, v, w in inst.payload["edges"]:
            lines.append("edge(%s,%s,%d)." % (_node(u), _node(v), w))
    elif name == "knapsack":
        lines.append(_KNAPSACK_RULES)
        for i, (w, v) in enumerate(
            zip(inst.payload["weights"], inst.payload["values"]), start=1
        ):
            lines.append("weight(%d,%d)." % (i, w))
            lines.append("value(%d,%d)." % (i, v))
    elif name == "lcs":
        lines.append(_LCS_RULES)
        for i, s in enumerate(inst.payload["a"], start=1):
            lines.append("sym_a(%d,%s)." % (i, s))
        for j, s in enumerate(inst.payload["b"], start=1):
            lines.append("sym_b(%d,%s)." % (j, s))
    elif name == "matrix":
        lines.append(_MATRIX_RULES)
        for k, d in enumerate(inst.payload["dims"]):
            lines.append("dim(%d,%d)." % (k, d))
        for i in range(1, inst.size + 1):
            lines.append("idx(%d)." % i)
    else:  # pagerank
        lines.append(_PAGERANK_RULES)
        degree = {}
        for q, p in inst.payload["links"]:
            degree[q] = degree.get(q, 0) + 1
            lines.append("link(p%d,p%d)." % (q, p))
        for p in range(inst.size):
            lines.append("page(p%d)." % p)
        for q, k in sorted(degree.items()):
            lines.append("out_degree(p%d,%d)." % (q, k))
        lines.append("num_pages(%d)." % inst.size)
    return "\n".join(lines) + "\n"


def query_text(inst):
    name = inst.name
    if name in ("shortest", "shortest_pref"):
        pred = "path" if name == "shortest" else "best"
        return "?- %s(X, Y, C)." % pred
    if name in ("shortest_first", "shortest_all"):
        return "?- path(X, Y, C, J)."
    if name == "knapsack":
        return "?- ks(%d, %d, V)." % (inst.size, inst.payload["capacity"])
    if name == "lcs":
        return "?- lcs(%d, %d, L)." % (inst.size, inst.size)
    if name == "matrix":
        return "?- cost(1, %d, C)." % inst.size
    return "?- rank(%d, P, R)." % inst.payload["iterations"]


def query_vars(inst):
    name = inst.name
    if name in ("shortest", "shortest_pref"):
        return ("X", "Y", "C")
    if name in ("shortest_first", "shortest_all"):
        return ("X", "Y", "C", "J")
    if name == "knapsack":
        return ("V",)
    if name == "lcs":
        return ("L",)
    if name == "matrix":
        return ("C",)
    return ("P", "R")


# ---------------------------------------------------------------------------
# Oracles


def _dist_matrix(n, edges):
    """Min-plus closure of the weight matrix: cheapest walks of >= 1 edge."""
    d = np.full((n, n), INF, dtype=np.int64)
    for u, v, w in edges:
        if w < d[u, v]:
            d[u, v] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def _hop_sets(n, edges, dist):
    """Per pair, every edge count realized by some cheapest walk.

    With positive weights every prefix of a cheapest walk is itself
    cheapest, so the pairs joined by a cheapest walk of h + 1 edges are
    those of h edges extended by an edge that stays tight for the walk's
    source. Each step is one matrix product over the edge list.
    """
    dist = np.asarray(dist)
    head, tail, weight = (np.array(col, dtype=np.int64) for col in zip(*edges))
    # tight[u, e]: edge e extends a cheapest walk from u to a cheapest one
    tight = dist[:, head] + weight == dist[:, tail]
    # into[e, v]: edge e ends at v; float, so the product runs in BLAS
    into = np.zeros((len(edges), n), dtype=np.float32)
    into[np.arange(len(edges)), tail] = 1.0
    reach = np.zeros((n, n), dtype=bool)
    first = weight == dist[head, tail]
    reach[head[first], tail[first]] = True
    hops = {}
    h = 1
    while reach.any():
        us, vs = np.nonzero(reach)
        for pair in zip(us.tolist(), vs.tolist()):
            hops.setdefault(pair, set()).add(h)
        reach = ((reach[:, head] & tight) @ into) > 0
        h += 1
    return hops


def _knapsack_best(weights, values, capacity):
    best = [0] * (capacity + 1)
    for w, v in zip(weights, values):
        for c in range(capacity, w - 1, -1):
            cand = best[c - w] + v
            if cand > best[c]:
                best[c] = cand
    return best[capacity]


def _lcs_length(a, b):
    cur = [0] * (len(b) + 1)
    for x in a:
        prev = cur
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
    return cur[len(b)]


def _matrix_cost(dims):
    n = len(dims) - 1
    cost = [[0] * (n + 1) for _ in range(n + 1)]
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            cost[i][j] = min(
                cost[i][k] + cost[k + 1][j] + dims[i - 1] * dims[k] * dims[j]
                for k in range(i, j)
            )
    return cost[1][n]


def _power_ranks(n, links, iters):
    degree = {}
    incoming = {}
    for q, p in links:
        degree[q] = degree.get(q, 0) + 1
        incoming.setdefault(p, []).append(q)
    r = [1 / n] * n
    for _ in range(iters):
        r = [
            (1 - DAMPING) / n
            + sum(DAMPING * r[q] / degree[q] for q in incoming.get(p, ()))
            for p in range(n)
        ]
    return r


# ---------------------------------------------------------------------------
# Checking


def check_answers(inst, rows):
    """True when the engine's answer rows agree with the oracle."""
    name = inst.name
    if name in _GRAPH_FAMILIES:
        n = inst.size
        edges = inst.payload["edges"]
        node = [_node(i) for i in range(n)]
        dist = _dist_matrix(n, edges)
        us, vs = np.nonzero(dist < INF)
        costs = dist[us, vs].tolist()
        us, vs = us.tolist(), vs.tolist()
        if name in ("shortest", "shortest_pref"):
            want = set(zip(map(node.__getitem__, us), map(node.__getitem__, vs),
                           costs))
            return set(rows) == want
        finite = dict(zip(zip(us, vs), costs))
        if name == "shortest_all":
            hops = _hop_sets(n, edges, dist)
            want = {
                (node[u], node[v], finite[u, v], h)
                for (u, v), hs in hops.items()
                for h in hs
            }
            return set(rows) == want
        # shortest_first: distances are exact; the justification is the
        # predecessor chosen by arrival order, so only its validity is
        # checkable: it must close the distance with a real edge.
        weight = {(node[u], node[v]): w for u, v, w in edges}
        back = {x: i for i, x in enumerate(node)}
        dist = dist.tolist()
        if {(x, y) for x, y, _, _ in rows} != {
            (node[u], node[v]) for u, v in finite
        } or len(rows) != len(finite):
            return False
        for x, y, c, j in rows:
            if c != finite[back[x], back[y]]:
                return False
            w = weight.get((j, y))
            if w is None:
                return False
            dxj = 0 if j == x else dist[back[x]][back[j]]
            if dxj + w != c:
                return False
        return True
    if name == "knapsack":
        p = inst.payload
        return set(rows) == {(_knapsack_best(p["weights"], p["values"],
                                             p["capacity"]),)}
    if name == "lcs":
        return set(rows) == {(_lcs_length(inst.payload["a"], inst.payload["b"]),)}
    if name == "matrix":
        return set(rows) == {(_matrix_cost(inst.payload["dims"]),)}
    # pagerank
    want = _power_ranks(inst.size, inst.payload["links"],
                        inst.payload["iterations"])
    if len(rows) != inst.size:
        return False
    got = dict(rows)
    for p in range(inst.size):
        r = got.get("p%d" % p)
        if r is None or abs(r - want[p]) > 1e-9:
            return False
    return True


# ---------------------------------------------------------------------------
# Running


def run_benchmark(name, size, seed, strategy="local", runs=3):
    """Time and verify one benchmark instance; returns the report dict."""
    if name == "pagerank" and strategy != "local":
        raise ValueError("pagerank runs local-only (sum answers depend on "
                         "delivery multiplicity under batched scheduling)")
    inst = gen_instance(name, size, seed)
    program = parse_program(program_text(inst))
    query = query_text(inst)
    names = query_vars(inst)
    ms = []
    engine = None
    answers = []
    for _ in range(runs):
        engine = Engine(program, strategy)
        t0 = time.perf_counter()
        answers, _ = engine.solve(query)
        ms.append((time.perf_counter() - t0) * 1000.0)
    pick = operator.itemgetter(*names)
    rows = [pick(a) if len(names) > 1 else (pick(a),) for a in answers]
    return {
        "instance": {"name": name, "size": size, "seed": seed},
        "strategy": strategy,
        "answers": len(rows),
        "match": check_answers(inst, rows),
        "ms": ms,
        "stats": engine.stats.as_dict(),
        "tables": _table_counters(engine),
    }


def _table_counters(engine):
    """Per tabled predicate, in first-call order: how many tables (frames)
    it made and the sums of their insertion, invalidation and purge
    counters. Read from the frames, so no answer chain is walked."""
    out = {}
    for entry in engine.space.entries.values():
        frames = entry.frames
        out["%s/%d" % (entry.name, entry.arity)] = {
            "tables": len(frames),
            "inserted": sum(f.n_inserted for f in frames),
            "invalidated": sum(f.n_invalidated for f in frames),
            "purged": sum(f.n_purged for f in frames),
        }
    return out
