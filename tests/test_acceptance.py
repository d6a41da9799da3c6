"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test prints a single `acceptance NN PASS|FAIL` line straight to the
terminal (past pytest's capture) so a transcript of the run shows all the
verdicts at a glance. A FAIL line is always followed by the usual pytest
failure for the same test.
"""

import random
import time

import pytest

from modetab import bench
from modetab.engine import Engine
from modetab.errors import DerivationLimitError
from modetab.lang import parse_program
from modetab.modes import REPLACED, compile_declaration, insert_answer
from modetab.terms import Var, term_keys, term_to_str
from modetab.tries import (
    TableSpace,
    complete_table,
    iterate_answers,
    subgoal_lookup_insert,
)

from oracles import flat_aggregate
from randprog import generate

REACH = """
:- table path/2.
path(X,Z) :- path(X,Y), edge(Y,Z).
path(X,Z) :- edge(X,Z).
edge(a,b).
edge(b,a).
"""

COUNTED_REACH = """
:- table path(index,index,first).
path(X,Z,N) :- path(X,Y,N1), edge(Y,Z), N is N1 + 1.
path(X,Z,1) :- edge(X,Z).
edge(a,b).
edge(b,a).
"""

COUNTED_REACH_PLAIN = COUNTED_REACH.replace(
    ":- table path(index,index,first).", ":- table path/3."
)

LINK_COUNTS = """
:- table num_links(index,sum).
num_links(A,0) :- edge(_,A).
num_links(A,1) :- edge(A,_).
:- table num_nodes(sum).
num_nodes(1) :- num_links(_,_).
edge(a,b).
edge(a,c).
edge(b,c).
"""

CHEAPEST = """
:- table path(index,index,min).
path(X,Z,C) :- edge(X,Z,C).
path(X,Z,C) :- path(X,Y,C1), edge(Y,Z,C2), C is C1 + C2.
edge(a,b,1).
edge(b,a,1).
edge(b,d,2).
edge(a,d,5).
"""

BOTH = ("local", "batched")

# the aggregation policies under test, in declaration order
COMBOS = (
    ("index", "first"),
    ("index", "last"),
    ("index", "min"),
    ("index", "max"),
    ("index", "sum"),
    ("index", "min", "all"),
    ("index", "max", "all"),
)


def verdict(capsys, num, label, body):
    """Run one criterion body and print its PASS/FAIL line unconditionally."""
    try:
        detail = body() or ""
        ok = True
    except Exception as exc:
        detail = "%s: %s" % (type(exc).__name__, exc)
        ok = False
    with capsys.disabled():
        extra = "  [%s]" % detail if detail else ""
        print("\nacceptance %02d %s  %s%s" % (num, "PASS" if ok else "FAIL",
                                              label, extra))
    if not ok:
        pytest.fail("criterion %02d: %s" % (num, detail))


def fresh_frame(modes):
    space = TableSpace()
    arity = len(modes)
    entry = space.entry("p", arity, compile_declaration("p", arity, list(modes)))
    # an all-free call: each argument is a fresh variable
    key = tuple(term_keys([Var() for _ in range(arity)]))
    frame, _ = subgoal_lookup_insert(entry, key, (1,) * arity)
    return frame


def full_chain(frame):
    out = []
    cur = frame.first_answer
    while cur is not None:
        out.append(cur)
        cur = cur.next
    return out


def valid_rows(frame):
    return [tuple(leaf.terms) for leaf in iterate_answers(frame)]


def answer_set(program, query, names, strategy):
    answers, _ = Engine(program, strategy).solve(query)
    return frozenset(
        tuple(term_to_str(a[v]) for v in names) for a in answers
    )


# ---------------------------------------------------------------------------
# 1. reachability golden: answers in chain order, table completed, fast


def test_01_reachability_chain_order(capsys):
    def body():
        times = []
        for strategy in BOTH:
            engine = Engine(parse_program(REACH), strategy)
            t0 = time.perf_counter()
            answers, _ = engine.solve("?- path(a, Z).")
            times.append((time.perf_counter() - t0) * 1000.0)
            assert answers == [{"Z": "b"}, {"Z": "a"}], answers
            frames = engine.entry("path", 2).frames
            assert frames and all(f.complete for f in frames)
            assert times[-1] < 10.0, "%.2f ms" % times[-1]
        return "local %.2f ms, batched %.2f ms" % tuple(times)

    verdict(capsys, 1, "reachability answers in chain order", body)


# ---------------------------------------------------------------------------
# 2. first mode turns the counted-path loop finite; the plain version diverges


def test_02_first_mode_termination(capsys):
    def body():
        times = []
        for strategy in BOTH:
            plain = Engine(parse_program(COUNTED_REACH_PLAIN), strategy,
                           limit=5000)
            with pytest.raises(DerivationLimitError):
                plain.solve("?- path(a, Z, N).")
            engine = Engine(parse_program(COUNTED_REACH), strategy)
            t0 = time.perf_counter()
            answers, _ = engine.solve("?- path(a, Z, N).")
            times.append((time.perf_counter() - t0) * 1000.0)
            assert answers == [{"Z": "b", "N": 1}, {"Z": "a", "N": 2}], answers
            assert times[-1] < 10.0, "%.2f ms" % times[-1]
        return "local %.2f ms, batched %.2f ms" % tuple(times)

    verdict(capsys, 2, "first mode bounds the counted-path loop", body)


# ---------------------------------------------------------------------------
# 3. sum sees one contribution per delivery, so the strategies split


def test_03_sum_scheduling_split(capsys):
    def body():
        local, _ = Engine(parse_program(LINK_COUNTS)).solve("?- num_nodes(N).")
        batched, _ = Engine(parse_program(LINK_COUNTS), "batched").solve(
            "?- num_nodes(N)."
        )
        assert local == [{"N": 3}], local
        assert batched == [{"N": 6}], batched
        return "local N=3, batched N=6"

    verdict(capsys, 3, "sum totals differ by strategy as documented", body)


# ---------------------------------------------------------------------------
# 4. min replaces the heavier answer and reports the invalidation


def test_04_min_replacement_invalidation(capsys):
    def body():
        for strategy in BOTH:
            engine = Engine(parse_program(CHEAPEST), strategy)
            answers, stats = engine.solve("?- path(a, Z, C).")
            rows = {(a["Z"], a["C"]) for a in answers}
            assert ("d", 3) in rows, rows
            assert ("d", 5) not in rows, rows
            assert stats.invalidations >= 1, stats
            frames = engine.entry("path", 3).frames
            assert frames and all(f.complete for f in frames)
        return "a-to-d costs 3, the direct cost-5 edge lost"

    verdict(capsys, 4, "min replacement evicts the heavier answer", body)


# ---------------------------------------------------------------------------
# 5. min with a trailing all column: ties accumulate, a better value sweeps


def test_05_min_all_replacement_window(capsys):
    def body():
        frame = fresh_frame(("index", "min", "all"))
        insert_answer(frame, ("b", 2, 1))
        insert_answer(frame, ("b", 2, 2))
        mid = set(valid_rows(frame))
        assert mid == {("b", 2, 1), ("b", 2, 2)}, mid
        out = insert_answer(frame, ("b", 1, 4))
        assert out.kind == REPLACED and out.invalidated == 2, out
        fin = set(valid_rows(frame))
        assert fin == {("b", 1, 4)}, fin
        return "two cost-2 ties held, then swept by cost 1"

    verdict(capsys, 5, "min+all keeps ties until a better value lands", body)


# ---------------------------------------------------------------------------
# 6. brute-force aggregation equivalence over random insertion sequences


def test_06_aggregation_reference_suite(capsys):
    def body():
        t0 = time.perf_counter()
        cases = 0
        for ci, modes in enumerate(COMBOS):
            rng = random.Random(600 + ci)
            has_all = modes[-1] == "all"
            for _ in range(1000):
                pool = list(range(rng.randint(1, 8)))
                if rng.random() < 0.3:
                    pool = ["k%d" % k for k in pool]
                cands = []
                for _ in range(rng.randint(1, 50)):
                    row = [rng.choice(pool), rng.randint(0, 9)]
                    if has_all:
                        row.append(rng.randint(0, 3))
                    cands.append(tuple(row))
                frame = fresh_frame(modes)
                for cand in cands:
                    insert_answer(frame, cand)
                got = frozenset(valid_rows(frame))
                want = flat_aggregate(modes, cands)
                assert got == want, (modes, cands, got, want)
                cases += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, "%.2f s" % elapsed
        return "%d sequences across %d combos in %.2f s" % (
            cases, len(COMBOS), elapsed)

    verdict(capsys, 6, "aggregation matches the flat reference", body)


# ---------------------------------------------------------------------------
# 7. benchmark programs reproduce their oracles at full acceptance scale


def test_07_benchmark_oracle_suite(capsys):
    def body():
        t0 = time.perf_counter()
        fails = []
        runs = 0
        family_s = {}  # seconds per family, so a breach names its cause
        for fam, size in (("shortest", 50), ("shortest_first", 50),
                          ("shortest_all", 50), ("shortest_pref", 50),
                          ("knapsack", 14), ("lcs", 18), ("matrix", 8)):
            t_fam = time.perf_counter()
            for seed in range(1, 101):
                rep = bench.run_benchmark(fam, size, seed, runs=1)
                runs += 1
                if not rep["match"]:
                    fails.append("%s/%d" % (fam, seed))
            family_s[fam] = time.perf_counter() - t_fam
        t_fam = time.perf_counter()
        for iterations in (1, 5, 10):
            for seed in range(1, 11):
                inst = bench.gen_instance("pagerank", 50, seed)
                inst.payload["iterations"] = iterations
                program = parse_program(bench.program_text(inst))
                answers, _ = Engine(program).solve(bench.query_text(inst))
                names = bench.query_vars(inst)
                rows = [tuple(a[v] for v in names) for a in answers]
                runs += 1
                if not bench.check_answers(inst, rows):
                    fails.append("pagerank/i%d/%d" % (iterations, seed))
        family_s["pagerank"] = time.perf_counter() - t_fam
        elapsed = time.perf_counter() - t0
        split = ", ".join("%s %.1f" % kv for kv in family_s.items())
        assert not fails, fails[:10]
        assert elapsed < 60.0, "%.1f s [%s]" % (elapsed, split)
        return "%d runs in %.1f s [%s]" % (runs, elapsed, split)

    verdict(capsys, 7, "benchmarks match their oracles", body)


# ---------------------------------------------------------------------------
# 8. the strategies agree on every table whose content the data forces


def test_08_scheduling_congruence(capsys):
    def body():
        cases = []
        fixed = (
            ("shortest", 12, range(1, 11)),
            ("shortest_first", 12, range(1, 11)),
            ("shortest_all", 12, range(1, 11)),
            ("shortest_pref", 12, range(1, 11)),
            ("knapsack", 10, range(1, 6)),
            ("lcs", 8, range(1, 6)),
            ("matrix", 6, range(1, 6)),
        )
        for fam, size, seeds in fixed:
            for seed in seeds:
                inst = bench.gen_instance(fam, size, seed)
                cases.append(("%s/%d" % (fam, seed),
                              bench.program_text(inst),
                              bench.query_text(inst),
                              bench.query_vars(inst)))
        n_bench = len(cases)
        for seed in range(1, 51):
            text, query, names = generate(seed)
            cases.append(("random/%d" % seed, text, query, names))
        diffs = []
        for tag, text, query, names in cases:
            program = parse_program(text)
            local = answer_set(program, query, names, "local")
            batched = answer_set(program, query, names, "batched")
            if local != batched:
                diffs.append(tag)
        assert not diffs, diffs
        return "%d benchmark + %d random programs agree" % (
            n_bench, len(cases) - n_bench)

    verdict(capsys, 8, "local and batched answer sets are identical", body)


# ---------------------------------------------------------------------------
# 9. trie and chain invariants under random traffic


def test_09_trie_invalidation_properties(capsys):
    def body():
        # node sharing: the trie holds exactly one node per distinct prefix
        rng = random.Random(901)
        scalars = (0, 1, 2, "a", "b", "c")
        for _ in range(500):
            width = rng.randint(1, 4)
            frame = fresh_frame(("index",) * width)
            seqs = set()
            for _ in range(rng.randint(1, 20)):
                seq = tuple(rng.choice(scalars) for _ in range(width))
                seqs.add(seq)
                insert_answer(frame, seq)
            prefixes = {seq[:i] for seq in seqs for i in range(1, width + 1)}
            count = 0
            stack = [frame.root]
            while stack:
                node = stack.pop()
                count += len(node)
                stack.extend(c for c in node.values() if type(c) is dict)
            assert count == len(prefixes), (seqs, count, len(prefixes))

        # chain model: after every insert the valid chain equals the flat
        # aggregate of the candidates so far, in a never-shrinking chain
        # whose sequence numbers only grow
        rng = random.Random(902)
        combos = COMBOS + (("index", "index"),)
        for _ in range(500):
            modes = combos[rng.randrange(len(combos))]
            frame = fresh_frame(modes)
            cands = []
            prev_len = 0
            for _ in range(rng.randint(1, 12)):
                row = [rng.choice((1, 2, 3, "k"))]
                row += [rng.randint(0, 5) for _ in range(len(modes) - 1)]
                cands.append(tuple(row))
                insert_answer(frame, cands[-1])
                assert frozenset(valid_rows(frame)) == flat_aggregate(
                    modes, cands), (modes, cands)
                chain = full_chain(frame)
                seqs = [leaf.seq for leaf in chain]
                assert seqs == sorted(set(seqs)), seqs
                assert len(chain) >= prev_len
                prev_len = len(chain)

        # completion purges every invalid leaf and nothing else
        rng = random.Random(903)
        for _ in range(500):
            modes = COMBOS[rng.randrange(len(COMBOS))]
            frame = fresh_frame(modes)
            for _ in range(rng.randint(1, 30)):
                row = [rng.choice((1, 2, "k"))]
                row += [rng.randint(0, 5) for _ in range(len(modes) - 1)]
                insert_answer(frame, tuple(row))
            before = valid_rows(frame)
            stale = sum(1 for leaf in full_chain(frame) if not leaf.valid)
            complete_table(frame)
            chain = full_chain(frame)
            assert all(leaf.valid for leaf in chain)
            assert [tuple(leaf.terms) for leaf in chain] == before
            assert frame.n_purged == stale

        # a reader parked on any leaf, invalidated or not, still reaches
        # every later valid answer by following the chain
        rng = random.Random(904)
        parked_stale = 0
        for _ in range(500):
            modes = (("index", "min"), ("index", "min", "all"),
                     ("index", "max"))[rng.randrange(3)]
            frame = fresh_frame(modes)
            leaves = []

            def pour(n):
                for _ in range(n):
                    row = [rng.choice((1, 2))]
                    row += [rng.randint(0, 9) for _ in range(len(modes) - 1)]
                    out = insert_answer(frame, tuple(row))
                    if out.leaf is not None:
                        leaves.append(out.leaf)

            pour(rng.randint(1, 10))
            parked = leaves[rng.randrange(len(leaves))]
            pour(rng.randint(1, 10))
            if not parked.valid:
                parked_stale += 1
            want = [leaf for leaf in iterate_answers(frame)
                    if leaf.seq > parked.seq]
            got = list(iterate_answers(frame, after=parked))
            assert got == want, (parked.seq, parked.valid)
        assert parked_stale > 0
        return "4 properties x 500 cases, %d parked readers went stale" % (
            parked_stale)

    verdict(capsys, 9, "trie, chain, and invalidation invariants hold", body)


# ---------------------------------------------------------------------------
# 10. batched never does less table work than local on the witness family


def test_10_batched_work_ordering(capsys):
    def body():
        ratios = []
        for seed in range(1, 21):
            work = {}
            for strategy in BOTH:
                rep = bench.run_benchmark("shortest_first", 50, seed,
                                          strategy, runs=1)
                assert rep["match"], (strategy, seed)
                stats = rep["stats"]
                work[strategy] = stats["insertions"] + stats["propagations"]
            assert work["batched"] >= work["local"], (seed, work)
            ratios.append(work["batched"] / work["local"])
        return "work ratio %.2f..%.2f over 20 seeds" % (
            min(ratios), max(ratios))

    verdict(capsys, 10, "batched table work is never below local", body)
