"""Benchmark generators, oracles, and the run/check harness."""

import pytest

from modetab import bench
from modetab.lang import parse_program


# -- generation ------------------------------------------------------------


def test_gen_is_deterministic_per_seed():
    a = bench.gen_instance("shortest", 50, 42)
    b = bench.gen_instance("shortest", 50, 42)
    assert a.payload["edges"] == b.payload["edges"]
    c = bench.gen_instance("shortest", 50, 43)
    assert c.payload["edges"] != a.payload["edges"]


def test_graph_gen_shape():
    inst = bench.gen_instance("shortest", 10, 7)
    edges = inst.payload["edges"]
    pairs = [(u, v) for u, v, _ in edges]
    assert len(pairs) == len(set(pairs))
    for u, v, w in edges:
        assert 0 <= u < 10 and 0 <= v < 10 and u != v
        assert 1 <= w <= 100
    # the ring keeps every node reachable from every other
    for u in range(10):
        assert (u, (u + 1) % 10) in pairs


def test_matrix_gen_has_size_plus_one_dims():
    inst = bench.gen_instance("matrix", 3, 7)
    dims = inst.payload["dims"]
    assert len(dims) == 4
    assert all(5 <= d <= 100 for d in dims)


def test_lcs_gen_shape():
    inst = bench.gen_instance("lcs", 100, 1)
    assert len(inst.payload["a"]) == 100
    assert len(inst.payload["b"]) == 100
    assert set(inst.payload["a"] + inst.payload["b"]) <= set("abcd")


def test_knapsack_gen_shape():
    inst = bench.gen_instance("knapsack", 12, 3)
    assert len(inst.payload["weights"]) == 12
    assert len(inst.payload["values"]) == 12
    assert inst.payload["capacity"] == 48


def test_pagerank_gen_shape():
    inst = bench.gen_instance("pagerank", 8, 5)
    assert inst.payload["iterations"] == 10
    degree = {}
    for q, p in inst.payload["links"]:
        assert q != p
        degree[q] = degree.get(q, 0) + 1
    # every page links out somewhere, so rank mass is conserved
    assert set(degree) == set(range(8))
    assert all(1 <= k <= 4 for k in degree.values())


def test_size_bounds_are_enforced():
    with pytest.raises(ValueError):
        bench.gen_instance("shortest", 1, 0)
    with pytest.raises(ValueError):
        bench.gen_instance("shortest", 201, 0)
    with pytest.raises(ValueError):
        bench.gen_instance("knapsack", 0, 0)
    with pytest.raises(ValueError):
        bench.gen_instance("matrix", 31, 0)
    with pytest.raises(ValueError):
        bench.gen_instance("no_such_family", 5, 0)


# -- oracles ----------------------------------------------------------------


def test_lcs_oracle_golden():
    assert bench._lcs_length(list("abcbdab"), list("bdcaba")) == 4
    assert bench._lcs_length(list("abc"), list("abc")) == 3
    assert bench._lcs_length(list("abc"), list("d")) == 0


def test_matrix_oracle_golden():
    # ((A.B).C) on 10x30, 30x5, 5x60: 1500 + 3000
    assert bench._matrix_cost([10, 30, 5, 60]) == 4500
    assert bench._matrix_cost([7, 11]) == 0


def test_knapsack_oracle_golden():
    assert bench._knapsack_best([1, 3, 4, 5], [1, 4, 5, 7], 7) == 9
    assert bench._knapsack_best([10], [100], 7) == 0


def test_dist_oracle_counts_cycles_not_zero_diagonal():
    edges = [(0, 1, 2), (1, 2, 3), (0, 2, 10), (2, 0, 1)]
    d = bench._dist_matrix(3, edges).tolist()
    assert d[0][2] == 5
    assert d[0][0] == 6  # around the cycle, not free
    assert d[1][1] == 6
    assert d[2][1] == 3


def test_hop_sets_collect_every_tight_length():
    # two equal-cost two-hop routes plus a direct edge of the same cost
    edges = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 2)]
    d = bench._dist_matrix(4, edges).tolist()
    assert d[0][3] == 2
    hops = bench._hop_sets(4, edges, d)
    assert hops[(0, 3)] == {1, 2}
    assert hops[(0, 1)] == {1}


def test_power_ranks_conserve_mass():
    inst = bench.gen_instance("pagerank", 9, 2)
    r = bench._power_ranks(9, inst.payload["links"], 10)
    assert abs(sum(r) - 1.0) < 1e-9
    assert all(x > 0 for x in r)


# -- program texts ----------------------------------------------------------

_EXPECTED_MODES = {
    "shortest": ("path", ("index", "index", "min")),
    "shortest_first": ("path", ("index", "index", "min", "first")),
    "shortest_all": ("path", ("index", "index", "min", "all")),
    "shortest_pref": ("best", ("index", "index", "last")),
    "knapsack": ("ks", ("index", "index", "max")),
    "lcs": ("lcs", ("index", "index", "max")),
    "matrix": ("cost", ("index", "index", "min")),
    "pagerank": ("rank", ("index", "index", "sum")),
}


def test_every_family_declares_its_modes():
    for family in bench.FAMILIES:
        size = 3 if family != "matrix" else 2
        inst = bench.gen_instance(family, size, 0)
        program = parse_program(bench.program_text(inst))
        pred, modes = _EXPECTED_MODES[family]
        declared = {d.name: d.modes for d in program.declarations}
        assert declared[pred] == modes, family


def test_query_vars_match_query_text():
    for family in bench.FAMILIES:
        inst = bench.gen_instance(family, 3 if family != "matrix" else 2, 1)
        text = bench.query_text(inst)
        for v in bench.query_vars(inst):
            assert v in text, (family, v)


# -- running ----------------------------------------------------------------


def test_report_schema():
    rep = bench.run_benchmark("shortest", 6, 0, runs=3)
    assert set(rep) == {"instance", "strategy", "answers", "match", "ms",
                        "stats", "tables"}
    assert rep["instance"] == {"name": "shortest", "size": 6, "seed": 0}
    assert rep["strategy"] == "local"
    assert rep["match"] is True
    # the ring makes the graph strongly connected, so every ordered
    # pair, diagonal included, has a finite cheapest walk
    assert rep["answers"] == 36
    assert len(rep["ms"]) == 3
    assert all(isinstance(x, float) for x in rep["ms"])
    assert set(rep["stats"]) == {
        "derivations", "insertions", "invalidations", "propagations",
        "resumptions"
    }


def test_families_match_their_oracles_small():
    cases = [
        ("shortest", 8), ("shortest_first", 8), ("shortest_all", 8),
        ("shortest_pref", 8), ("knapsack", 6), ("lcs", 6), ("matrix", 4),
        ("pagerank", 6),
    ]
    for family, size in cases:
        rep = bench.run_benchmark(family, size, 11, runs=1)
        assert rep["match"] is True, family


def test_both_strategies_match_on_graphs():
    for strategy in ("local", "batched"):
        rep = bench.run_benchmark("shortest", 7, 5, strategy=strategy, runs=1)
        assert rep["match"] is True
        assert rep["strategy"] == strategy


def test_pagerank_rejects_batched():
    with pytest.raises(ValueError):
        bench.run_benchmark("pagerank", 5, 0, strategy="batched")


def test_check_answers_rejects_corrupted_rows():
    inst = bench.gen_instance("shortest", 5, 9)
    rep = bench.run_benchmark("shortest", 5, 9, runs=1)
    assert rep["match"] is True
    # recompute the true rows, then corrupt one
    program = parse_program(bench.program_text(inst))
    from modetab.engine import Engine

    answers, _ = Engine(program).solve(bench.query_text(inst))
    rows = [tuple(a[v] for v in bench.query_vars(inst)) for a in answers]
    assert bench.check_answers(inst, rows)
    x, y, c = rows[0]
    bad = [(x, y, c + 1)] + rows[1:]
    assert not bench.check_answers(inst, bad)
    assert not bench.check_answers(inst, rows[1:])


def test_batched_matches_the_oracles_at_acceptance_sizes():
    # acceptance 07's families and sizes, under batched scheduling
    fails = []
    for family, size in (("shortest", 50), ("shortest_first", 50),
                         ("shortest_all", 50), ("shortest_pref", 50),
                         ("knapsack", 14), ("lcs", 18), ("matrix", 8)):
        for seed in range(1, 11):
            rep = bench.run_benchmark(family, size, seed, "batched", runs=1)
            if not rep["match"]:
                fails.append("%s/%d" % (family, seed))
    assert fails == []
