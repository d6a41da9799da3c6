"""The modetab command: run and bench subcommands, output, exit codes."""

import json

import pytest

from modetab import bench
from modetab.cli import main

REACH = """\
:- table path/2.
path(X,Z) :- path(X,Y), edge(Y,Z).
path(X,Z) :- edge(X,Z).
edge(a,b).
edge(b,c).
"""

CHEAPEST = """\
:- table path(index,index,min).
path(X,Z,C) :- edge(X,Z,C).
path(X,Z,C) :- path(X,Y,C1), edge(Y,Z,C2), C is C1 + C2.
edge(a,b,1).
edge(b,a,1).
edge(b,d,2).
"""


@pytest.fixture
def reach_file(tmp_path):
    p = tmp_path / "reach.pl"
    p.write_text(REACH)
    return str(p)


def test_run_prints_bindings_in_order(reach_file, capsys):
    code = main(["run", reach_file, "--query", "path(a, X)"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["X = b", "X = c"]


def test_run_ground_query_prints_true(reach_file, capsys):
    code = main(["run", reach_file, "--query", "path(a, c)"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["true"]


def test_run_no_answers_exits_1(reach_file, capsys):
    code = main(["run", reach_file, "--query", "path(c, X)"])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_run_multiple_vars_on_one_line(tmp_path, capsys):
    p = tmp_path / "cheap.pl"
    p.write_text(CHEAPEST)
    code = main(["run", str(p), "--query", "?- path(a, Z, C)."])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "Z = b, C = 1" in lines
    assert "Z = d, C = 3" in lines


NONGROUND = """\
:- table q/3.
q(X, Y, f(Y, X)).
"""


@pytest.mark.parametrize("query, rows", [
    # unbound variables print as _G1, _G2, ... in order of first
    # occurrence in the row
    ("q(A, B, C)", ["A = _G1, B = _G2, C = f(_G2, _G1)"]),
    ("q(A, A, C)", ["A = _G1, C = f(_G1, _G1)"]),
    # each read gets the answer's variables renamed apart
    ("q(A, A, C), A = z", ["A = z, C = f(z, z)"]),
    ("q(A, A, C), q(B, B, D)",
     ["A = _G1, C = f(_G1, _G1), B = _G2, D = f(_G2, _G2)"]),
    ("q(A, B, C), q(B, A, D)",
     ["A = _G1, B = _G2, C = f(_G2, _G1), D = f(_G1, _G2)"]),
    ("q(A, B, C), A = z, q(D, E, F)",
     ["A = z, B = _G1, C = f(_G1, z), D = _G2, E = _G3, F = f(_G3, _G2)"]),
    # two reads' variables share their names in the table, yet print apart
    ("q(A, B, C), q(D, E, F)",
     ["A = _G1, B = _G2, C = f(_G2, _G1), D = _G3, E = _G4, F = f(_G4, _G3)"]),
])
def test_run_prints_non_ground_answers(tmp_path, capsys, query, rows):
    p = tmp_path / "open.pl"
    p.write_text(NONGROUND)
    code = main(["run", str(p), "--query", query])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == rows


def test_run_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.pl"
    p.write_text("path(a,b")
    code = main(["run", str(p), "--query", "path(X, Y)"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "line 1" in err


def test_run_unknown_predicate_is_a_static_error(tmp_path, capsys):
    p = tmp_path / "undef.pl"
    p.write_text("a(X) :- nowhere(X).\n")
    code = main(["run", str(p), "--query", "a(X)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown predicate nowhere/1" in err


def test_run_missing_file_exits_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "gone.pl"), "--query", "p(X)"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_warning_does_not_block(tmp_path, capsys):
    p = tmp_path / "warn.pl"
    p.write_text(":- table lonely/1.\nfact(a).\n")
    code = main(["run", str(p), "--query", "fact(X)"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning:" in captured.err
    assert captured.out.splitlines() == ["X = a"]


def test_run_stats_go_to_stderr(reach_file, capsys):
    code = main(["run", reach_file, "--query", "path(a, X)", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert "insertions=" in captured.err
    assert "insertions=" not in captured.out


@pytest.mark.parametrize("sched, line", [
    ("local", "% table path/3 #1: answers=36 inserted=43 invalidated=7"
              " purged=7"),
    ("batched", "% table path/3 #1: answers=36 inserted=43 invalidated=7"
                " purged=7"),
])
def test_run_stats_report_each_table(tmp_path, capsys, sched, line):
    p = tmp_path / "shortest.pl"
    p.write_text(bench.program_text(bench.gen_instance("shortest", 6, 1)))
    code = main(["run", str(p), "--query", "path(X, Y, C)", "--stats",
                 "--sched", sched])
    err = capsys.readouterr().err.splitlines()
    assert code == 0
    assert len(err) == 2
    assert err[0].startswith("% 36 answers, ")
    assert err[1] == line


def test_run_stats_list_tables_in_first_call_order(tmp_path, capsys):
    # go's clauses compile a's call before b's, but a is called only once
    # t's answer is released, after the second clause has called b
    p = tmp_path / "order.pl"
    p.write_text(":- table t/1.\n:- table a/1.\n:- table b/1.\n"
                 "t(1).\na(2).\nb(3).\n"
                 "go(Y) :- t(_), a(Y).\ngo(Y) :- b(Y).\n")
    code = main(["run", str(p), "--query", "go(Y)", "--stats"])
    err = capsys.readouterr().err.splitlines()
    assert code == 0
    assert [line.split()[2] for line in err[1:]] == ["t/1", "b/1", "a/1"]


def test_run_sched_batched(reach_file, capsys):
    code = main(["run", reach_file, "--query", "path(a, X)", "--sched", "batched"])
    assert code == 0
    assert set(capsys.readouterr().out.splitlines()) == {"X = b", "X = c"}


def test_run_trace_events_writes_jsonl(reach_file, tmp_path, capsys):
    trace = tmp_path / "events.jsonl"
    code = main(["run", reach_file, "--query", "path(a, X)",
                 "--trace-events", str(trace)])
    assert code == 0
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert events
    kinds = {e["kind"] for e in events}
    assert "insert" in kinds
    assert kinds <= {"call", "insert", "deliver", "complete"}


@pytest.mark.parametrize("text, query", [
    ("p(X) :- p(X).\n", "p(a)"),
    (":- table nat(index, first).\n"
     "nat(0, z).\n"
     "nat(N, s(X)) :- nat(M, X), M < 3000, N is M + 1.\n",
     "nat(N, X)"),
])
def test_run_deep_recursion_exits_2(tmp_path, capsys, text, query):
    p = tmp_path / "deep.pl"
    p.write_text(text)
    code = main(["run", str(p), "--query", query])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: recursion went too deep: untabled calls or terms nest"
        " beyond the interpreter's stack"
    ]


def test_run_cyclic_binding_exits_2(tmp_path, capsys):
    # no occurs check: A = g(A, Y) is bound, and cannot be printed
    p = tmp_path / "cyclic.pl"
    p.write_text(":- table p(index, index).\np(X, g(X, Y)).\n")
    code = main(["run", str(p), "--query", "p(A, A)"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: cyclic term: A = g(A, Y) (unification has no occurs check)"
    ]


def test_run_prints_a_deep_answer(tmp_path, capsys):
    p = tmp_path / "nat.pl"
    p.write_text(":- table nat(index, first).\n"
                 "nat(0, z).\n"
                 "nat(N, s(X)) :- nat(M, X), M < 500, N is M + 1.\n")
    code = main(["run", str(p), "--query", "nat(500, X)"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "X = " + "s(" * 500 + "z" + ")" * 500 + "\n"
    assert err == ""


def test_run_reads_a_deeply_nested_fact(tmp_path, capsys):
    # the parser keeps its own stack, so the interpreter's does not
    # bound how deep a term in the program nests
    deep = "f(" * 10000 + "a" + ")" * 10000
    p = tmp_path / "nest.pl"
    p.write_text("q(%s).\n" % deep)
    code = main(["run", str(p), "--query", "q(X)"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "X = %s\n" % deep
    assert err == ""


def test_bench_runs_and_reports(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code = main(["bench", "shortest", "--size", "6", "--seed", "3",
                 "--check", "--json", str(out_json)])
    captured = capsys.readouterr()
    assert code == 0
    assert "shortest size=6 seed=3 local:" in captured.out
    assert "check=ok" in captured.out
    report = json.loads(out_json.read_text())
    assert report["instance"] == {"name": "shortest", "size": 6, "seed": 3}
    assert report["match"] is True
    assert len(report["ms"]) == 3
    assert set(report["stats"]) == {
        "derivations", "insertions", "invalidations", "propagations",
        "resumptions"
    }
    # per tabled predicate, the sums of its tables' counters: the same
    # figures --stats prints per table
    assert list(report["tables"]) == ["path/3"]
    tables = report["tables"]["path/3"]
    assert set(tables) == {"tables", "inserted", "invalidated", "purged"}
    assert tables["tables"] == 1
    assert tables["inserted"] - tables["purged"] == report["answers"] == 36
    p = tmp_path / "shortest.pl"
    p.write_text(bench.program_text(bench.gen_instance("shortest", 6, 3)))
    assert main(["run", str(p), "--query", "path(X, Y, C)", "--stats"]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("% table path/3")]
    assert lines == ["%% table path/3 #1: answers=36 inserted=%d invalidated=%d"
                     " purged=%d" % (tables["inserted"], tables["invalidated"],
                                     tables["purged"])]


def test_bench_check_mismatch_exits_1(monkeypatch, capsys):
    import modetab.bench as bench

    monkeypatch.setattr(bench, "check_answers", lambda inst, rows: False)
    code = main(["bench", "shortest", "--size", "5", "--seed", "1", "--check"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_bench_pagerank_batched_exits_2(capsys):
    code = main(["bench", "pagerank", "--size", "5", "--seed", "1",
                 "--sched", "batched"])
    assert code == 2
    assert "local" in capsys.readouterr().err


def test_bench_size_out_of_bounds_exits_2(capsys):
    code = main(["bench", "matrix", "--size", "99", "--seed", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "mystery", "--size", "5", "--seed", "0"])
    assert exc.value.code == 2
