"""The benchmark's own code: tracing, restoring, the report, the oracle gate.

Run with: python3 -m pytest perfbench/tests -q
"""

import functools
import json
import os

import pytest

import modetab.engine as engine_mod
import modetab.lang as lang_mod
from modetab.errors import EvaluationError
from perfbench import run, tracer

TINY = (
    ("shortest", 6, "local", 1),
    ("lcs", 5, "local", 1),
    ("knapsack", 4, "batched", 1),
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload shrunk to a few small instances; reports go to tmp."""
    for name in run.WORKLOADS:
        monkeypatch.setitem(run.WORKLOADS, name, TINY)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


def _ready_cases():
    cases = run.make_cases("flat", 3)
    run.setup_pass(cases)
    run.checked_pass(cases, run.Tally())  # fixes the expected answers
    return cases


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_self_times_sum_to_traced_solve_time(tiny):
    cases = _ready_cases()
    tr, done = run.traced_pass(cases, run.Tally())
    assert len(done) == len(TINY)
    times = tr.self_times()
    total_self = sum(secs for secs, _ in times.values())
    assert tr.root_seconds() > 0
    assert total_self == pytest.approx(tr.root_seconds(), rel=1e-9, abs=1e-12)
    assert times["engine.solve"][1] == len(TINY)
    assert all(secs >= 0 for secs, _ in times.values())


def test_wrappers_are_restored_after_a_traced_run(tiny):
    originals = {
        (owner, attr): vars(owner)[attr]
        for _, owner, attr in tracer.targets()
    }
    assert ("engine.deliver" in
            {name for name, _, _ in tracer.targets()})
    cases = _ready_cases()
    with tracer.Tracer():
        assert set(tracer.wrapped_points()) == {
            name for name, _, _ in tracer.targets()}
        assert engine_mod.unify is not originals[engine_mod, "unify"]
    assert tracer.wrapped_points() == []
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn

    # also when the traced code raises
    with pytest.raises(EvaluationError):
        with tracer.Tracer():
            engine_mod.Engine(cases[0].program).solve("?- nosuch(X).")
    assert tracer.wrapped_points() == []
    assert lang_mod.parse_program is originals[lang_mod, "parse_program"]


def test_timing_refuses_to_run_with_wrappers_in_place(tiny):
    with tracer.Tracer():
        with pytest.raises(RuntimeError, match="tracing wrappers"):
            run.run_end_to_end("flat", 1, 0.01)


def test_report_schema_matches_benchmark_json(tiny, capsys):
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, key, declared in ((0, "end_to_end", run.END_TO_END),
                                 (1, "per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(declared)
        assert run.main(["--workload", "dp", "--seed", "2",
                         "--seconds", "0.01", "--trace", str(trace)]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True
        assert out["failed"] == 0 and out["attempted"] >= 1
        assert list(out["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            got = out["metrics"][m["name"]]
            assert set(got) == {"value", "unit"}
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        report = tiny / ("report-dp-s2-t%d.json" % trace)
        rows = json.loads(report.read_text())["instances"]
        assert len(rows) == len(TINY) * (1 + trace)
        assert all(row["ok"] and "stats" in row for row in rows)
    assert (tiny / "spans-dp-s2.npz").exists()


def test_injected_wrong_answer_counts_toward_failed_frac(tiny, monkeypatch):
    solve = engine_mod.Engine.solve

    def wrong_on_lcs(self, query):
        answers, stats = solve(self, query)
        if query.startswith("?- lcs"):
            answers = [{"L": 99}]
        return answers, stats

    monkeypatch.setattr(engine_mod.Engine, "solve", wrong_on_lcs)
    tally, rows, metrics, stats, _ = run.run_end_to_end("flat", 1, 0.01)
    assert tally.failed == 1
    assert stats["failed_frac"]["median"] == 1 / tally.attempted
    assert [row["ok"] for row in rows] == [True, False, True]
    assert metrics["solve_s"] > 0


@pytest.mark.parametrize("exc", [EvaluationError("boom"),
                                 RecursionError("deep")])
def test_a_raising_solve_is_a_failure_not_an_abort(tiny, monkeypatch, exc):
    solve = engine_mod.Engine.solve

    def raise_on_knapsack(self, query):
        if query.startswith("?- ks"):
            raise exc
        return solve(self, query)

    monkeypatch.setattr(engine_mod.Engine, "solve", raise_on_knapsack)
    tally, rows, _, _, _ = run.run_end_to_end("flat", 1, 0.01)
    assert tally.failed == 1
    assert type(exc).__name__ in tally.errors[0]
    assert [row["ok"] for row in rows] == [True, True, False]


def test_a_removed_layer_is_reported_absent(tiny, monkeypatch):
    # a callable that is not a plain function cannot be wrapped, which
    # is how a later engine without _tarjan looks to the tracer
    monkeypatch.setattr(engine_mod, "_tarjan",
                        functools.partial(engine_mod._tarjan))
    tally, _, metrics, stats, declared = run.run_traced("dp", 1, 0.01)
    assert tally.failed == 0
    assert stats["absent"] == ["engine.tarjan"]
    assert "engine.tarjan.s" not in metrics
    assert "engine.checkpoint.s" in metrics
    assert [n for n, _ in declared] == list(metrics)
