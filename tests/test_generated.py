"""Generated functions under their own names: tracebacks show their
lines, and profilers and linecache tell one source from another."""

import cProfile
import linecache
import pstats
import re
import traceback

import pytest

import modetab.engine as engine_mod
from modetab import bench
from modetab.engine import Engine
from modetab.errors import DerivationLimitError
from modetab.lang import parse_program

NAME = re.compile(r"<modetab (run|site|tries|put) \d+>\Z")

# d stores its answers in the fused stores of its runs; r and s, whose
# bodies end in a call, through two different puts
TWO_PUTS = """
e(a, b, 2). e(b, c, 1). e(a, c, 5).
:- table d(index, index, min).
d(X, Y, C) :- e(X, Y, C).
d(X, Y, C) :- d(X, Z, C1), e(Z, Y, C2), C is C1 + C2.
:- table r(index, index).
r(X, Y) :- d(X, Y, _).
:- table s(index).
s(Y) :- r(a, Y).
"""


def generated(code):
    """A compiled source's code object and every code object inside it."""
    yield code
    for c in code.co_consts:
        if hasattr(c, "co_filename"):
            yield from generated(c)


def limit_frames(text, limit):
    """The generated frames of the traceback of a solve of p(X) that
    trips the derivation limit."""
    with pytest.raises(DerivationLimitError) as excinfo:
        Engine(parse_program(text), limit=limit).solve("?- p(X).")
    return [f for f in traceback.extract_tb(excinfo.value.__traceback__)
            if NAME.match(f.filename)]


def test_a_put_shows_its_line_in_a_traceback():
    # the clause try counts 1 and checks; the = goal counts 2 and hands
    # the answer to the put, which checks
    frames = limit_frames(":- table p/1.\np(X) :- X = 1.\n", 1)
    assert [f.name for f in frames][-2:] == ["tries", "put"]
    assert frames[-1].filename.startswith("<modetab put ")
    assert frames[-1].line == "_over(limit)"


def test_a_fused_store_shows_its_line_in_a_traceback():
    # the clause try counts 1 and checks; the fact row counts 2, which
    # only the store that the run ends in checks
    frames = limit_frames(":- table p/1.\np(X) :- q(X).\nq(1).\n", 1)
    assert [f.name for f in frames][-2:] == ["tries", "step"]
    assert frames[-1].filename.startswith("<modetab run ")
    assert frames[-1].line == "_over(limit)"


def test_pstats_keeps_each_put_apart():
    profile = cProfile.Profile()
    engine = Engine(parse_program(TWO_PUTS))
    profile.runcall(engine.solve, "?- s(Y).")
    calls = {}  # per generated code object, its calls
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str) and NAME.match(code.co_filename):
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            calls[key] = calls.get(key, 0) + entry.callcount
    listed = {key: row[1] for key, row in pstats.Stats(profile).stats.items()
              if NAME.match(key[0])}
    puts = [key for key in listed if key[2] == "put"]
    assert len(puts) >= 2 and len({key[0] for key in puts}) == len(puts)
    # d's two clauses each end in a run with its store fused in
    stores = [key for key in listed if key[2] == "step"
              and key[0].startswith("<modetab run ")]
    assert len(stores) >= 2 and len({key[0] for key in stores}) == len(stores)
    assert listed == calls


def test_checkcache_keeps_the_generated_lines():
    Engine(parse_program(TWO_PUTS)).solve("?- s(Y).")
    names = [name for name in linecache.cache if NAME.match(name)]
    assert names
    linecache.checkcache()
    for name in names:
        assert linecache.getline(name, 1).startswith("def make(D")


def test_every_generated_source_is_named_by_kind(monkeypatch):
    codes = []
    real = engine_mod._code

    def recorded(kind, source):
        code = real(kind, source)
        codes.append((kind, code))
        return code

    monkeypatch.setattr(engine_mod, "_code", recorded)
    # puts are cached per process by shape: make these solves build theirs
    engine_mod._put.cache_clear()
    for family in ("lcs", "shortest"):
        inst = bench.gen_instance(family, 20, 3)
        Engine(parse_program(bench.program_text(inst))).solve(
            bench.query_text(inst))
    assert {kind for kind, _ in codes} == {"run", "site", "tries", "put"}
    for kind, code in codes:
        for inner in generated(code):
            match = NAME.match(inner.co_filename)
            assert match and match.group(1) == kind


def test_no_two_profiled_functions_share_a_pstats_key():
    # pstats keys a function by (file, line, name) and keeps one row per
    # key, so two code objects under one key would lose one's figures
    profile = cProfile.Profile()
    for family in ("shortest", "lcs"):
        inst = bench.gen_instance(family, 20, 3)
        engine = Engine(parse_program(bench.program_text(inst)))
        profile.runcall(engine.solve, bench.query_text(inst))
    codes = {}  # per key, the code objects profiled under it
    for entry in profile.getstats():
        if not isinstance(entry.code, str):
            codes.setdefault(cProfile.label(entry.code), set()).add(
                entry.code)
    assert len(codes) > 20
    shared = {key: len(found) for key, found in codes.items()
              if len(found) > 1}
    assert shared == {}
