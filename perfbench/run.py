"""modetab benchmark: solve one workload's instances back to back.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 15 --trace 0

A closed loop: one client in one process and one thread solves every
instance of the workload in turn, then starts the next pass, until the
time given by --seconds is used. Instances come from
`modetab.bench.gen_instance` with the given seed, and every answer set
is checked: once against `bench.check_answers` outside the timed
region, and on every later solve against the answers that passed.

--trace 0 prints the end-to-end metrics, measured with no tracing in
place. --trace 1 runs the traced split instead: untraced and traced
passes alternate, the traced ones record a span per call at each layer
boundary (see tracer.py), and the per-layer metrics come from their self
times and counters. The split is repeated once on a second seed, so the
layer shares can be compared across instances of the same families.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller report, with one row
per instance and the quartiles and sample count of every metric, goes
to perfbench/out/, next to the spans of the traced run.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

for _p in (os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

try:
    import modetab.engine as engine_mod
    import modetab.lang as lang_mod
    from modetab import bench
    from modetab.errors import ModetabError
except ImportError as exc:  # run outside a checkout of the repository
    sys.exit("perfbench: cannot import modetab from %s: %s"
             % (os.path.join(ROOT, "src"), exc))

from perfbench import tracer

# Each workload is a tuple of (family, size, strategy, copies); see
# README.md for why each was chosen and which layer it loads. Copy j of
# a family is drawn with seed + COPY_STRIDE * j. The work an instance
# takes varies between seeds (by about 5% for shortest, up to twofold
# for batched knapsack and matrix), so the copies keep a run's figures
# from hanging on one draw.
WORKLOADS = {
    # few tables, many answers: fact resolution under _deliver and
    # insert_answer's min/first/all/last/sum paths; completion is tiny
    "flat": (
        ("shortest", 100, "local", 2),
        ("shortest_first", 100, "local", 2),
        ("shortest_all", 100, "local", 2),
        ("shortest_pref", 100, "local", 2),
        ("pagerank", 200, "local", 2),
    ),
    # many tables, few answers each: _checkpoint plus _tarjan and clause
    # renaming dominate; insertion is a few percent
    "dp": (
        ("lcs", 60, "local", 1),
        ("knapsack", 30, "local", 1),
        ("matrix", 20, "local", 1),
    ),
    # the same code under batched scheduling, which pushes every
    # table-changing insert to consumers at once (pagerank refuses it)
    "batched": (
        ("shortest", 100, "batched", 2),
        ("lcs", 40, "batched", 2),
        ("knapsack", 20, "batched", 4),
        ("matrix", 15, "batched", 4),
    ),
}
COPY_STRIDE = 1000

END_TO_END = (
    ("solve_s", "s"),
    ("solve_gmean_ms", "ms"),
    ("solve_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_mib", "MiB"),
)

PER_LAYER = (
    ("lang.parse_program.s", "s"),
    ("lang.eval_arith.s", "s"),
    ("lang.eval_arith.calls", "count"),
    ("lang.eval_builtin.s", "s"),
    ("lang.eval_builtin.calls", "count"),
    ("terms.instantiate.s", "s"),
    ("terms.instantiate.calls", "count"),
    ("terms.unify.s", "s"),
    ("terms.unify.calls", "count"),
    ("terms.resolve.s", "s"),
    ("terms.resolve.calls", "count"),
    ("tries.subgoal_lookup_insert.s", "s"),
    ("tries.subgoal_lookup_insert.calls", "count"),
    ("tries.frames", "count"),
    ("tries.complete_table.s", "s"),
    ("tries.complete_table.calls", "count"),
    ("tries.purged", "count"),
    ("modes.insert_answer.s", "s"),
    ("modes.insert_answer.calls", "count"),
    ("modes.replaced", "count"),
    ("modes.rejected", "count"),
    ("modes.invalidated", "count"),
    ("modes.accept_ratio", "ratio"),
    ("modes.survival", "ratio"),
    ("engine.checkpoint.s", "s"),
    ("engine.checkpoint.calls", "count"),
    ("engine.tarjan.s", "s"),
    ("engine.clause_copy.s", "s"),
    ("engine.clause_copy.calls", "count"),
    ("engine.deliver.s", "s"),
    ("engine.run_generator.s", "s"),
    ("engine.solve.s", "s"),
    ("engine.derivations", "count"),
    ("engine.propagations", "count"),
    ("engine.resumptions", "count"),
    ("engine.deliveries_per_answer", "ratio"),
    ("engine.completion.share", "ratio"),
    ("modes.insert_answer.share", "ratio"),
    ("trace.solve_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.seed_share_gap", "ratio"),
)

# Layers whose self times make up solve time; their sum over traced
# solve time is trace.coverage, and each one's share is compared across
# the two seeds of a traced run.
SOLVE_LAYERS = tuple(
    name[:-2] for name, _ in PER_LAYER
    if name.endswith(".s") and name != "lang.parse_program.s"
)

# Metrics taken from one layer's counters rather than its spans; they
# go absent together with that layer.
COUNTED_AT = {
    "tries.frames": "tries.subgoal_lookup_insert",
    "tries.purged": "tries.complete_table",
    "modes.replaced": "modes.insert_answer",
    "modes.rejected": "modes.insert_answer",
    "modes.invalidated": "modes.insert_answer",
    "modes.accept_ratio": "modes.insert_answer",
    "modes.survival": "modes.insert_answer",
    "modes.insert_answer.share": "modes.insert_answer",
    "engine.completion.share": "engine.checkpoint",
}

SETUP_REPS = 21
MIN_PASSES = 3


def fits(start, passes, seconds):
    """Whether one more pass, as long as the mean pass so far, ends
    within the measuring time."""
    elapsed = time.perf_counter() - start
    return elapsed * (passes + 1) / passes <= seconds


def layer_of(metric):
    """The traced layer a per-layer metric is measured at, if any."""
    if metric in COUNTED_AT:
        return COUNTED_AT[metric]
    for suffix in (".s", ".calls"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return None


class Case:
    """One generated instance with everything solving it needs."""

    def __init__(self, family, size, strategy, seed):
        self.inst = bench.gen_instance(family, size, seed)
        self.strategy = strategy
        self.family = "%s/%d/%s" % (family, size, strategy)
        self.text = bench.program_text(self.inst)
        self.query = bench.query_text(self.inst)
        self.names = bench.query_vars(self.inst)
        self.program = None
        self.expected = None  # answer rows that passed the oracle
        self.failed = False

    @property
    def label(self):
        return "%s/s%d" % (self.family, self.inst.seed)


def make_cases(workload, seed):
    return [Case(f, n, s, seed + COPY_STRIDE * j)
            for f, n, s, copies in WORKLOADS[workload]
            for j in range(copies)]


def setup_pass(cases):
    """Parse, validate and build an engine for every case; returns seconds.

    Looks the functions up through `lang` at call time so the traced run
    sees them. Keeps the parsed programs for solving.
    """
    total = 0.0
    for case in cases:
        t0 = time.perf_counter()
        program = lang_mod.parse_program(case.text)
        problems = [d for d in lang_mod.validate(program)
                    if d.startswith("error")]
        engine_mod.Engine(program, case.strategy)
        total += time.perf_counter() - t0
        if problems:
            raise RuntimeError("%s: %s" % (case.label, problems[0]))
        case.program = program
    return total


# Machine speed. The machine this benchmark was defined on shares its
# CPUs with other tenants, and its speed drifts by up to 1.5x within
# minutes, in wall time and CPU time alike. So every timed stretch is
# bracketed by a fixed gauge: work shaped like the engine's (dict-keyed
# trie nodes, with the collector on). A time is reported as what it would
# be on a machine where the gauge takes GAUGE_SECONDS, its median on the
# 2-vCPU box the benchmark was defined on. Raw times go to the report.
GAUGE_SECONDS = 0.155


class _GaugeNode:
    __slots__ = ("key", "kids", "val")

    def __init__(self, key):
        self.key = key
        self.kids = {}
        self.val = None


def _gauge_work():
    x = 12345
    root = _GaugeNode(None)
    for _ in range(40000):
        node = root
        for _ in range(4):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x >> 20 & 15
            child = node.kids.get(key)
            if child is None:
                child = node.kids[key] = _GaugeNode(key)
            node = child
        node.val = (x, node.key)
    return root


def gauge():
    """Wall and CPU seconds of one run of the gauge, from a clean heap."""
    gc.collect()
    w0 = time.perf_counter()
    c0 = time.process_time()
    _gauge_work()
    return time.perf_counter() - w0, time.process_time() - c0


def speed(before, after):
    """Wall and CPU factors that scale a stretch timed between two gauge
    readings to the reference speed."""
    return tuple(2.0 * GAUGE_SECONDS / (b + a) for b, a in zip(before, after))


class Solve:
    __slots__ = ("rows", "answers", "left", "error", "wall", "cpu", "stats")


def solve_case(case):
    """Solve one case on a fresh engine; only Engine.solve is timed."""
    out = Solve()
    engine = engine_mod.Engine(case.program, case.strategy)
    gc.collect()
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        answers, stats = engine.solve(case.query)
    except (ModetabError, RecursionError) as exc:
        out.error = "%s: %s" % (type(exc).__name__, exc)
        return out
    out.cpu = time.process_time() - c0
    out.wall = time.perf_counter() - w0
    out.error = None
    out.stats = stats.as_dict()
    out.rows = [tuple(a[v] for v in case.names) for a in answers]
    out.answers = len(out.rows)
    out.left = answers_left(engine)
    return out


def answers_left(engine):
    """Valid answers in every table after completion."""
    n = 0
    for entry in engine.space.entries.values():
        for frame in entry.frames:
            leaf = frame.first_answer
            while leaf is not None:
                n += leaf.valid
                leaf = leaf.next
    return n


class Tally:
    """Attempted and failed solves of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def judge(self, case, result):
        """Count one solve; a case fails for good on its first failure."""
        self.attempted += 1
        if result.error is None:
            if case.expected is None:
                ok = bench.check_answers(case.inst, result.rows)
                if ok:
                    case.expected = sorted(result.rows, key=repr)
            else:
                ok = sorted(result.rows, key=repr) == case.expected
            if ok:
                return True
            result.error = "answers disagree with the oracle"
        self.failed += 1
        case.failed = True
        self.errors.append("%s: %s" % (case.label, result.error))
        return False


def checked_pass(cases, tally):
    """Solve every live case once, checking each answer set; returns the
    results of the cases that passed, by label."""
    done = {}
    for case in cases:
        if case.failed:
            continue
        result = solve_case(case)
        if tally.judge(case, result):
            done[case.label] = result
        result.rows = None  # checked; only the count is kept
    return done


def summary(values):
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _assert_untraced():
    left = tracer.wrapped_points()
    if left:
        raise RuntimeError("tracing wrappers in place during timing: %s"
                           % ", ".join(left))


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_end_to_end(workload, seed, seconds):
    tally = Tally()
    cases = make_cases(workload, seed)
    _assert_untraced()
    setup_pass(cases)

    # peak memory: growth of the process's resident high-water mark over
    # the first pass, which is untimed and also warms the engine up. It
    # comes before any gauge reading, whose garbage would hide the growth;
    # tracemalloc would slow this pass about tenfold.
    gc.collect()
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    warm = [(case, solve_case(case)) for case in cases]
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for case, result in warm:
        tally.judge(case, result)
    del warm, result

    before = gauge()
    raw_setup = []
    for _ in range(SETUP_REPS):
        gc.collect()
        raw_setup.append(setup_pass(cases))
    factor = speed(before, gauge())[0]
    setup = [t * factor for t in raw_setup]

    _assert_untraced()
    per_case = {case.label: [] for case in cases}
    passes = []  # per pass: (wall, cpu, raw wall, raw cpu)
    reading = gauge()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(start, len(passes), seconds):
        done = checked_pass(cases, tally)
        previous, reading = reading, gauge()
        fw, fc = speed(previous, reading)
        wall = sum(r.wall for r in done.values())
        cpu = sum(r.cpu for r in done.values())
        passes.append((wall * fw, cpu * fc, wall, cpu))
        for label, r in done.items():
            per_case[label].append((r.wall * fw, r.cpu * fc, r))

    rows = []
    family_ms = {}  # per family, its copies' median times summed
    for case in cases:
        results = per_case[case.label]
        row = {"instance": case.label, "ok": not case.failed,
               "n": len(results)}
        if results and not case.failed:
            row["solve_ms"] = 1e3 * statistics.median(w for w, _, _ in results)
            row["cpu_ms"] = 1e3 * statistics.median(c for _, c, _ in results)
            row["raw_solve_ms"] = 1e3 * statistics.median(
                r.wall for _, _, r in results)
            last = results[-1][2]
            row["answers"] = last.answers
            row["stats"] = last.stats
            family_ms[case.family] = (family_ms.get(case.family, 0.0)
                                      + row["solve_ms"])
        rows.append(row)

    stats = {
        "solve_s": summary([p[0] for p in passes]),
        "solve_cpu_s": summary([p[1] for p in passes]),
        "setup_s": summary(setup),
        "solve_gmean_ms": {"median": geomean(family_ms.values()),
                           "n": len(family_ms)},
        # ru_maxrss is in KiB on Linux
        "peak_mib": {"median": (rss1 - rss0) / 1024.0, "n": 1},
        "failed_frac": {"median": tally.failed / tally.attempted,
                        "n": tally.attempted},
        "raw": {
            "solve_s": summary([p[2] for p in passes]),
            "solve_cpu_s": summary([p[3] for p in passes]),
            "setup_s": summary(raw_setup),
        },
    }
    metrics = {name: stats[name]["median"] for name, _ in END_TO_END}
    return tally, rows, metrics, stats, END_TO_END


# ---------------------------------------------------------------------------
# --trace 1: per-layer split


def traced_pass(cases, tally):
    """One checked pass with the tracer installed; returns (tracer, done)."""
    with tracer.Tracer() as tr:
        done = checked_pass(cases, tally)
    return tr, done


def layer_figures(tr, done):
    """Self seconds, calls and counters of one traced pass."""
    times = tr.self_times()
    solve_s = tr.root_seconds()
    fig = {"trace.solve_s": solve_s}
    for name, (secs, calls) in times.items():
        fig[name + ".s"] = secs
        fig[name + ".calls"] = calls
    for key in ("tries.frames", "tries.purged", "modes.replaced",
                "modes.rejected", "modes.invalidated"):
        fig[key] = tr.counts.get(key, 0)
    for key in ("derivations", "propagations", "resumptions"):
        fig["engine." + key] = sum(r.stats[key] for r in done.values())
    left = sum(r.left for r in done.values())
    inserts = fig.get("modes.insert_answer.calls", 0)
    rejected = fig["modes.rejected"]
    fig["modes.accept_ratio"] = (inserts - rejected) / inserts if inserts else 0.0
    fig["modes.survival"] = left / inserts if inserts else 0.0
    fig["engine.deliveries_per_answer"] = (
        fig["engine.propagations"] / left if left else 0.0)
    shares = {layer: fig.get(layer + ".s", 0.0) / solve_s
              for layer in SOLVE_LAYERS if layer + ".s" in fig}
    fig["trace.coverage"] = sum(shares.values())
    fig["engine.completion.share"] = (shares.get("engine.checkpoint", 0.0)
                                      + shares.get("engine.tarjan", 0.0))
    fig["modes.insert_answer.share"] = shares.get("modes.insert_answer", 0.0)
    return fig, shares


def run_traced(workload, seed, seconds):
    tally = Tally()
    cases = make_cases(workload, seed)
    setup_pass(cases)
    with tracer.Tracer() as setup_tr:
        setup_pass(cases)
    parse = setup_tr.self_times().get("lang.parse_program", (0.0, 0))[0]
    checked_pass(cases, tally)  # warm-up and oracle gate

    plain, traced = [], []
    first = None
    start = time.perf_counter()
    while not traced or fits(start, len(traced), seconds):
        _assert_untraced()
        done = checked_pass(cases, tally)
        plain.append(sum(r.wall for r in done.values()))
        tr, done = traced_pass(cases, tally)
        fig, shares = layer_figures(tr, done)
        fig["trace.wall_s"] = sum(r.wall for r in done.values())
        traced.append(fig)
        if first is None:
            first = (tr, done, shares)
    _assert_untraced()
    tr, done, shares = first
    absent = sorted({layer_of(n) for n, _ in PER_LAYER} - {None}
                    - set(tr.names) - set(setup_tr.names))
    os.makedirs(OUT, exist_ok=True)
    tr.save(os.path.join(OUT, "spans-%s-s%d.npz" % (workload, seed)))

    # the same split on a second seed: the shares should be a property
    # of the families, not of one draw of instances
    cases2 = make_cases(workload, seed + 1)
    setup_pass(cases2)
    checked_pass(cases2, tally)
    tr2, done2 = traced_pass(cases2, tally)
    _, shares2 = layer_figures(tr2, done2)

    rows = []
    for case in cases + cases2:
        r = (done if case in cases else done2).get(case.label)
        row = {"instance": case.label, "ok": not case.failed}
        if r is not None:
            row["traced_ms"] = r.wall * 1000.0
            row["answers"] = r.answers
            row["stats"] = r.stats
        rows.append(row)

    stats = {}
    for name, _ in PER_LAYER:
        values = [fig[name] for fig in traced if name in fig]
        if values:
            stats[name] = summary(values)
    stats["lang.parse_program.s"] = {"median": parse, "n": 1}
    wall = statistics.median(f["trace.wall_s"] for f in traced)
    stats["trace.overhead"] = {"median": wall / statistics.median(plain),
                               "n": len(traced)}
    gap = max((abs(shares[k] - shares2[k]) for k in shares if k in shares2),
              default=0.0)
    stats["trace.seed_share_gap"] = {"median": gap, "n": 2}
    metric_names = [(n, u) for n, u in PER_LAYER if layer_of(n) not in absent]
    metrics = {n: stats[n]["median"] for n, _ in metric_names}
    stats["shares"] = {"seed%d" % seed: shares, "seed%d" % (seed + 1): shares2}
    stats["absent"] = absent
    stats["failed_frac"] = {"median": tally.failed / tally.attempted,
                            "n": tally.attempted}
    return tally, rows, metrics, stats, metric_names


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    run = run_traced if args.trace else run_end_to_end
    tally, rows, metrics, stats, declared = run(args.workload, args.seed,
                                                args.seconds)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    for err in tally.errors:
        print("FAILED " + err, file=sys.stderr)
    if stats.get("absent"):
        print("absent layers: " + ", ".join(stats["absent"]))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "instances": rows, "metrics": stats}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "report-%s-s%d-t%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
