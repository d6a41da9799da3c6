"""Span tracing of modetab's layers, installed from outside the program.

A Tracer wraps the functions each layer hands to the engine, that is
every function `modetab.engine` imports from `terms`, `lang`, `tries`
and `modes`, plus the Engine entry points of its own sub-layers and the
set-up functions of `lang`. Each wrapper records one span (name, start,
end, parent) in flat arrays, so a traced pass of a million calls stays
in a few tens of MiB. Spans are turned into self times once the pass is
over: a span's duration minus the durations of its child spans.

Nothing here touches `src/`: the wrappers are set as attributes of the
engine module and the Engine class, and `remove` puts the originals
back. A point that a later version of the engine no longer has is
simply not wrapped, and its name is missing from `Tracer.names`.
"""

import functools
import inspect
import time
from array import array

import numpy as np

import modetab.engine as engine_mod
import modetab.lang as lang_mod

# The layers whose functions engine.py imports; their wrappers go on the
# engine module's globals, which is where engine.py looks them up.
LAYER_MODULES = ("terms", "lang", "tries", "modes")

# Engine sub-layers named in the roadmap: (span name, owner, attribute).
# `_walk` is left out on purpose: it recurses once per goal, and its
# time is the self time of the entry point it runs under.
ENGINE_POINTS = (
    ("engine.solve", "Engine", "solve"),
    ("engine.run_generator", "Engine", "_run_generator"),
    ("engine.deliver", "Engine", "_deliver"),
    ("engine.clause_copy", "Engine", "_clause_copy"),
    ("engine.checkpoint", "Engine", "_checkpoint"),
    ("engine.tarjan", "module", "_tarjan"),
)

# Set-up runs outside solve; the benchmark calls these through `lang`.
SETUP_POINTS = (
    ("lang.parse_program", "lang", "parse_program"),
    ("lang.validate", "lang", "validate"),
)

ROOT_SPAN = "engine.solve"

_WRAPPED = "__perfbench_wrapped__"


def _owner(kind):
    if kind == "Engine":
        return engine_mod.Engine
    if kind == "lang":
        return lang_mod
    return engine_mod


def _count_new_frame(counts, args, result):
    if result[1]:
        counts["tries.frames"] = counts.get("tries.frames", 0) + 1


def _count_outcome(counts, args, result):
    key = "modes." + result.kind
    counts[key] = counts.get(key, 0) + 1
    counts["modes.invalidated"] = (counts.get("modes.invalidated", 0)
                                   + result.invalidated)


def _count_purged(counts, args, result):
    # a frame completes once, so its purge count is this call's work
    counts["tries.purged"] = counts.get("tries.purged", 0) + args[0].n_purged


# Counters taken at the same boundaries as the spans.
AFTER = {
    "tries.subgoal_lookup_insert": _count_new_frame,
    "modes.insert_answer": _count_outcome,
    "tries.complete_table": _count_purged,
}


def targets():
    """Every point this version of modetab has, as (span name, owner,
    attribute)."""
    found = []
    for attr, obj in sorted(vars(engine_mod).items()):
        layer = getattr(obj, "__module__", "").rpartition(".")[2]
        if inspect.isfunction(obj) and layer in LAYER_MODULES:
            found.append(("%s.%s" % (layer, attr), engine_mod, attr))
    for name, kind, attr in ENGINE_POINTS + SETUP_POINTS:
        owner = _owner(kind)
        if inspect.isfunction(vars(owner).get(attr)):
            found.append((name, owner, attr))
    return found


def wrapped_points():
    """Names of points that currently hold a tracing wrapper."""
    return [name for name, owner, attr in targets()
            if getattr(vars(owner)[attr], _WRAPPED, False)]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr in targets():
            original = vars(owner)[attr]
            if getattr(original, _WRAPPED, False):
                raise RuntimeError("%s is already traced" % name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent = self.name_of, self.parent
        start, end, stack = self.start, self.end, self._stack
        counts = self.counts
        after = AFTER.get(name)
        clock = time.perf_counter

        def enter():
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def leave(i):
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so time the caller spends between
            # two items is not charged to the generator
            def resumed(it):
                while True:
                    i = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(i)
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return resumed(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(i)
                if after is not None:
                    after(counts, args, result)
                return result

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    # -- results ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name index, parent index, start, end."""
        # copies: a live view would stop the arrays from growing
        return (np.frombuffer(self.name_of, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def self_times(self):
        """Per span name: (self seconds, calls)."""
        name_of, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        secs = np.bincount(name_of, weights=own, minlength=len(self.names))
        calls = np.bincount(name_of, minlength=len(self.names))
        return {name: (float(secs[k]), int(calls[k]))
                for k, name in enumerate(self.names)}

    def root_seconds(self):
        """Summed duration of the top-level solve spans."""
        name_of, parent, start, end = self.arrays()
        if ROOT_SPAN not in self.names:
            return 0.0
        roots = (name_of == self.names.index(ROOT_SPAN)) & (parent < 0)
        return float((end[roots] - start[roots]).sum())

    def save(self, path):
        name_of, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name_of,
                 parent=parent, start=start, end=end)
