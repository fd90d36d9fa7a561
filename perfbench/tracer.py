"""Outside-in span tracer for the benchmark.

The benchmark never edits ``src/``.  Instead it wraps the public
functions and methods that sit at each layer boundary, from outside, and
records one span per call: ``(name, start_ns, end_ns, parent)``.  Spans
live in memory until :meth:`Tracer.dump` writes them out at the end of
the traced process.

A layer's *self time* is its spans' durations minus the time covered by
their direct child spans (spans nest per thread, so child intervals sit
inside the parent's and never overlap each other).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# (span name, kind, import path of the owner, attribute) for every wrapped
# call.  ``kind`` is "func" for module-level functions (rebound in every
# loaded ``repro`` module that imported them by name), "method" for class
# attributes, and "dict" for the values of a module-level dispatch table.
TARGETS = (
    ("layout.mask", "method", "repro.layout.env.PlacementEnv", "legal_unit_actions"),
    ("layout.mask", "method", "repro.layout.env.PlacementEnv", "legal_group_actions"),
    ("layout.state", "method", "repro.layout.env.PlacementEnv", "group_state"),
    ("layout.state", "method", "repro.layout.env.PlacementEnv", "global_state"),
    ("layout.contexts", "func", "repro.layout.context", "device_contexts_all"),
    ("core.turn", "func", "repro.core.optimizer", "price_proposals"),
    ("core.select", "method", "repro.core.qlearning.QAgent", "select_many"),
    ("core.learn", "method", "repro.core.qlearning.QAgent", "learn"),
    ("variation.deltas", "method", "repro.eval.evaluator.PlacementEvaluator", "deltas_for"),
    ("variation.deltas", "method", "repro.eval.evaluator.PlacementEvaluator", "deltas_for_many"),
    ("route.parasitics", "func", "repro.route.parasitics", "annotate_parasitics"),
    ("eval.evaluate", "method", "repro.eval.evaluator.PlacementEvaluator", "evaluate"),
    ("eval.evaluate", "method", "repro.eval.evaluator.PlacementEvaluator", "evaluate_many"),
    ("eval.suite", "dict", "repro.eval.suites", "SUITES"),
    ("eval.batch_suite", "dict", "repro.eval.batch_suites", "BATCH_SUITES"),
    ("sim.dc", "func", "repro.sim.dc", "solve_dc"),
    ("sim.ac", "func", "repro.sim.ac", "solve_ac"),
    ("sim.batch_solve", "func", "repro.sim.batch", "solve_dc_many"),
    ("sim.batch_solve", "func", "repro.sim.batch", "solve_ac_many"),
    ("runtime.execute_run", "func", "repro.runtime.spec", "execute_run"),
    ("service.journal_append", "method", "repro.service.journal.JobJournal", "append"),
    ("netlist.ingest", "func", "repro.netlist.constraints", "ingest_deck"),
    ("netlist.parse", "func", "repro.netlist.spice", "parse_spice"),
    ("netlist.flatten", "method", "repro.netlist.hierarchy.HierarchicalCircuit", "flatten"),
    ("netlist.extract", "func", "repro.netlist.constraints", "extract_constraints"),
    ("netlist.validate", "func", "repro.netlist.constraints", "validate_constraints"),
)

#: Modules imported before wrapping, so every by-name import of a wrapped
#: function is rebound (later imports read the wrapped attribute).
PRELOAD = (
    "repro.cli", "repro.service.http", "repro.service.corpus",
    "repro.eval.batch_suites", "repro.sim.batch", "repro.runtime.spec",
)


class Tracer:
    """In-memory span recorder with a per-thread parent stack.

    ``spans`` holds ``[name, start_ns, end_ns, parent_index]`` lists
    (``parent_index`` is ``-1`` for a root span); ``counts`` holds named
    integer counters recorded at the same boundaries.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a ``name`` span per call.

        ``hook(args)``, when given, runs before the call and returns a
        ``finish(result)`` callable that updates :attr:`counts` after it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(
                    [name, 0, 0, stack[-1] if stack else -1])
            finish = hook(args) if hook else None
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = tracer.spans[index]
                span[1], span[2] = start, end
            if finish:
                finish(result)
            return result

        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans, counters and ``extra`` as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       **(extra or {})}, fh)


def _resolve(path: str):
    """The module, class or attribute an import path names."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module_name, __, attr = path.rpartition(".")
        return getattr(importlib.import_module(module_name), attr)


def _hook(tracer: Tracer, attr: str):
    """Counter hook for the wrapped calls that carry counts, else None."""
    counts = tracer.counts

    def counter(key: str):
        def hook(args):
            def finish(result):
                counts[key] += 1
            return finish
        return hook

    if attr in ("legal_unit_actions", "legal_group_actions"):
        def hook(args):
            def finish(result):
                counts["layout.mask_calls"] += 1
                counts["layout.legal_actions"] += len(result)
            return finish
        return hook
    if attr in ("evaluate", "evaluate_many"):
        def hook(args):
            ev = args[0]
            before = (ev.sim_count, ev.cache_hits, ev.sim_failures)

            def finish(result):
                counts["eval.evaluate_calls"] += 1
                counts["eval.requests"] += (
                    len(result) if attr == "evaluate_many" else 1)
                counts["eval.sims"] += ev.sim_count - before[0]
                counts["eval.cache_hits"] += ev.cache_hits - before[1]
                counts["eval.sim_failures"] += ev.sim_failures - before[2]
            return finish
        return hook
    simple = {
        "price_proposals": "core.turns",
        "solve_dc": "sim.dc_calls",
        "append": "service.journal_appends",
        "ingest_deck": "netlist.decks",
    }
    if attr in simple:
        return counter(simple[attr])
    return None


def install(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` entry for ``tracer``.

    Imports :data:`PRELOAD` first.  A function imported by name into
    another module is rebound there too, so no call path escapes.
    """
    for module in PRELOAD:
        _resolve(module)
    for name, kind, owner_path, attr in TARGETS:
        owner = _resolve(owner_path)
        if kind == "dict":
            table = getattr(owner, attr)
            for key, fn in list(table.items()):
                table[key] = tracer.wrap(name, fn)
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, _hook(tracer, attr))
        setattr(owner, attr, wrapped)
        if kind != "func":
            continue
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is owner:
                continue
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time in seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans whose parent is missing count as roots.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if 0 <= parent < len(spans):
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += (end - start - child_ns[i]) / 1e9
    return dict(out)


def durations(spans: list[list], name: str) -> list[float]:
    """Wall durations in seconds of every span called ``name``."""
    return [(end - start) / 1e9 for n, start, end, __ in spans if n == name]
