"""Spans and counters around the public functions of each setmaps module.

The tracer runs inside a benchmark child process.  ``install`` wraps the
public functions and methods of ``umbral``, ``ring``, ``graphs``,
``expansions``, ``abel`` and ``cli`` that the benchmark's jobs reach; a
function imported by name into another module (``partitions_of``,
``chromatic_setmap``, ...) is replaced in every module that holds it, so
calls through any import are seen.  Each wrapped call records a span
(name, start, end, parent span, job id) in memory.  ``end_job`` folds the
job's spans into per-name totals, inclusive and self time, where self time
is a span's duration minus the time its child spans cover.

The per-layer metrics themselves, with their units, are listed in
BENCHMARK.json; ``MOVES`` records for each the end-to-end metric and
workload it is expected to move.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

MOVES = {
    "cli.start_s": "setup_s on every workload",
    "cli.main.self_s": "setup_s and job_p50_s on every workload (parse, dispatch, render)",
    "umbral.family_poly.s": "job_tail_s on expand (the logfamily job)",
    "umbral.family_poly.calls": "job_tail_s on expand",
    "umbral.delta.s": "job_p50_s on expand",
    "umbral.functional_apply.s": "job_p50_s on expand",
    "umbral.functional_apply.calls": "job_p50_s on expand",
    "ring.partitions.items": "wall_s on expand; near zero on table",
    "ring.partitions.calls": "wall_s on expand",
    "ring.subsets.items": "wall_s on expand",
    "graphs.table.s": "wall_s, job_p50_s and peak_rss_mb on table; about 2 % of expand",
    "graphs.table.calls": "wall_s on table",
    "graphs.table.entries": "wall_s and peak_rss_mb on table",
    "graphs.chromatic_poly.s": "job_p50_s on expand and table (the reconstruct check)",
    "graphs.chromatic_poly.calls": "job_p50_s on expand and table",
    "graphs.load.s": "job_p50_s on expand and table",
    "expansions.expand.s": "wall_s on expand",
    "expansions.by_length.s": "wall_s and job_p50_s on expand",
    "expansions.by_length.calls": "wall_s on expand",
    "expansions.reconstruct.self_s": "wall_s on expand",
    "expansions.verifiers.self_s": "wall_s on expand (verify --check expansion)",
    "abel.identities.s": "wall_s on expand (verify --check closed-form)",
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
}


class Tracer:
    """In-memory spans and counters for one child process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = 0

    def timed(self, name: str, fn, count=None, skip_under: str | None = None):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``count(args)`` returns extra work counted under ``name + ".<key>"``.
        A call made while a ``skip_under`` span is innermost is part of that
        span's work and records nothing.
        """
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_under is not None and stack and spans[stack[-1]][0] == skip_under:
                return fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args).items():
                    counts[f"{name}.{key}"] += value
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, gen_fn):
        """Wrap a generator function, counting its calls and the items it yields."""
        counts = self.counts

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            items = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                counts[f"{name}.items"] += items

        return wrapper

    def end_job(self) -> dict:
        """Fold this job's spans into {name: [inclusive s, self s, calls]} plus counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for index, (name, start, end, parent, _) in enumerate(spans):
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            if not _has_ancestor(spans, parent, name):
                entry[0] += end - start
            entry[1] += end - start - child_time[index]
            entry[2] += 1
        out = {"spans": totals, "counts": dict(self.counts)}
        spans.clear()
        self.counts.clear()
        return out


def _has_ancestor(spans: list, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _replace(modules, old, new) -> None:
    """Point every module-level name bound to ``old`` at ``new``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every setmaps module with ``tracer``."""
    from setmaps import abel, cli, expansions, graphs, ring, umbral

    modules = [m for name, m in sys.modules.items()
               if name == "setmaps" or name.startswith("setmaps.")]

    def function(module, attr, name, **kw):
        old = getattr(module, attr)
        _replace(modules, old, tracer.timed(name, old, **kw))

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.timed(name, vars(cls)[attr], **kw))

    for module, attr, name in (
        (ring, "partitions_of", "ring.partitions"),
        (ring, "subsets_of", "ring.subsets"),
    ):
        old = getattr(module, attr)
        _replace(modules, old, tracer.counted(name, old))

    function(cli, "main", "cli.main")
    method(umbral.BinomialFamily, "poly", "umbral.family_poly")
    for family in umbral.BinomialFamily.__subclasses__():
        method(family, "delta", "umbral.delta")
    method(umbral.Functional, "__call__", "umbral.functional_apply")

    function(graphs, "chromatic_setmap", "graphs.table",
             count=lambda args: {"entries": 1 << args[0].n})
    function(graphs, "chromatic_poly", "graphs.chromatic_poly", skip_under="graphs.table")
    function(graphs, "load_graph", "graphs.load")

    function(expansions, "expand", "expansions.expand")
    method(expansions.Expansion, "by_length", "expansions.by_length")
    method(expansions.Expansion, "reconstruct", "expansions.reconstruct")
    function(expansions, "expansion_reconstructs", "expansions.verifiers")

    function(abel, "verify_closed_form_partition_sum", "abel.identities")
