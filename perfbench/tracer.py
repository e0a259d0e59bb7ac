"""In-memory span tracer that wraps arcpose functions at their call sites.

A span records (name, start_ns, end_ns, parent index, trace id). Spans are
kept in a list while the run goes and written out when it ends; self time is
derived afterwards as a span's duration minus the durations of its children
(one caller, so children never overlap).

Functions are patched where they are looked up: `harness` and `solver` bind
names with `from .x import y`, so wrapping `arcpose.sim.sample_pose` would
miss the call `harness.sample_pose(...)`. A patch target that no longer
exists is skipped and its layer reports zero calls, so the same benchmark
code measures commits that have removed or merged call sites.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Patch:
    """One name to wrap: `module.attr` becomes a span called `span`.

    `count` maps (args, kwargs, result) to a number added to the counter of
    the same name as the span. `span=None` wraps for counting only (no span),
    for leaf calls too cheap to time. `new_trace` starts a new trace id at
    each call (the first call of a Monte Carlo sample).
    """

    module: str
    attr: str
    span: str | None
    count: Callable | None = None
    counter: str | None = None
    new_trace: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def new_trace(self) -> None:
        self.trace_id += 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span opened by the benchmark itself."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn, count=None, counter=None, new_trace=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        counter = counter or name

        def wrapper(*args, **kwargs):
            if new_trace:
                self.trace_id += 1
            rec = [name, 0, 0, stack[-1] if stack else -1, self.trace_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                counts[counter] += count(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, fn, counter, count):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += 1 if count is None else count(args, kwargs, result)
            return result

        return wrapper

    def install(self, patches) -> None:
        for p in patches:
            module = importlib.import_module(p.module)
            original = getattr(module, p.attr, None)
            if original is None:
                self.missing.append(f"{p.module}.{p.attr}")
                continue
            if p.span is None:
                wrapped = self._counting(original, p.counter, p.count)
            else:
                wrapped = self._wrap(p.span, original, p.count, p.counter, p.new_trace)
            setattr(module, p.attr, wrapped)
            self._installed.append((module, p.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        self.missing = sorted(set(self.missing))

    def self_times(self) -> tuple[dict[str, int], dict[str, int], int]:
        """Per span name: total self time (ns) and call count; plus the total
        duration of root spans (the traced wall time)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        root_ns = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                root_ns += end - start
        return self_ns, calls, root_ns

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,trace_id\n")
            for name, start, end, parent, trace in self.spans:
                fh.write(f"{name},{start},{end},{parent},{trace}\n")
