"""Span tracing around calls into drawrating's public module attributes.

The tracer replaces a module attribute (``engine.run_period``, ...) with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  Counts are recorded at the same boundary by
an optional ``count(counters, args, kwargs, result)`` hook.  Spans are kept
in memory in flat arrays and written out by ``write`` when the benchmark
ends.  Nothing under ``src/`` is edited; ``uninstall`` restores every
attribute.
"""

from __future__ import annotations

import collections
import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: collections.Counter = collections.Counter()
        self._stack = [-1]
        self._patches = []
        self._pass_start = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper."""
        original = getattr(module, attr)
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts = self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def begin_pass(self) -> None:
        self._pass_start = len(self.span_start)
        self.counts.clear()

    def end_pass(self) -> dict:
        """Per-name ``calls``, total ``ms`` and ``self_ms`` since ``begin_pass``,
        plus the counters recorded in the same interval."""
        lo, hi = self._pass_start, len(self.span_start)
        child = collections.defaultdict(float)
        for k in range(lo, hi):
            parent = self.span_parent[k]
            if parent >= lo:
                child[parent] += self.span_end[k] - self.span_start[k]
        stats = {}
        for k in range(lo, hi):
            name = self.names[self.span_name[k]]
            entry = stats.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            duration = self.span_end[k] - self.span_start[k]
            entry["calls"] += 1
            entry["ms"] += duration * 1e3
            entry["self_ms"] += (duration - child.get(k, 0.0)) * 1e3
        return {"spans": stats, "counts": dict(self.counts)}

    def write(self, path) -> None:
        """Write every recorded span as JSON lines: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(self.span_start)):
                fh.write(json.dumps([
                    k, self.span_parent[k], self.names[self.span_name[k]],
                    self.span_start[k], self.span_end[k],
                ]) + "\n")
