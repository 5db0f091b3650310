"""In-memory spans around the benchmark's calls into the library.

A span records its name, a tag (the rung or family it belongs to), the
request it serves (the ladder pass, codec block, quotient code or CLI
round), its parent span, and its start and end.  Spans stay in memory
and are written out once the run ends.  Self time is a span's duration
minus the time its child spans cover; the benchmark is one thread, so
children never overlap and that is a plain subtraction.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns


class Tracer:
    """Records a span around every `call`; `enabled` is set per request."""

    def __init__(self):
        self.enabled = False
        self.request = None
        # rows: [name, tag, request, parent index, start ns, end ns]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, tag, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        row = [name, tag, self.request,
               self._stack[-1] if self._stack else None, perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            return fn(*args, **kwargs)
        finally:
            row[5] = perf_counter_ns()
            self._stack.pop()

    def begin(self, request, traced: bool) -> None:
        """Start a request; its root span is named "request"."""
        self.enabled = traced
        self.request = request
        if traced:
            self._stack.append(len(self.spans))
            self.spans.append(
                ["request", None, request, None, perf_counter_ns(), 0])

    def end(self) -> None:
        if self.enabled:
            self.spans[self._stack.pop()][5] = perf_counter_ns()
        self.enabled = False

    def self_times(self) -> list[tuple[str, object, object, float]]:
        """(name, tag, request, self seconds) for every closed span."""
        child_ns = [0] * len(self.spans)
        for name, tag, req, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        return [
            (name, tag, req, (end - start - child_ns[i]) / 1e9)
            for i, (name, tag, req, _p, start, end) in enumerate(self.spans)
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, tag, req, parent, start, end) in enumerate(
                    self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "tag": tag, "request": req,
                    "parent": parent, "start_ns": start, "end_ns": end,
                }) + "\n")


class LayerTimes:
    """Self times grouped by span name, tag and request."""

    def __init__(self, rows):
        self.rows = [r for r in rows if r[0] != "request"]
        self.requests = {r[2] for r in rows}

    def per_request(self, name, tags=None) -> list[float]:
        """Summed self time of `name` (within `tags`) in each request."""
        totals = dict.fromkeys(self.requests, 0.0)
        for n, tag, req, dt in self.rows:
            if n == name and (tags is None or tag in tags):
                totals[req] += dt
        return list(totals.values())

    def per_call(self, name, tags=None) -> list[float]:
        return [dt for n, tag, _req, dt in self.rows
                if n == name and (tags is None or tag in tags)]


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def percentile(values, q: float, default=0.0) -> float:
    """Nearest-rank percentile (q in 0..100) of a list."""
    if not values:
        return default
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
