"""In-memory spans with exact self times, for the traced run.

A span has a name, a start, an end, the span that caused it and the query it
belongs to.  Spans are kept in memory and written out when the run ends.

Calls made hundreds of thousands of times per query (integrand evaluations,
``h_imag_cdf``, ``CumulativeIntegral`` lookups) are leaves: they are summed
per (query, name) into a count, a total time and a self time instead of being
kept one by one.  Self times stay exact for every span, leaf or not: each open
span accumulates the durations of its children as they close, and its self
time is its duration minus that sum.  Spans nest strictly because every
wrapped call runs on the thread that opened its parent.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}  # (query, name) -> [count, total_s, self_s]
        self.query = None
        self._stack: list[list] = []  # [name, span id or None for a leaf, start, child_s]
        self._next_id = 0

    def open(self, name: str, leaf: bool = False) -> list:
        span_id = None
        if not leaf:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, **attrs) -> None:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, span_id, start, child_s = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        if span_id is None:
            agg = self.leaves.setdefault((self.query, name), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child_s
            return
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end, "parent": parent,
            "query": self.query, "self_s": duration - child_s, **attrs,
        })

    def leaf(self, fn, name: str):
        """fn wrapped so that each call is summed into the leaf `name`."""
        open_, close = self.open, self.close

        def traced(*args):
            frame = open_(name, leaf=True)
            try:
                return fn(*args)
            finally:
                close(frame)

        return traced

    def wrap(self, fn, name: str, attrs=None):
        """fn wrapped in a kept span; attrs(result, *args) adds fields to it."""

        def traced(*args, **kwargs):
            frame = self.open(name)
            extra = {}
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(result, *args)
                return result
            except Exception as exc:
                extra = {"error": type(exc).__name__}
                raise
            finally:
                self.close(frame, **extra)

        return traced

    def leaf_total(self, name: str, field: int) -> float:
        """Sum over queries of one leaf field: 0 count, 1 total_s, 2 self_s."""
        return sum((agg[field] for (_, n), agg in self.leaves.items() if n == name), 0 if field == 0 else 0.0)

    def write(self, path) -> None:
        """Write the spans, then the leaf sums, one JSON object a line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for (query, name), (count, total, self_s) in self.leaves.items():
                out.write(json.dumps({
                    "leaf": name, "query": query, "count": count, "total_s": total, "self_s": self_s,
                }) + "\n")
