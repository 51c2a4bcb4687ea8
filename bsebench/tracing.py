"""In-memory spans and counters for the traced replay.

A span records one call into a ``bse`` layer: its name, start, end, the
index of the span that encloses it, and the id of the benchmark operation
it belongs to.  Spans stay in memory until the run ends; a layer's self
time is its duration minus the time its child spans cover.
"""

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name):
        """Record ``name`` around the enclosed block, nested under the open span."""
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "op": self.op, "status": "ok"}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["status"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counts[name] += value

    def self_times(self):
        """Self time per span name, summed over the run."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = defaultdict(float)
        for i, rec in enumerate(self.spans):
            out[rec["name"]] += (rec["end"] - rec["start"]) - child[i]
        return out

    def op_spans(self, op, depth=1):
        """Spans of one operation at a given nesting depth (1 = under its root)."""
        def level(i):
            d = 0
            while self.spans[i]["parent"] is not None:
                i = self.spans[i]["parent"]
                d += 1
            return d
        return [s for i, s in enumerate(self.spans) if s["op"] == op and level(i) == depth]


def span_cost(n=2000, repeat=5):
    """Seconds one empty span adds to the traced run: the median over
    ``repeat`` batches of ``n`` spans on a scratch tracer, less the same
    loop without spans."""
    tracer = Tracer()
    costs = []
    for _ in range(repeat):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            pass
        t1 = time.perf_counter()
        for _ in range(n):
            with tracer.span("empty"):
                pass
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return statistics.median(costs)
