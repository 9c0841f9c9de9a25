"""In-memory spans around the benchmark's calls into each deltic layer.

A span records its name, start, end (perf_counter seconds), the index of its
parent span and the id of the change it belongs to (None for setup).  Spans
are kept in a list and written out once, when the run ends.  A span's self
time is its duration minus the durations of its children; children never
overlap because the benchmark is single-threaded and opens them in turn.
"""

from __future__ import annotations

from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t.open[-1] if t.open else None, t.change])
        t.open.append(self.index)
        t.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        t = self.tracer
        t.spans[self.index][2] = end
        t.open.pop()
        return False


class Tracer:
    """Records spans; `change` is stamped on every span opened while set."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.open = []
        self.change = None

    def span(self, name):
        return _Span(self, name)

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def records(self):
        """Spans as JSON-ready dicts, with `self` time filled in."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "change": c,
                 "self": (e - s) - child_time[i]}
                for i, (n, s, e, p, c) in enumerate(self.spans)]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    change = None
    _SPAN = _NullSpan()

    def span(self, name):
        return self._SPAN
