"""In-memory span recorder shared by the traced CLI child and the harness.

A span is [name, start, end, parent, op]: `name` is `<layer>.<function>`,
times are time.perf_counter() seconds (a system-wide monotonic clock on
Linux, so spans of the child and the harness line up), `parent` is the
index of the enclosing span in the same list or None, and `op` is the
operation (invocation) id.  Nothing is written until the caller dumps
`spans` and `counts` once, at the end.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][1:3] = start, time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, on_call=None):
        """fn with a span around each call; on_call(args, kwargs, result) may count work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result
        return traced


def interval_union(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
