"""Spans and counters recorded around the benchmark's calls into mbqcflow.

A span is (name, start, end, parent index, op id).  Spans stay in memory and
are summarised, or written out, when the run ends.  Span names are
`<module>.<call>`, so the module a span belongs to is the part before the
first dot; the root span of every timed op is called `op`.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], int]

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one method call and record nothing."""

    enabled = False
    op = -1

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: float = 1) -> None:
        pass


NULL = NullTracer()


class Tracer:
    """Tracing on: every span and count is kept until the run ends."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op = -1  # id of the op being run; -1 outside ops (set-up)
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarise(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy seconds (duration) and self seconds.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, so their durations add up.
    """
    child_cover = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_cover[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_cover[i]
    return out
