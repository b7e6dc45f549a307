"""In-memory spans recorded around calls into the library's public functions.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open in the same thread when it started (its parent), and
the id of the benchmark operation it belongs to.  Spans stay in memory while
the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op))

    def call(self, name: str, op: str, fn, *args, **kwargs):
        with self.span(name, op):
            return fn(*args, **kwargs)

    def _child_ms(self) -> dict[int, float]:
        # Children of a span run in its own thread, one after another, so the
        # part of the parent's interval they cover is the sum of their lengths.
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += (s.end - s.start) * 1e3
        return covered

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus what its children cover."""
        covered = self._child_ms()
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += (s.end - s.start) * 1e3 - covered[s.id]
        return dict(totals)

    def child_ms(self, name: str) -> float:
        """Total time covered by the children of all spans called ``name``."""
        covered = self._child_ms()
        return sum(covered[s.id] for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
