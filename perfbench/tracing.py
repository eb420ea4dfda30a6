"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): ``op`` is the grid cell or audit
group that every span of one operation shares. Spans nest on a single
thread, so a span's self time is its duration minus the durations of its
direct children. Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op]
        self._stack = []

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self) -> dict:
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += (end - start) - child_time[idx]
        return dict(busy)

    def call_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def to_records(self) -> list:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
