"""Spans recorded by the benchmark around its calls into each layer.

A span is ``(id, name, start, end, parent, op)``.  Spans are kept in memory
and written out once, when the traced run ends.  A span's *self time* is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List


class Tracer:
    def __init__(self):
        self.spans: List[Dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op: int):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = len(self.spans)
            record = {"id": span_id, "name": name, "start": 0.0, "end": 0.0,
                      "parent": stack[-1] if stack else None, "op": op}
            self.spans.append(record)
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered: Dict[int, List] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered.setdefault(span["parent"], []).append((span["start"], span["end"]))
        totals: Dict[str, float] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration - _union(
                covered.get(span["id"], [])
            )
        return totals

    def total_times(self) -> Dict[str, float]:
        """Total inclusive duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"]
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
