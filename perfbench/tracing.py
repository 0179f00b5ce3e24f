"""In-memory spans around the benchmark's calls into the library.

A span records its name, the size label of the job it belongs to, start
and end times, the span that was open when it started (its parent) and
the job id.  Spans stay in memory until the run ends; ``self_times``
subtracts from each span the time its direct children cover.
"""
from __future__ import annotations

import contextlib
import json
from time import perf_counter

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def job(self, name, size):
        return _NO_SPAN


class Tracer:
    """Records one span per job and per library call made inside it."""

    def __init__(self):
        # (span id, name, size, start, end, parent id, job id)
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._job_id = None
        self._size = None
        self._jobs = 0

    @contextlib.contextmanager
    def _span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, self._size, start, end, parent, self._job_id))

    @contextlib.contextmanager
    def job(self, name, size):
        self._job_id, self._size = self._jobs, size
        self._jobs += 1
        try:
            with self._span(name):
                yield
        finally:
            self._job_id = self._size = None

    def call(self, name, fn, *args, **kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    def self_times(self):
        """[(name, size, self seconds)] for every recorded span."""
        child_time = {}
        for span_id, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return [
            (name, size, (end - start) - child_time.get(span_id, 0.0))
            for span_id, name, size, start, end, _, _ in self.spans
        ]

    def dump(self, path, phase):
        keys = ("id", "name", "size", "start", "end", "parent", "job")
        with open(path, "a", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps({"phase": phase, **dict(zip(keys, span))}) + "\n")
