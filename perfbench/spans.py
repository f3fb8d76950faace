"""In-memory spans around the simulator's public functions.

A span is (name, start_ns, end_ns, parent id).  ``Tracer.wrap`` returns a
wrapper that records one span per call and, optionally, adds work counts
computed from the call's arguments once the span has ended.  Spans stay in
memory until ``write`` is called at the end of a run.

Self time is a span's duration minus the durations of its direct children.
The program is single-threaded, so children never overlap and their sum is
the part of the parent they cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def patched(replacements):
    """Set ``owner.attr = make(current)`` for each (owner, attr, make); undo on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            current = getattr(owner, attr)
            saved.append((owner, attr, current))
            setattr(owner, attr, make(current))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent id]
        self.counts: Counter = Counter()
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(counts, args, result)`` runs after it."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds; plus top-level seconds."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        top = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[i]
            if parent < 0:
                top += end - start
        return {
            "calls": dict(calls),
            "total_s": {k: v / 1e9 for k, v in total.items()},
            "self_s": {k: v / 1e9 for k, v in own.items()},
            "top_level_s": top / 1e9,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")
