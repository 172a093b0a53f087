"""In-memory span tracing from outside the package.

The traced run records a span around each call into a layer: the
benchmark either opens the span itself or swaps a module attribute for
a wrapper for the duration of the run, so that a caller module that
looks the function up at call time (verify_matrix calling
count_variant, count_variant calling encode) goes through the wrapper.
Nothing inside the package changes.

A span holds a name, the request it belongs to, its parent span, and
start and end times.  A layer's self time is the time of its spans minus
the time covered by their child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional

#: (module, attribute, span name, hook run on the wrapped call's result)
Target = tuple[object, str, str, Optional[Callable[[object], None]]]


class Tracer:
    """Spans of one traced run, plus exact counts added at the same
    boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, request, parent, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.request, self._stack[-1] if self._stack else None,
                  perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def add(self, layer: str, stats: dict) -> None:
        """Sum exact counters (e.g. CounterStats.to_dict()) under a layer."""
        for key, value in stats.items():
            self.counts[f"{layer}.{key}"] += value

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result)
            return result
        return traced

    @contextmanager
    def patched(self, targets: Iterable[Target]):
        """Replace each module attribute by a traced wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, hook in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the duration of direct children."""
        child_time = [0.0] * len(self.spans)
        for name, _req, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, _req, _parent, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": i, "name": name, "request": req, "parent": parent,
                 "start": start, "end": end}
                for i, (name, req, parent, start, end) in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")
