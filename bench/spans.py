"""In-memory span recorder for the traced benchmark run.

Spans are opened around the benchmark's own calls into each dvskit layer.
A span records its name, start and end (process CPU time in ns), its parent
span and the id of the window or candidate it belongs to; children inherit
the parent's id.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import process_time_ns


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, item id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: int | None = None):
        parent = self._stack[-1] if self._stack else -1
        if item is None:
            item = self.spans[parent][4] if parent >= 0 else -1
        idx = len(self.spans)
        self.spans.append((name, 0, 0, parent, item))
        self._stack.append(idx)
        start = process_time_ns()
        try:
            yield
        finally:
            end = process_time_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, item)

    def durations(self, name: str) -> list[float]:
        """CPU seconds of every span with this name."""
        return [(e - s) / 1e9 for n, s, e, _, _ in self.spans if n == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += e - s
        out: dict[str, float] = {}
        for i, (name, s, e, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (e - s - child_ns[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "item")
        path.write_text(
            "".join(json.dumps(dict(zip(keys, span))) + "\n" for span in self.spans)
        )


class NullTracer:
    """Tracing off: spans cost one call returning a shared no-op context."""

    _ctx = nullcontext()

    def span(self, name: str, item: int | None = None):
        return self._ctx
