"""Spans recorded around the benchmark's calls into each layer.

A span is one layer call: its name, start, end, the span that made the
call (``parent``) and the root span of the pipeline run it belongs to
(``trace``).  Spans stay in memory and are written out when the run ends.
A span's *self time* is its duration minus the time its child spans cover;
the self times of one tree add up to its root's duration.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per ``with tracer.span(name):`` block."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            trace=parent.trace if parent else len(self.spans),
            start=time.perf_counter(),
        )
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def tree(self, root: Span) -> list[Span]:
        """The spans of ``root``'s trace, root included."""
        return [s for s in self.spans if s.trace == root.trace]

    def self_seconds(self, root: Span) -> dict[str, float]:
        """Self time per span name over ``root``'s trace, summed by name."""
        spans = self.tree(root)
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += s.seconds - covered[s.id]
        return dict(out)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: ``span`` records nothing."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def records(self) -> list[dict]:
        return []


def seconds_per_span(n: int = 2000) -> float:
    """Measured cost of opening and closing one (nested) span."""
    tr = Tracer()
    t0 = time.perf_counter()
    with tr.span("root"):
        for _ in range(n - 1):
            with tr.span("child"):
                pass
    return (time.perf_counter() - t0) / n
