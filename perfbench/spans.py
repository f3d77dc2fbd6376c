"""In-memory clock spans for the traced benchmark mode.

Each span records its name, start and end (``perf_counter_ns``), the
span that was open when it started (its parent) and the operation id
it belongs to.  Nothing is written while the run is measured: the
recorder keeps plain tuples in a list and hands them out at the end.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so a parent that merely calls into
other layers reports only its own overhead.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Records nested spans; ``enabled=False`` makes :meth:`span` free.

    The open-span stack lives in a context variable, so concurrent
    asyncio tasks (one per client connection) each nest their own
    spans instead of adopting another task's open span as parent.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: ContextVar[tuple[int, ...]] = ContextVar(
            "open_spans", default=()
        )
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, op: str):
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        stack = self._open.get()
        token = self._open.set(stack + (span_id,))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.reset(token)
            self.spans.append(Span(
                span_id, name, start, end, stack[-1] if stack else None, op
            ))


def spans_from_dicts(rows) -> list[Span]:
    return [
        Span(row["id"], row["name"], row["start_ns"], row["end_ns"],
             row["parent"], row["op"])
        for row in rows
    ]


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for low, high in intervals
        if high > start and low < end
    )
    total = 0
    cursor = start
    for low, high in clipped:
        low = max(low, cursor)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times_ns(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_ns, span.end_ns))
    return {
        span.id: span.duration_ns
        - covered_ns(span.start_ns, span.end_ns, children[span.id])
        for span in spans
    }


def layer_ms(spans) -> dict[str, float]:
    """Per span name: the median over ops of the op's summed self time.

    Only ops in which the name occurs count toward its median, so a
    layer called once per pass and one called once per segment are
    each summarised over their own operations.
    """
    own = self_times_ns(spans)
    per_op: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        per_op[span.name][span.op] += own[span.id]
    return {
        name: statistics.median(ops.values()) / 1e6
        for name, ops in per_op.items()
    }
