"""In-memory span recorder for the traced benchmark run.

A span is opened around a public roomtune function by replacing the
function in the namespace where its caller looks it up: ``cli`` imports
``safe_set`` by name, so wrapping ``optimizer.safe_set`` alone would miss
every ``roomtune safe-set`` call. ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper. ``annotate``,
        when given, maps (args, kwargs, result) to the span's info dict;
        it runs after the span has closed, so its cost is not recorded."""
        original = vars(owner)[attr]
        spans, open_stack = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_stack[-1] if open_stack else -1)
            open_stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_stack.pop()
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: list[list[Span]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append(span)
        out = []
        for span, kids in zip(self.spans, children):
            covered = 0.0
            reach = span.start
            for kid in sorted(kids, key=lambda s: s.start):
                lo, hi = max(kid.start, reach, span.start), min(kid.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.duration - covered)
        return out

    def to_records(self) -> list[dict]:
        """Spans as JSON-ready dicts, times in seconds from the first span."""
        if not self.spans:
            return []
        origin = self.spans[0].start
        return [
            {
                "name": s.name,
                "start": s.start - origin,
                "end": s.end - origin,
                "parent": s.parent,
                "self": self_s,
                **({"info": s.info} if s.info else {}),
            }
            for s, self_s in zip(self.spans, self.self_times())
        ]
