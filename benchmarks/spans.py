"""In-memory span recorder for the benchmark's traced runs.

A span is ``{id, name, start, end, parent, workload, run, attrs}`` with
times from `time.monotonic`, which on Linux is one clock for every process,
so spans recorded in a child process line up with the parent's. Spans stay
in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    workload: str
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, workload: str, run: str) -> None:
        self.workload = workload
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            **attrs) -> Span:
        """Record a span timed elsewhere, e.g. a child process's lifetime."""
        span = Span(len(self.spans), name, start, end, parent, self.workload,
                    self.run, attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = self.add(name, time.monotonic(), None, parent, **attrs)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.monotonic()
            self._open.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        reach = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def total(self, name: str, under: Span | None = None, **attrs) -> float:
        """Summed duration of the spans called `name` whose attrs match.

        With `under`, only that span's direct children count.
        """
        return sum(
            s.duration for s in self.spans
            if s.name == name
            and (under is None or s.parent == under.id)
            and all(s.attrs.get(k) == v for k, v in attrs.items())
        )

    def merge(self, records: list[dict], parent: int | None) -> None:
        """Adopt spans recorded by another `Recorder` (e.g. in a child)."""
        offset = len(self.spans)
        for record in records:
            own_parent = record["parent"]
            self.spans.append(Span(
                record["id"] + offset, record["name"], record["start"],
                record["end"],
                parent if own_parent is None else own_parent + offset,
                record["workload"], record["run"], record["attrs"],
            ))

    def to_list(self) -> list[dict]:
        """Every span as a dict, with its self time as ``self_s``."""
        return [{**asdict(s), "self_s": self.self_time(s)} for s in self.spans]
