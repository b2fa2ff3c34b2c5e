"""In-memory spans around calls into the library, taken from outside it.

An op span covers one workload operation; a layer span covers one call into
a public function of spamm.core, spamm.symbolic or spamm.numeric and names
the op span that caused it (None for set-up and check calls).  Op spans are
always timed, since op_s is the benchmark's end-to-end figure; layer spans
are recorded only while the tracer is on.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    traced: bool = False
    counts: dict = field(default_factory=dict)  # an op's plan and executor counts; empty if it raised

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[Span] = []
        self._op: int | None = None

    def call(self, name: str, fn, *args):
        """fn(*args), recorded as a layer span while the tracer is on."""
        if not self.on:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(
                Span(len(self.spans), name, start, time.perf_counter(), self._op)
            )

    @contextmanager
    def op(self, name: str):
        """Time one operation; yields its span so the caller can add counts."""
        span = Span(len(self.spans), name, 0.0, 0.0, None, self.on)
        self.spans.append(span)
        self._op = span.id
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._op = None

    def ops(self, traced: bool) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name.startswith("op.")
                and s.traced == traced]

    def layer_seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def per_op(self, op: Span) -> dict[str, float]:
        """Seconds per layer under one op, plus "op.self": the rest of the op."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.parent == op.id:
                out[s.name] = out.get(s.name, 0.0) + s.seconds
        out["op.self"] = op.seconds - sum(out.values())
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0
