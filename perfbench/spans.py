"""A small in-memory span recorder for the traced benchmark run.

A span covers one call into a layer: its name (``layer.step``), start and
end on the monotonic clock shared by every process on the machine, the span
that caused it, the run it belongs to, and the work the call did as named
counters.  Spans stay in memory and are written out once, when the process
that recorded them ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional


@dataclass
class Span:
    id: str
    parent: Optional[str]
    run: str
    name: str
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    def __init__(self, run: str, parent: Optional[str] = None):
        self.run = run
        self.spans: list[Span] = []
        self._open = [parent]
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}."

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(f"{self._prefix}{next(self._ids)}", self._open[-1], self.run, name,
                    time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``.

        A generator function is drained inside the span, so the span covers
        its work rather than the creation of the generator.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def drained(*args, **kwargs):
                with self.span(name):
                    items = list(fn(*args, **kwargs))
                yield from items
            return drained

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**doc) for doc in json.load(fh)]


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another in a single thread, so the
    part of the parent they cover is the sum of their durations.
    """
    out = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.seconds
    return out
