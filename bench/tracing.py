"""In-memory spans around calls into ritkit's modules, for the traced run.

A `Tracer` replaces module attributes with wrappers that record a span per
call (name, start, end, parent, run id) and restores them on exit, so the
program itself carries no tracing code. The layer of a span is the first
part of its name. Spans stay in memory until `write` saves them once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, owner: Any, attr: str, name: str, on_result: Callable[[Any], None] | None = None) -> None:
        """Record a span named `name` around every call of `owner.attr`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.__func__ if isinstance(original, staticmethod) else original

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(original, staticmethod) else traced)
        self._restore.append((owner, attr, original))

    def count(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of `owner.attr` without a span, for calls too small to time."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self, within: str | None = None) -> dict[str, float]:
        """Seconds per layer, each span minus the time its children cover.

        With `within`, only spans below a span of that name count.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        keep = self.below(within) if within else None
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if keep is None or span.id in keep:
                out[span.layer] += span.duration - child_time[span.id]
        return out

    def durations(self, name: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == name]

    def below(self, name: str) -> set[int]:
        """Ids of the spans nested, at any depth, in a span named `name`."""
        below: set[int] = set()
        for span in self.spans:  # parents precede their children
            if span.parent is not None and (span.parent in below or self.spans[span.parent].name == name):
                below.add(span.id)
        return below

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(asdict(span)) + "\n" for span in self.spans)
