"""In-memory spans and counters for the traced benchmark run.

The traced run never edits the program: it installs timing wrappers on
the attributes through which callers reach each layer (a module global,
a class method) and removes them afterwards.  A wrapper records one span
(name, start, end, parent) around the call and, optionally, adds counts
derived from the call's arguments and result *after* the span has ended.
Wrappers never draw random numbers, so every RNG stream is left exactly
as an untraced run consumes it.

Spans are kept in memory and written as JSON lines when the run ends.
A span's self time is its duration minus the time its direct children
cover; all spans of one run come from one thread, so children never
overlap each other.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span or -1."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``count(args, kwargs, result) -> {counter: increment}``
CountFn = Callable[[tuple, dict, object], Dict[str, float]]

#: Span name of the tracer's own counting work.
COUNT_SPAN = "trace.count"


@contextlib.contextmanager
def swapped(owner: object, attr: str, value: object) -> Iterator[None]:
    """Replace ``owner.attr`` with ``value`` for the ``with`` body."""
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(span_id, name, time.perf_counter(), float("nan"), parent)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, fn: Callable, name: str,
             count: Optional[CountFn] = None) -> Callable:
        """``fn`` under a span named ``name``, plus optional counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                # Counting is a child span of the caller, so it never
                # inflates the caller's self time.
                with self.span(COUNT_SPAN):
                    self.counters.update(count(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, patches: Sequence[Tuple[object, str, str, Optional[CountFn]]]
                  ) -> Iterator[None]:
        """Install wrappers for ``(owner, attribute, span name, count)``.

        ``owner`` is a module or a class.  Class attributes keep their
        descriptor kind (plain, ``classmethod`` or ``staticmethod``).
        Every original attribute is restored on exit, also on error.
        """
        saved = []
        try:
            for owner, attr, name, count in patches:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name, count))
                elif isinstance(raw, staticmethod):
                    patched = staticmethod(self.wrap(raw.__func__, name, count))
                else:
                    patched = self.wrap(raw, name, count)
                setattr(owner, attr, patched)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        """Number of spans named ``name``."""
        return sum(1 for s in self.spans if s.name == name)

    def busy_s(self, name: str) -> float:
        """Wall time inside ``name``, counting nested re-entries once."""
        total = 0.0
        for span in self.spans:
            if span.name == name and not self._has_ancestor(span, name):
                total += span.duration
        return total

    def self_s(self, name: str) -> float:
        """Summed span time of ``name`` minus its direct children."""
        child_time: Dict[int, float] = Counter()
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        return sum(
            span.duration - child_time[span.span_id]
            for span in self.spans if span.name == name
        )

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            ancestor = self.spans[parent]
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def write_jsonl(self, path) -> None:
        """Write every span, then the counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent,
                }) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")
