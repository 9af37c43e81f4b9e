"""In-memory spans around wrapped functions, and self-time arithmetic.

A span is (name, start, end, parent). Spans nest by call order: the span
open when another opens is its parent. The tracer wraps module attributes
at run time and puts every original back on ``uninstall``; it never edits
the wrapped code.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

# Name of the spans that time the tracer's own bookkeeping; metric code
# subtracts them so that observers do not inflate the layers they watch.
OBSERVE = "tracing.observe"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in the tracer's list


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    kids = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        inner = [
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in kids.get(i, ())
            if spans[c].end > s.start and spans[c].start < s.end
        ]
        out.append((s.end - s.start) - covered(inner))
    return out


def net_durations(spans) -> list:
    """Each span's duration minus the observer spans nested anywhere in it."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.name != OBSERVE:
            continue
        p = s.parent
        while p is not None:
            out[p] -= s.end - s.start
            p = spans[p].parent
    return out


def ancestor(spans, i: int, names) -> int | None:
    """Nearest proper ancestor of span ``i`` whose name is in ``names``."""
    p = spans[i].parent
    while p is not None and spans[p].name not in names:
        p = spans[p].parent
    return p


class Tracer:
    """Records spans; wraps functions in place and restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {self.spans[sid].name!r} closed out of order")
        self._stack.pop()
        self.spans[sid].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(sid, args, kwargs, result)`` runs
        after it in a span of its own, so its cost can be subtracted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if observe is not None:
                with self.span(OBSERVE):
                    observe(sid, args, kwargs, result)
            return result

        return wrapper

    def install(self, original, wrapper, modules) -> int:
        """Rebind every attribute of ``modules`` that is ``original``."""
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    count += 1
        return count

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
