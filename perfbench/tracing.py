"""Span tracer that wraps the program's functions from outside.

The tracer replaces a function on the object the caller looks it up on
(a module global, or a class attribute for class methods) with a wrapper
that records one span per call: name, start, end, parent span and an
optional ``info`` value computed from the arguments before the call.
Spans stay in memory until the run ends.

A function that no longer exists is recorded as absent instead of failing,
so a later change that deletes or renames a wrapped function shows up as
a missing span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    info: object


class Target(NamedTuple):
    """One lookup site to wrap: ``owner`` is a module path, optionally
    followed by ``:Class`` for a class attribute."""

    owner: str
    attr: str
    span: str
    info: Callable | None = None


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._open: list[list] = []  # spans still running, as mutable lists
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # time spent in info hooks, taken out of every timestamp so the
        # hooks do not inflate the spans around them
        self._hidden = 0.0

    def _now(self) -> float:
        return time.perf_counter() - self._hidden

    # -- recording -----------------------------------------------------------
    def _begin(self, name: str, info: object) -> int:
        idx = len(self._open)
        parent = self._stack[-1] if self._stack else -1
        self._open.append([name, self._now(), None, parent, info])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self._open[idx][2] = self._now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, info: object = None):
        """Record a span around a block of the benchmark's own code."""
        idx = self._begin(name, info)
        try:
            yield
        finally:
            self._end(idx)

    def finish(self) -> list[Span]:
        """Freeze the recorded spans; spans still open end now."""
        now = self._now()
        self.spans = [Span(n, s, e if e is not None else now, p, i)
                      for n, s, e, p, i in self._open]
        return self.spans

    def _wrap(self, fn: Callable, name: str, info: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            data = None
            if info is not None:
                t0 = time.perf_counter()
                try:
                    data = info(*args, **kwargs)
                except Exception:  # a changed signature loses the info, not the run
                    data = None
                self._hidden += time.perf_counter() - t0
            idx = self._begin(name, data)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
        return wrapper

    # -- installing ----------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        for t in targets:
            try:
                owner = _resolve(t.owner)
            except (ImportError, AttributeError):
                self.absent.add(t.span)
                continue
            raw = vars(owner).get(t.attr) if isinstance(owner, type) else \
                getattr(owner, t.attr, None)
            if raw is None:
                self.absent.add(t.span)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, t.span, t.info))
            else:
                wrapped = self._wrap(raw, t.span, t.info)
            self._patches.append((owner, t.attr, raw))
            setattr(owner, t.attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


# -- span arithmetic ---------------------------------------------------------
def children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        out.setdefault(s.parent, []).append(i)
    return out


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    kids = children(spans)
    out = []
    for i, s in enumerate(spans):
        inner = [(spans[c].start, spans[c].end) for c in kids.get(i, [])]
        out.append((s.end - s.start) - covered(inner, s.start, s.end))
    return out


def descendants_of(spans: list[Span], roots: set[int]) -> list[bool]:
    """Mask of spans that are in ``roots`` or below one of them.

    Parents always precede their children in the list, so one pass works.
    """
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = i in roots or (s.parent >= 0 and inside[s.parent])
    return inside


def ancestor_named(spans: list[Span], idx: int, name: str) -> int:
    """Index of the nearest ancestor of ``idx`` called ``name``, or -1."""
    p = spans[idx].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p
