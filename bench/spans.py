"""Span recording for the benchmark's traced runs.

A Tracer replaces public functions of the package, at the names their callers
look up, with wrappers that record one span per call: name, start, end and the
enclosing span. Spans stay in flat arrays in memory and are written out once,
when the run ends. Self time is a span's duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import array
import contextlib
import functools
import time

import numpy as np


class Tracer:
    """Records spans of patched calls; restores every patch on close()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        """fn wrapped so that each call records a span called name."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a traced wrapper until close()."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result))
        self._patches.append((owner, attr, original))

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str, extent: list | None = None):
        """Span around a block of the benchmark's own code. When given,
        extent receives the index range [lo, hi) of the span and everything
        recorded inside it."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()
            if extent is not None:
                extent[:] = [idx, len(self.start)]

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name, dtype=np.int32).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def totals(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per-name calls, inclusive ns and self ns over spans [lo, hi).

        Span lo must enclose the rest of the range (a pass span does).
        """
        name, parent, start, end = (a[lo:hi] for a in self.arrays())
        parent = np.where(parent >= lo, parent - lo, -1)
        own = self_times(parent, start, end)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=(end - start).astype(np.float64), minlength=n)
        excl = np.bincount(name, weights=own.astype(np.float64), minlength=n)
        return {
            self.names[i]: {"calls": int(calls[i]), "incl_ns": float(incl[i]), "self_ns": float(excl[i])}
            for i in range(n)
            if calls[i]
        }

    def write(self, path) -> None:
        name, parent, start, end = self.arrays()
        t0 = int(start.min()) if len(start) else 0
        np.savez(
            path,
            names=np.array(self.names),
            name=name.astype(np.int32),
            parent=parent,
            start_ns=start - t0,
            end_ns=end - t0,
        )


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span; parent[i] is -1 for a root. Integer nanoseconds."""
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    own = end - start
    child = np.nonzero(parent >= 0)[0]
    if child.size == 0:
        return own
    p = parent[child]
    c_lo = np.maximum(start[child], start[p])
    c_hi = np.maximum(np.minimum(end[child], end[p]), c_lo)
    order = np.lexsort((c_lo, p))
    p, c_lo, c_hi = p[order], c_lo[order], c_hi[order]
    # Running maximum of interval ends among earlier siblings: each parent's
    # children get their own offset band so one cumulative max serves all.
    t0 = int(start.min())
    band = int(end.max()) - t0 + 1
    first = np.r_[True, p[1:] != p[:-1]]
    group = np.cumsum(first) - 1
    keyed = group * band + (c_hi - t0)
    reach = np.maximum.accumulate(keyed) - group * band + t0
    prev_reach = np.r_[t0, reach[:-1]]
    prev_reach[first] = t0
    covered = np.maximum(c_hi - np.maximum(c_lo, prev_reach), 0)
    return own - np.bincount(p, weights=covered, minlength=len(own)).astype(np.int64)
