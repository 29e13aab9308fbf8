"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program.  It replaces attributes that callers
look up at call time (a class attribute such as ``CrossbarEngine.matvec``,
or a module global such as ``repro.xbar.simulator.im2col``) with a
wrapper that records one :class:`Span` per call, and puts the original
objects back when the run ends.

Each thread keeps its own span stack, so spans opened on the serving
lanes nest correctly while the event loop opens its own.  Spans are kept
in memory; :meth:`Tracer.dump` writes them out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the id of the span that caused it."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def merged_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length of the union of ``(start, end)`` intervals within ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per-span self time: its duration minus the part its children cover.

    Children are the spans whose ``parent`` is the span's id; their
    intervals are merged and clipped to the parent's own interval, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - merged_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def summarize(spans: list[Span], lo: float, hi: float) -> dict[str, dict]:
    """Per-name ``calls``, ``total_s`` and ``self_s`` of spans starting in ``[lo, hi)``."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        if not lo <= span.start < hi:
            continue
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
    return out


def covered_share(spans: list[Span], lo: float, hi: float) -> float:
    """Share of ``[lo, hi]`` during which at least one span is open on any thread."""
    if hi <= lo:
        return 0.0
    return merged_length(((s.start, s.end) for s in spans), lo, hi) / (hi - lo)


class Tracer:
    """Records spans from wrappers it installs; :meth:`restore` removes them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []
        self._pid = os.getpid()
        # A forked pool worker inherits the wrapped attributes; it puts
        # the originals back at once, because its spans could never be
        # collected and would only slow it down.
        os.register_at_fork(after_in_child=self._forget_in_child)

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, count=None):
        """A wrapper of ``fn`` that records a span per call.

        ``name`` is a string or a callable ``(args, kwargs) -> str``;
        ``count`` maps ``(args, kwargs)`` to ``{counter: increment}``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if count is not None:
                with tracer._counter_lock:  # serve lanes count from two threads
                    for key, inc in count(args, kwargs).items():
                        tracer.counters[key] = tracer.counters.get(key, 0) + inc
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, label, start, end, parent, threading.get_ident(), tracer.run_id)
                )

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- installing ----------------------------------------------------
    def patch(self, owner, attr: str, name, count=None) -> None:
        """Wrap ``owner.attr`` (a class or a module) until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def patch_everywhere(self, original, name, prefix: str = "repro", count=None) -> int:
        """Wrap every module global under ``prefix`` bound to ``original``.

        A function imported by name (``from m import f``) lives on in each
        importing module; callers look it up there, so each binding gets
        the wrapper.  Returns how many bindings were wrapped.
        """
        wrapper = self.wrap(original, name, count)
        hits = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == prefix or module_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, True, original))
                    setattr(module, attr, wrapper)
                    hits += 1
        return hits

    def restore(self) -> None:
        """Put every original attribute back, last patch first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _forget_in_child(self) -> None:
        if os.getpid() != self._pid:
            self.restore()
            self.spans = []

    # -- output --------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
