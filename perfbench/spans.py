"""In-memory span recorder for traced runs, with Chrome trace-event export.

A span is one call into a layer: name, start, end, the span that caused
it, the job it belongs to and the thread it ran on.  Spans nest through a
per-thread stack.  A span opened on a thread with an empty stack (a
service worker thread running a simulation) takes as parent the span the
client thread has open at that moment: the benchmark's client is a closed
loop with one job in flight, so that span is the request that caused it.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`), so the self times of
a job's spans add up to the job's time.  The recorder keeps everything in
memory; :func:`write_chrome_trace` writes it out at the end as Chrome
trace-event JSON, which https://ui.perfetto.dev opens.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    job: int
    thread: int
    thread_name: str
    depth: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


#: depth offset of a span opened by another thread on the client's behalf
_WORKER_DEPTH = 1000


class NullTracer:
    """The untraced path: every span is a shared no-op context."""

    _null = contextlib.nullcontext({})

    def span(self, name: str, **attrs: Any) -> contextlib.nullcontext:
        return self._null


class Tracer:
    """Records spans in memory (traced runs only)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._anchor: Span | None = None  # innermost open client span

    def inside(self) -> bool:
        """Whether a span is open on this thread or on the client's behalf."""
        return bool(self._stack()) or self._anchor is not None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the block as span ``name``; yields its mutable attributes."""
        stack = self._stack()
        parent = stack[-1] if stack else self._anchor
        thread = threading.current_thread()
        on_client = thread.ident == self._client
        depth = parent.depth + 1 if parent else 0
        if parent is not None and not stack:
            depth += _WORKER_DEPTH  # another thread's work outranks the waiting client
        with self._lock:
            sid = next(self._ids)
        span = Span(
            id=sid,
            name=name,
            start_ns=0,
            end_ns=0,
            parent=parent.id if parent else None,
            job=parent.job if parent else sid,
            thread=thread.native_id or 0,
            thread_name=thread.name,
            depth=depth,
            attrs=dict(attrs),
        )
        stack.append(span)
        if on_client:
            self._anchor = span
        span.start_ns = time.perf_counter_ns()
        try:
            yield span.attrs
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
            if on_client:
                self._anchor = stack[-1] if stack else None
            with self._lock:
                self.spans.append(span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds each span was the deepest open span of its job, by span id.

    For spans nested on one thread this is the span's duration minus the
    part of it that its children cover.  A span another thread opened on
    the client's behalf outranks the client's own spans while it is open
    (the client is waiting for it), so the self times of a job's spans
    partition the job's root span exactly: they always add up to it.
    """
    jobs: dict[int, list[Span]] = {}
    for s in spans:
        jobs.setdefault(s.job, []).append(s)
    out = {s.id: 0 for s in spans}
    for group in jobs.values():
        cuts = sorted({t for s in group for t in (s.start_ns, s.end_ns)})
        for lo, hi in zip(cuts, cuts[1:]):
            best = None
            for s in group:
                if s.start_ns <= lo and s.end_ns >= hi and (
                    best is None or s.depth > best.depth
                ):
                    best = s
            if best is not None:
                out[best.id] += hi - lo
    return {k: v / 1e9 for k, v in out.items()}


def write_chrome_trace(spans: list[Span], path: Path) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete ``X`` events)."""
    if not spans:
        return
    t0 = min(s.start_ns for s in spans)
    pid = os.getpid()
    events: list[dict[str, Any]] = []
    threads: dict[int, str] = {}
    for s in sorted(spans, key=lambda s: s.start_ns):
        threads.setdefault(s.thread, s.thread_name)
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start_ns - t0) / 1000,
                "dur": (s.end_ns - s.start_ns) / 1000,
                "pid": pid,
                "tid": s.thread,
                "args": {"id": s.id, "parent": s.parent, "job": s.job, **s.attrs},
            }
        )
    for tid, name in threads.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    os.replace(tmp, path)
