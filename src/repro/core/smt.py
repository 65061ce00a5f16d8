"""Per-thread hardware context.

Holds everything private to one SMT thread (Section 3): the trace cursor,
the private fetch queue inside the thread-selection unit, the rename table,
the ROB partition, the in-flight uop list used for squash walks, and the
counters the resource assignment schemes key on (icount, pending L2
misses, flush state).
"""

from __future__ import annotations

from collections import deque

from repro.backend.rob import ReorderBuffer
from repro.frontend.rename import RenameTable
from repro.isa import Uop
from repro.trace.synthesis import WrongPathSource
from repro.trace.trace import Trace


class ThreadContext:
    """One SMT hardware thread."""

    __slots__ = (
        "tid",
        "trace",
        "cols",              # trace fields as plain-list columns (hot fetch path)
        "n_records",         # len(trace.records), cached for the fetch loop
        "mem_offset",        # tid << 33, pre-shifted per-thread address space
        "cursor",            # next trace record to fetch (right path)
        "fetch_queue",       # decoded uops awaiting rename (private queue)
        "fetch_blocked_until",
        "rename_blocked_until",
        "wrong_path",        # fetching past an unresolved mispredicted branch
        "wp_source",
        "rename_table",
        "rob",
        "inflight",          # renamed, uncommitted uops + copies, age order
        "icount",            # renamed-but-not-issued uops (ICOUNT metric)
        "l2_pending",        # outstanding right-path L2-missing loads
        "first_l2_miss_cycle",  # when the oldest pending miss was detected
        "flushed",           # Flush+ released this thread's resources
        "gated",             # policy is holding this thread's rename (Stall)
        "committed",
        "fetched_right_path",
    )

    def __init__(self, tid: int, trace: Trace, *, resident: bool = True) -> None:
        """``resident=False`` leaves out ``cols`` and ``wp_source``: the
        thread's fetch runs in the C kernel, which reads the records."""
        self.tid = tid
        self.trace = trace
        if resident:
            self.cols = trace.columns()
            self.wp_source = WrongPathSource(trace)
        self.n_records = len(trace.records)
        self.mem_offset = tid << 33
        self.cursor = 0
        self.fetch_queue: deque[Uop] = deque()
        self.fetch_blocked_until = 0
        self.rename_blocked_until = 0
        self.wrong_path = False
        self.rename_table = RenameTable()
        self.rob: ReorderBuffer | None = None  # installed by the Processor
        self.inflight: deque[Uop] = deque()
        self.icount = 0
        self.l2_pending = 0
        self.first_l2_miss_cycle = -1
        self.flushed = False
        self.gated = False
        self.committed = 0
        self.fetched_right_path = 0

    # -- status -----------------------------------------------------------

    @property
    def trace_exhausted(self) -> bool:
        return self.cursor >= len(self.trace.records)

    @property
    def finished(self) -> bool:
        """All committed: nothing left to fetch, rename or retire."""
        return (
            self.trace_exhausted
            and not self.wrong_path
            and not self.fetch_queue
            and not self.inflight
        )

    def can_fetch(self, cycle: int, queue_capacity: int) -> bool:
        """Eligible for fetch selection this cycle?"""
        if self.fetch_blocked_until > cycle:
            return False
        if self.flushed:
            return False
        if len(self.fetch_queue) >= queue_capacity:
            return False
        return self.wrong_path or not self.trace_exhausted

    def can_rename(self, cycle: int) -> bool:
        """Eligible for rename selection this cycle?"""
        return (
            bool(self.fetch_queue)
            and not self.flushed
            and not self.gated
            and self.rename_blocked_until <= cycle
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<T{self.tid} cur={self.cursor}/{len(self.trace)} "
            f"fq={len(self.fetch_queue)} ic={self.icount} "
            f"rob={len(self.rob) if self.rob else 0} com={self.committed}>"
        )
