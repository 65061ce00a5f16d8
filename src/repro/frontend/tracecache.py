"""Trace cache + MITE front-end timing model.

Table 1: a 32K-uop trace cache fed by the MITE (Macro Instruction
Translation Engine).  The model is timing-only: fetch groups whose leading
uop's trace-cache line is resident are delivered in one cycle; otherwise
the thread's fetch stalls for the MITE fill latency while the line is built
and inserted (MROM-decoded complex macro-ops are folded into that fill
cost).  The ITLB is probed alongside and adds its page-walk latency on a
miss.

Lines are ``line_uops`` consecutive PCs; storage is an 8-way set-associative
structure over line ids, shared between threads (Section 3: all main
front-end structures are shared).
"""

from __future__ import annotations

from repro.config import FrontEndConfig, TLBConfig
from repro.memory.cache import SetAssocCache
from repro.memory.tlb import TLB

#: Synthetic PCs are uop-granular; assume 4 bytes per uop for page mapping.
_UOP_BYTES = 4


class TraceCache:
    """Timing model of the trace cache + MITE + ITLB."""

    __slots__ = ("line_uops", "fill_latency", "_lines", "_itlb", "hits", "misses")

    def __init__(
        self, config: FrontEndConfig, itlb: TLBConfig, *, resident: bool = True
    ) -> None:
        """``resident=False`` builds the line store and the ITLB without
        contents (see :class:`~repro.memory.cache.NonResidentCache`)."""
        self.line_uops = config.trace_cache_line_uops
        self.fill_latency = config.mite_fill_latency
        num_lines = max(1, config.trace_cache_uops // self.line_uops)
        assoc = 8 if num_lines >= 8 else num_lines
        self._lines = SetAssocCache.from_geometry(
            max(1, num_lines // assoc), assoc, name="TC", resident=resident
        )
        self._itlb = TLB(
            itlb,
            line_bytes=max(1, 64 // _UOP_BYTES),
            name="ITLB",
            resident=resident,
        )
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> int:
        """Access the TC line holding ``pc``.

        Returns 0 when the fetch group can be delivered this cycle, or the
        stall latency (MITE fill + possible ITLB walk) when it cannot.  The
        line is inserted on miss, so the post-stall retry hits.
        """
        itlb_lat = self._itlb.translate(pc)
        line = pc // self.line_uops
        if self._lines.access(line):
            self.hits += 1
            return itlb_lat
        self.misses += 1
        return self.fill_latency + itlb_lat

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def itlb_misses(self) -> int:
        return self._itlb.misses

    def reset_stats(self) -> None:
        """Zero hit/miss counters (contents stay resident)."""
        self.hits = 0
        self.misses = 0
        self._itlb.reset_stats()

    def telemetry_row(self) -> tuple[int, int]:
        """(hits, misses) running totals — the interval sampler differences
        consecutive snapshots for per-interval hit rates."""
        return self.hits, self.misses
