"""TLB model (ITLB and DTLB, Table 1: 1024 entries, 8-way).

Timing-only, like :mod:`repro.memory.cache`, but addressed by page number
and with a fixed miss (page-walk) latency.  The paper shares TLBs between
threads; we do the same.
"""

from __future__ import annotations

from repro.config import TLBConfig
from repro.memory.cache import SetAssocCache


class TLB:
    """Set-associative TLB; translates line addresses to added miss latency."""

    __slots__ = ("_store", "miss_latency", "_lines_per_page")

    def __init__(
        self,
        config: TLBConfig,
        line_bytes: int = 64,
        name: str = "tlb",
        *,
        resident: bool = True,
    ) -> None:
        # A TLB is a cache of page translations; reuse the cache structure.
        self._store = SetAssocCache.from_geometry(
            config.num_sets, config.assoc, name, resident=resident
        )
        self.miss_latency = config.miss_latency
        self._lines_per_page = max(1, config.page_bytes // line_bytes)

    def translate(self, line: int) -> int:
        """Access the TLB for a line address; return added latency (0 on hit)."""
        page = line // self._lines_per_page
        return 0 if self._store.access(page) else self.miss_latency

    @property
    def hits(self) -> int:
        return self._store.hits

    @property
    def misses(self) -> int:
        return self._store.misses

    def reset_stats(self) -> None:
        self._store.reset_stats()
