"""Two-level shared memory hierarchy (Table 1).

Ties together the DTLB, L1D, L2 and main memory and models the two L1-to-L2
data buses as busy-until timestamps (an access finding both buses busy
queues behind the earlier-free one).  Instruction-side timing (ITLB + trace
cache) lives in :mod:`repro.frontend.tracecache`.

The model is MSHR-less: each outstanding miss independently occupies a bus
slot.  Back-to-back misses to the *same* line within its fill window are
coalesced to the first miss's completion time, which is the behaviour that
matters for pointer-chase loops.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config import MemoryConfig
from repro.memory.cache import SetAssocCache
from repro.memory.tlb import TLB


class AccessResult(NamedTuple):
    """Outcome of a data-side access.

    A ``NamedTuple`` rather than a frozen dataclass: the cycle loop builds
    one per data access, and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.
    """

    latency: int        # total cycles from access start to data ready
    l1_hit: bool
    l2_hit: bool        # meaningful only when not l1_hit
    tlb_miss: bool

    @property
    def l2_miss(self) -> bool:
        """True when the access had to go to main memory."""
        return not self.l1_hit and not self.l2_hit


class MemoryHierarchy:
    """Shared L1D + L2 + memory with bus contention and a DTLB."""

    def __init__(self, config: MemoryConfig, *, resident: bool = True) -> None:
        """``resident=False`` builds the caches and the DTLB without
        contents (see :class:`~repro.memory.cache.NonResidentCache`)."""
        self.config = config
        self.l1 = SetAssocCache.from_geometry(
            config.l1.num_sets, config.l1.assoc, "L1D", resident=resident
        )
        self.l2 = SetAssocCache.from_geometry(
            config.l2.num_sets, config.l2.assoc, "L2", resident=resident
        )
        self.dtlb = TLB(
            config.dtlb,
            line_bytes=config.l1.line_bytes,
            name="DTLB",
            resident=resident,
        )
        self._bus_free = [0] * config.l1_l2_buses
        # line -> cycle when an in-flight fill completes (miss coalescing)
        self._inflight_fills: dict[int, int] = {}
        self.bus_wait_cycles = 0
        self.coalesced_misses = 0

    # -- internal ---------------------------------------------------------

    def _acquire_bus(self, now: int) -> int:
        """Reserve the earliest-free L1<->L2 bus; return wait cycles."""
        best = min(range(len(self._bus_free)), key=self._bus_free.__getitem__)
        wait = max(0, self._bus_free[best] - now)
        # a bus transfer occupies the link for one cycle
        self._bus_free[best] = now + wait + 1
        self.bus_wait_cycles += wait
        return wait

    def _expire_fills(self, now: int) -> None:
        if len(self._inflight_fills) > 64:
            done = [ln for ln, t in self._inflight_fills.items() if t <= now]
            for ln in done:
                del self._inflight_fills[ln]

    # -- public API -------------------------------------------------------

    def access(self, line: int, now: int, is_store: bool = False) -> AccessResult:
        """Perform a data access at cycle ``now``; returns timing/outcome.

        Write-allocate: stores fetch the line on miss just like loads.
        """
        self._expire_fills(now)
        tlb_lat = self.dtlb.translate(line)
        tlb_miss = tlb_lat > 0
        lat = self.config.l1.hit_latency + tlb_lat

        # coalesce with an in-flight fill of the same line: the line is
        # already allocated but its data has not arrived yet
        fill_done = self._inflight_fills.get(line)
        if fill_done is not None and fill_done > now:
            self.coalesced_misses += 1
            self.l1.access(line)
            return AccessResult(
                max(lat, fill_done - now), False, True, tlb_miss
            )

        if self.l1.access(line):
            return AccessResult(lat, True, False, tlb_miss)

        lat += self._acquire_bus(now)
        if self.l2.access(line):
            lat += self.config.l2.hit_latency
            self._inflight_fills[line] = now + lat
            return AccessResult(lat, False, True, tlb_miss)

        lat += self.config.l2.hit_latency + self.config.memory_latency
        self._inflight_fills[line] = now + lat
        return AccessResult(lat, False, False, tlb_miss)

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.dtlb.reset_stats()
        self.bus_wait_cycles = 0
        self.coalesced_misses = 0
