"""Memory Order Buffer (shared LDQ/STQ, Table 1: 128 entries).

The MOB allocates one entry per load or store at rename and releases it at
commit (or squash).  Being shared between threads it is a fourth starvation
point besides the IQ, register files and ROB — a memory-bounded thread with
a full window can hold most of the MOB.

Store-to-load forwarding: a load whose line matches an older, already
executed store of the same thread forwards in one cycle instead of
accessing the cache.  The simulator is trace-driven (no data values), so
no ordering violations or replays are modelled; forwarding only shortcuts
latency, as in the paper's simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa import Uop


class MemoryOrderBuffer:
    """Shared load/store queue with line-granularity forwarding."""

    __slots__ = ("capacity", "occupancy", "per_thread", "_entries", "forwards", "peak")

    def __init__(self, capacity: int, num_threads: int) -> None:
        self.capacity = capacity
        self.occupancy = 0
        self.per_thread = [0] * num_threads
        # in-flight stores per thread: {mem_line -> count of executed stores}
        self._entries: list[dict[int, int]] = [dict() for _ in range(num_threads)]
        self.forwards = 0
        self.peak = 0

    @property
    def free_entries(self) -> int:
        return self.capacity - self.occupancy

    def can_alloc(self) -> bool:
        return self.occupancy < self.capacity

    def alloc(self, uop: "Uop") -> None:
        """Reserve an entry at rename time."""
        if self.occupancy >= self.capacity:
            raise RuntimeError("MOB overflow")
        self.occupancy += 1
        self.per_thread[uop.tid] += 1
        uop.mob_index = 1  # marker: entry held
        if self.occupancy > self.peak:
            self.peak = self.occupancy

    def release(self, uop: "Uop") -> None:
        """Free the entry at commit or squash."""
        if uop.mob_index < 0:
            return
        self.occupancy -= 1
        self.per_thread[uop.tid] -= 1
        executed_store = uop.mob_index == 2
        uop.mob_index = -1
        if self.occupancy < 0:
            raise RuntimeError("MOB underflow")
        if executed_store:
            self._forget_store(uop)

    # -- forwarding -------------------------------------------------------

    def store_executed(self, uop: "Uop") -> None:
        """Record an executed store's line for forwarding checks."""
        uop.mob_index = 2
        lines = self._entries[uop.tid]
        lines[uop.mem_line] = lines.get(uop.mem_line, 0) + 1

    def _forget_store(self, uop: "Uop") -> None:
        lines = self._entries[uop.tid]
        count = lines.get(uop.mem_line, 0)
        if count <= 1:
            lines.pop(uop.mem_line, None)
        else:
            lines[uop.mem_line] = count - 1

    def can_forward(self, uop: "Uop") -> bool:
        """True when an executed same-thread store to the line is in flight."""
        return uop.mem_line in self._entries[uop.tid]
