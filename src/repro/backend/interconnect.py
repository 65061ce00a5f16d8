"""Inter-cluster interconnection network.

Table 1: two point-to-point links, one cycle latency.  Executed copy uops
enqueue a transfer; each cycle every link can start one transfer, which
arrives ``link_latency`` cycles later.  Transfers beyond the per-cycle link
bandwidth queue up (FIFO), modelling the contention the paper's
inter-cluster-communication study measures.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa import Uop


class Interconnect:
    """FIFO-arbitrated point-to-point links between the two clusters."""

    __slots__ = ("num_links", "latency", "_pending", "_in_flight",
                 "transfers", "queue_wait_cycles")

    def __init__(self, num_links: int, latency: int) -> None:
        self.num_links = num_links
        self.latency = latency
        self._pending: deque["Uop"] = deque()
        self._in_flight: list[tuple[int, "Uop"]] = []  # (arrival_cycle, uop)
        self.transfers = 0
        self.queue_wait_cycles = 0

    def request(self, uop: "Uop") -> None:
        """A copy uop finished reading its source; queue it for transfer."""
        self._pending.append(uop)

    def tick(self, cycle: int) -> list["Uop"]:
        """Advance one cycle; return copies whose value arrives this cycle."""
        arrived: list["Uop"] = []
        remaining: list[tuple[int, "Uop"]] = []
        for when, uop in self._in_flight:
            if when <= cycle:
                if not uop.squashed:
                    arrived.append(uop)
            else:
                remaining.append((when, uop))
        self._in_flight = remaining

        # launch up to num_links new transfers
        launched = 0
        while self._pending and launched < self.num_links:
            uop = self._pending.popleft()
            if uop.squashed:
                continue
            self._in_flight.append((cycle + self.latency, uop))
            self.transfers += 1
            launched += 1
        self.queue_wait_cycles += len(self._pending)
        return arrived

    def pending_count(self) -> int:
        return len(self._pending) + len(self._in_flight)
