"""Issue queue with oldest-first wakeup/select.

One :class:`IssueQueue` per cluster.  Entries are held from dispatch until
issue (the occupancy the paper's schemes meter).  Ready uops live in two
structures that :meth:`select` merges in age order:

* an age-ordered min-heap fed by dispatch and wakeup, with lazy deletion
  (squashed or already-issued entries are skipped when popped);
* a *deferred* list — ready uops that lost port arbitration in an earlier
  cycle.  They are already sorted by age (select emits them in age order),
  so keeping them out of the heap avoids re-heapifying the same oldest
  entries every cycle, which dominated select's cost in profiles.

Non-ready uops are in neither structure — they are woken by the register
file waiter lists and pushed when their last source becomes ready.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa import Uop


class IssueQueue:
    """Per-cluster issue queue with per-thread occupancy accounting."""

    __slots__ = (
        "cluster",
        "capacity",
        "occupancy",
        "per_thread",
        "_ready",
        "_deferred",
        "peak",
    )

    def __init__(self, cluster: int, capacity: int, num_threads: int) -> None:
        self.cluster = cluster
        self.capacity = capacity
        self.occupancy = 0
        self.per_thread = [0] * num_threads
        self._ready: list[tuple[int, "Uop"]] = []  # (age, uop) min-heap
        self._deferred: list["Uop"] = []  # passed-over, sorted by age
        self.peak = 0

    # -- occupancy --------------------------------------------------------

    @property
    def free_entries(self) -> int:
        return self.capacity - self.occupancy

    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    def dispatch(self, uop: "Uop") -> None:
        """Insert a renamed uop (caller already checked capacity/policy)."""
        if self.occupancy >= self.capacity:
            raise RuntimeError(f"issue queue {self.cluster} overflow")
        self.occupancy += 1
        self.per_thread[uop.tid] += 1
        if self.occupancy > self.peak:
            self.peak = self.occupancy
        if uop.wait_count == 0:
            heapq.heappush(self._ready, (uop.age, uop))

    def wake(self, uop: "Uop") -> None:
        """A source became ready; push to the ready heap when all are."""
        if uop.wait_count == 0 and not uop.issued and not uop.squashed:
            heapq.heappush(self._ready, (uop.age, uop))

    @property
    def has_candidates(self) -> bool:
        """Any entry the selector could visit this cycle (ready heap or
        deferred list; may include lazily deleted entries)."""
        return bool(self._ready or self._deferred)

    def release(self, uop: "Uop") -> None:
        """Free the entry at issue time (or when squashing an un-issued uop)."""
        self.occupancy -= 1
        self.per_thread[uop.tid] -= 1
        if self.occupancy < 0 or self.per_thread[uop.tid] < 0:
            raise RuntimeError("issue queue occupancy underflow")

    # -- select -----------------------------------------------------------

    def select(
        self, max_scan: int, usable: Callable[["Uop"], bool]
    ) -> tuple[list["Uop"], list["Uop"]]:
        """Pop ready uops oldest-first.

        ``usable(uop)`` decides whether a free, compatible port exists *and
        claims it*.  Returns ``(issued, passed_over)`` where ``passed_over``
        are ready uops that could not get a port this cycle (they stay
        deferred and feed the workload-imbalance probe).  ``max_scan``
        bounds how deep past blocked uops the selector looks, modelling
        limited select bandwidth.
        """
        issued: list["Uop"] = []
        passed: list["Uop"] = []
        heap = self._ready
        deferred = self._deferred
        di = 0
        dn = len(deferred)
        scanned = 0
        heappop = heapq.heappop
        while scanned < max_scan:
            # next candidate = min(deferred head, heap head), by age; both
            # sides use lazy deletion for squashed/issued entries
            if di < dn:
                duop = deferred[di]
                if duop.squashed or duop.issued:
                    di += 1
                    continue
                if heap and heap[0][0] < duop.age:
                    uop = heap[0][1]
                    heappop(heap)
                    if uop.squashed or uop.issued:
                        continue
                else:
                    di += 1
                    uop = duop
            elif heap:
                uop = heap[0][1]
                heappop(heap)
                if uop.squashed or uop.issued:
                    continue
            else:
                break
            scanned += 1
            if usable(uop):
                issued.append(uop)
            else:
                passed.append(uop)
        # everything processed this cycle is older than deferred[di:], so
        # the concatenation stays age-sorted
        if di or passed:
            self._deferred = passed + deferred[di:]
        return issued, passed

    def ready_uops(self) -> Iterator["Uop"]:
        """Live ready uops (tests/diagnostics; order unspecified)."""
        for _, uop in self._ready:
            if not uop.squashed and not uop.issued:
                yield uop
        for uop in self._deferred:
            if not uop.squashed and not uop.issued:
                yield uop
