"""Resource-assignment policy interface.

A policy plugs into the pipeline at exactly the points the paper describes:

* **rename selection** (:meth:`ResourcePolicy.rename_select`) — which
  thread's instructions are renamed (and hence steered/dispatched) this
  cycle.  This is "the main responsible of fairly distributing the
  processor resources among the threads" (Section 3).
* **issue-queue admission** (:meth:`may_dispatch`) — may this thread take
  one more IQ entry in this cluster?  Static partition schemes veto here.
* **register admission** (:meth:`may_alloc_reg`) — may this thread take one
  more physical register of this class (in this cluster, for
  cluster-sensitive schemes)?
* **event hooks** — rename/issue/commit/squash, physical register
  alloc/free, L2 miss/fill, and a per-cycle tick (CDPRF's counters).

Policies must keep :meth:`may_dispatch`/:meth:`may_alloc_reg` pure; all
state updates happen in the event hooks, which the processor invokes
exactly once per event (including on squash rollback).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.processor import Processor
    from repro.core.smt import ThreadContext
    from repro.isa import Uop


class ResourcePolicy:
    """Base: no limits, round-robin rename selection."""

    name = "base"

    def __init__(self) -> None:
        self.proc: "Processor | None" = None
        self._rr = 0

    # -- lifecycle --------------------------------------------------------

    def attach(self, proc: "Processor") -> None:
        """Bind to a processor before simulation starts."""
        self.proc = proc

    # -- selection --------------------------------------------------------

    def rename_select(
        self, cycle: int, exclude: AbstractSet[int] = frozenset()
    ) -> Optional["ThreadContext"]:
        """Thread whose instructions are renamed this cycle (None = stall).

        ``exclude`` holds threads that already failed a structural check
        this cycle (full ROB/MOB); the processor retries selection so a
        blocked pick does not waste the whole rename slot.
        """
        assert self.proc is not None
        threads = self.proc.threads
        n = len(threads)
        for off in range(n):
            t = threads[(self._rr + off) % n]
            if t.tid not in exclude and t.can_rename(cycle):
                self._rr = (self._rr + off + 1) % n
                return t
        return None

    # -- admission (must be pure) ------------------------------------------

    def may_dispatch(self, tid: int, cluster: int, needed: int = 1) -> bool:
        """May ``tid`` occupy ``needed`` more IQ entries in ``cluster``?

        ``needed`` > 1 happens when one renamed uop brings copy uops with
        it; checking the whole group at once keeps static shares exact.
        """
        return True

    def may_dispatch_group(self, tid: int, needs: list[int]) -> bool:
        """May ``tid`` take ``needs[cluster]`` IQ entries in each cluster?

        One renamed uop can require entries in both clusters at once (the
        consumer plus its copy uops); cluster-insensitive schemes must see
        the whole group to keep their *total* share exact.
        """
        may_dispatch = self.may_dispatch
        for cl, n in enumerate(needs):
            if n and not may_dispatch(tid, cl, n):
                return False
        return True

    def may_alloc_reg(
        self, tid: int, regclass: int, cluster: int, needed: int = 1
    ) -> bool:
        """May ``tid`` allocate ``needed`` more physical registers?"""
        return True

    # -- event hooks --------------------------------------------------------

    def on_rename(self, uop: "Uop") -> None:
        """A uop (or rename-generated copy) was dispatched."""

    def on_issue(self, uop: "Uop") -> None:
        """A uop left an issue queue."""

    def on_commit(self, uop: "Uop") -> None:
        """A uop retired."""

    def on_squash(self, uop: "Uop") -> None:
        """A renamed uop was squashed (branch/flush)."""

    def on_reg_alloc(self, tid: int, regclass: int, cluster: int) -> None:
        """A physical register was allocated on behalf of ``tid``."""

    def on_reg_free(self, tid: int, regclass: int, cluster: int) -> None:
        """A physical register owned by ``tid`` was reclaimed."""

    def on_reg_stall(self, tid: int, regclass: int) -> None:
        """Rename blocked this cycle for lack of ``regclass`` registers."""

    def on_l2_miss(self, uop: "Uop") -> None:
        """A right-path load was detected to miss in L2."""

    def on_l2_fill(self, tid: int) -> None:
        """The last outstanding L2 miss of ``tid`` was serviced."""

    def on_cycle(self, cycle: int) -> None:
        """Start-of-cycle tick."""

    # -- helpers ------------------------------------------------------------

    def _iq_share(self, cluster_capacity: int) -> int:
        """Equal static share of an issue queue (50% for two threads)."""
        assert self.proc is not None
        return max(1, cluster_capacity // self.proc.config.num_threads)

    def describe(self) -> str:
        return f"{self.name}: {type(self).__doc__.strip().splitlines()[0]}"
