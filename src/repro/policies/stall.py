"""Stall (Tullsen & Brown [19]).

"Implemented on top of Icount but stalls a thread that misses in L2 cache
until the cache miss resolves" (Table 3).  The gate stops the thread's
*rename* — its fetch queue keeps filling and its in-flight instructions
keep executing, but it stops acquiring new shared resources.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.policies.icount import IcountPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa import Uop


class StallPolicy(IcountPolicy):
    """Icount + rename gate while an L2 miss is outstanding."""

    name = "stall"

    def on_l2_miss(self, uop: "Uop") -> None:
        assert self.proc is not None
        self.proc.threads[uop.tid].gated = True

    def on_l2_fill(self, tid: int) -> None:
        assert self.proc is not None
        self.proc.threads[tid].gated = False

    def on_cycle(self, cycle: int) -> None:
        # account gated cycles for diagnostics
        assert self.proc is not None
        for t in self.proc.threads:
            if t.gated:
                self.proc.stats.stalled_thread_cycles += 1
