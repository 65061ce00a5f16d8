"""Icount (Tullsen et al. [1]) — the paper's baseline.

"The thread with the lowest number of instructions between renaming stage
and issue is selected" (Table 3).  We meter exactly that window: the
per-thread count of renamed-but-not-yet-issued uops (copies included, since
they occupy issue-queue entries).  No admission limits — a stalled thread's
instructions can invade both issue queues, which is the pathology the
paper's Section 5.1 analyses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Optional

from repro.policies.base import ResourcePolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.smt import ThreadContext


class IcountPolicy(ResourcePolicy):
    """Rename the thread with the fewest pre-issue instructions."""

    name = "icount"

    def rename_select(
        self, cycle: int, exclude: AbstractSet[int] = frozenset()
    ) -> Optional["ThreadContext"]:
        """Pick the eligible thread with the fewest pre-issue uops."""
        assert self.proc is not None
        threads = self.proc.threads
        n = len(threads)
        best: "ThreadContext | None" = None
        best_icount = 0
        for off in range(n):
            t = threads[(self._rr + off) % n]
            if t.tid in exclude or not t.can_rename(cycle):
                continue
            ic = t.icount
            # strict < keeps the first-seen thread on ties, which is the
            # round-robin tie-break (threads are scanned from _rr)
            if best is None or ic < best_icount:
                best, best_icount = t, ic
        if best is not None:
            self._rr = (best.tid + 1) % n
        return best
