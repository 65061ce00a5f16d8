"""Re-order buffer.

The paper's ROB is "split into as many sections as threads are running"
(Section 3, following the Pentium 4 hyperthreading design [26]): each
thread owns a private 128-entry partition, so the ROB itself never causes
*inter*-thread starvation — but a full partition still back-pressures its
own thread's rename, which matters for the Stall/Flush+ analysis.

Entries are the uops themselves in a deque (rename order = commit order).
Copy uops do not allocate ROB entries; they are squash-tracked through the
per-thread in-flight list instead (see ``repro.core.smt``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa import Uop


class ReorderBuffer:
    """One thread's private ROB partition."""

    __slots__ = ("capacity", "unbounded", "_entries", "peak")

    def __init__(self, capacity: int, unbounded: bool = False) -> None:
        self.capacity = capacity
        self.unbounded = unbounded
        self._entries: deque["Uop"] = deque()
        self.peak = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self._entries)

    def can_alloc(self) -> bool:
        return self.unbounded or len(self._entries) < self.capacity

    def push(self, uop: "Uop") -> None:
        if not self.can_alloc():
            raise RuntimeError("ROB overflow")
        self._entries.append(uop)
        if len(self._entries) > self.peak:
            self.peak = len(self._entries)

    def head(self) -> "Uop | None":
        return self._entries[0] if self._entries else None

    def pop_head(self) -> "Uop":
        return self._entries.popleft()

    def squash_younger_than(self, age: int) -> list["Uop"]:
        """Remove and return all entries with ``uop.age > age`` (youngest side)."""
        squashed: list["Uop"] = []
        entries = self._entries
        while entries and entries[-1].age > age:
            squashed.append(entries.pop())
        return squashed

    def clear(self) -> list["Uop"]:
        """Drain everything (full-thread flush); returns entries youngest-first."""
        squashed = list(reversed(self._entries))
        self._entries.clear()
        return squashed
