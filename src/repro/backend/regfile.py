"""Physical register files.

Each cluster has two physical register files — integer and FP/SSE (Table 1:
64–128 registers each).  A :class:`PhysRegFile` owns the free list, the
ready bits and the wakeup waiter lists for one ``(cluster, class)`` pair;
:class:`RegFileSet` groups the two files of one cluster.

Values that exist before the simulation starts (initial architectural
state) are represented by the sentinel :data:`READY_EVERYWHERE` instead of
a physical register: they are ready in every cluster and need neither a
copy nor a free-list slot, which avoids skewing startup occupancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.isa import RegClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa import Uop

#: Pseudo physical register: the value predates the simulation and is
#: resident and ready in every cluster.
READY_EVERYWHERE = -2


class PhysRegFile:
    """Free list + ready bits + waiter lists for one register file."""

    __slots__ = (
        "cluster",
        "regclass",
        "capacity",
        "unbounded",
        "_free",
        "_ready",
        "_waiters",
        "in_use",
        "peak_in_use",
        "alloc_count",
    )

    def __init__(
        self, cluster: int, regclass: RegClass, capacity: int, unbounded: bool = False
    ) -> None:
        self.cluster = cluster
        self.regclass = regclass
        self.capacity = capacity
        self.unbounded = unbounded
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._ready = bytearray(capacity)
        self._waiters: dict[int, list["Uop"]] = {}
        self.in_use = 0
        self.peak_in_use = 0
        self.alloc_count = 0

    @property
    def free_count(self) -> int:
        return len(self._free)

    def can_alloc(self) -> bool:
        return self.unbounded or bool(self._free)

    def alloc(self) -> int:
        """Allocate a physical register (not ready).  Raises when exhausted."""
        if not self._free:
            if not self.unbounded:
                raise RuntimeError(
                    f"register file cluster{self.cluster}/{self.regclass.name} exhausted"
                )
            # grow the unbounded file
            new_cap = self.capacity * 2
            self._free.extend(range(new_cap - 1, self.capacity - 1, -1))
            self._ready.extend(bytearray(new_cap - self.capacity))
            self.capacity = new_cap
        p = self._free.pop()
        self._ready[p] = 0
        self.in_use += 1
        self.alloc_count += 1
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        return p

    def free(self, phys: int) -> None:
        """Return a physical register to the free list."""
        self._ready[phys] = 0
        waiters = self._waiters.pop(phys, None)
        if waiters:
            raise RuntimeError(
                f"freeing phys reg {phys} with {len(waiters)} live waiters"
            )
        self._free.append(phys)
        self.in_use -= 1

    def is_ready(self, phys: int) -> bool:
        return bool(self._ready[phys])

    def set_ready(self, phys: int) -> list["Uop"]:
        """Mark ``phys`` ready; return (and clear) the uops waiting on it."""
        self._ready[phys] = 1
        return self._waiters.pop(phys, [])

    def add_waiter(self, phys: int, uop: "Uop") -> None:
        """Register ``uop`` to be woken when ``phys`` becomes ready."""
        self._waiters.setdefault(phys, []).append(uop)

    def drop_waiter(self, phys: int, uop: "Uop") -> None:
        """Remove a squashed uop from a waiter list (if present)."""
        lst = self._waiters.get(phys)
        if lst is not None:
            try:
                lst.remove(uop)
            except ValueError:
                pass
            if not lst:
                del self._waiters[phys]


class RegFileSet:
    """The integer and FP/SSE register files of one cluster."""

    __slots__ = ("files",)

    def __init__(
        self, cluster: int, int_regs: int, fp_regs: int, unbounded: bool = False
    ) -> None:
        self.files = (
            PhysRegFile(cluster, RegClass.INT, int_regs, unbounded),
            PhysRegFile(cluster, RegClass.FP, fp_regs, unbounded),
        )

    def __getitem__(self, regclass: RegClass | int) -> PhysRegFile:
        return self.files[int(regclass)]

    def total_in_use(self) -> int:
        return sum(f.in_use for f in self.files)
