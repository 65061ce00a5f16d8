"""Set-associative cache model with true-LRU replacement.

The model is *timing only*: it tracks which lines are resident (no data) and
answers hit/miss queries.  Threads share capacity, as in the paper's
baseline, so one thread's streaming can evict the other's working set —
part of why memory-bounded co-runners hurt each other.

Sets are small (2- or 8-way), so each set is a plain Python list kept in
LRU order (index 0 = LRU, last = MRU); ``list.remove``/``append`` on lists
of <= 8 elements beats any clever structure.

A :class:`NonResidentCache` keeps only the geometry and counters of a
cache whose contents live in the whole-loop C kernel
(:mod:`repro.core.cloop`).
"""

from __future__ import annotations

from repro.config import CacheConfig


class SetAssocCache:
    """One cache level, addressed by cache-line number."""

    __slots__ = ("name", "num_sets", "assoc", "_sets", "hits", "misses", "evictions")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_geometry(
        cls, num_sets: int, assoc: int, name: str = "cache", *, resident: bool = True
    ) -> "SetAssocCache":
        """Build directly from (sets, ways).  ``resident=False`` builds a
        :class:`NonResidentCache`: the same geometry and counters, no
        contents."""
        self = object.__new__(cls if resident else NonResidentCache)
        self.name = name
        self.num_sets = num_sets
        self.assoc = assoc
        if resident:
            self._sets = [[] for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        return self

    def access(self, line: int) -> bool:
        """Look up ``line``; allocate on miss.  Returns True on hit."""
        s = self._sets[line % self.num_sets]
        if line in s:
            # refresh LRU position
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(s) >= self.assoc:
            del s[0]
            self.evictions += 1
        s.append(line)
        return False

    def probe(self, line: int) -> bool:
        """Non-allocating, non-LRU-updating lookup."""
        return line in self._sets[line % self.num_sets]

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present; returns True if it was resident."""
        s = self._sets[line % self.num_sets]
        if line in s:
            s.remove(line)
            return True
        return False

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        """Number of resident lines (useful for tests)."""
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{self.name}: {self.num_sets}x{self.assoc}, "
            f"{self.hits}H/{self.misses}M>"
        )


class NonResidentCache(SetAssocCache):
    """A cache level whose contents the whole-loop C kernel holds; the
    kernel writes the counters back.  Reading the contents (``_sets``, and
    through it ``access``, ``probe``, ``invalidate`` and ``occupancy``)
    raises instead of answering from lists nothing updates.

    A subclass, not a mode of :class:`SetAssocCache`: a ``__getattr__``
    hook there would slow every counter update of the Python engines."""

    __slots__ = ()

    @property
    def _sets(self):
        raise RuntimeError(
            f"{self.name} contents live in the C kernel; "
            "Python keeps only this cache's counters"
        )
