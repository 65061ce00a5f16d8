"""Gshare branch predictor.

Table 1: 32K-entry gshare.  Per the paper's Section 3, the pattern table is
shared between threads but the global history register is private per
thread.  The simulator is trace-driven, so the predictor is consulted at
fetch against the recorded outcome; tables and history are updated with the
actual outcome immediately (the standard trace-driven idealization — history
corruption by wrong-path fetch is not modelled, but wrong-path *resource
usage* is, via the wrong-path injection in the fetch engine).

A predictor built with ``resident=False`` keeps only the size, history
length and counters of one whose tables the whole-loop C kernel
(:mod:`repro.core.cloop`) holds, like the caches'
:class:`~repro.memory.cache.NonResidentCache`.
"""

from __future__ import annotations


class GShare:
    """Shared 2-bit-counter pattern table with per-thread global history."""

    __slots__ = ("size", "_mask", "_table", "_history", "_hist_bits",
                 "lookups", "correct")

    def __new__(cls, *args, resident: bool = True, **kwargs):
        return object.__new__(cls if resident else NonResidentGShare)

    def __init__(
        self, entries: int, num_threads: int, hist_bits: int = 12,
        *, resident: bool = True,
    ) -> None:
        if entries & (entries - 1):
            raise ValueError("gshare entries must be a power of two")
        self.size = entries
        self._mask = entries - 1
        if resident:
            self._table = bytearray(b"\x02") * entries  # init weakly taken
            self._history = [0] * num_threads
        self._hist_bits = hist_bits
        self.lookups = 0
        self.correct = 0

    def _index(self, tid: int, pc: int) -> int:
        return (pc ^ (self._history[tid] << 2)) & self._mask

    def predict(self, tid: int, pc: int) -> bool:
        """Direction prediction for a conditional branch at ``pc``."""
        return self._table[self._index(tid, pc)] >= 2

    def update(self, tid: int, pc: int, taken: bool) -> bool:
        """Predict, then train with the actual outcome.

        Returns the prediction made *before* training (what fetch acted on).
        """
        idx = self._index(tid, pc)
        counter = self._table[idx]
        predicted = counter >= 2
        if taken:
            if counter < 3:
                self._table[idx] = counter + 1
        else:
            if counter > 0:
                self._table[idx] = counter - 1
        hist_mask = (1 << self._hist_bits) - 1
        self._history[tid] = ((self._history[tid] << 1) | int(taken)) & hist_mask
        self.lookups += 1
        if predicted == taken:
            self.correct += 1
        return predicted

    @property
    def accuracy(self) -> float:
        return self.correct / self.lookups if self.lookups else 0.0

    def history(self, tid: int) -> int:
        """Current global-history bits of ``tid`` (shared with the
        indirect predictor so both see the same context)."""
        return self._history[tid]

    def reset_thread(self, tid: int) -> None:
        """Clear one thread's history (context switch)."""
        self._history[tid] = 0

    def reset_stats(self) -> None:
        """Zero accuracy counters (tables and histories stay trained)."""
        self.lookups = 0
        self.correct = 0

    def telemetry_row(self) -> tuple[int, int]:
        """(lookups, correct) running totals — the interval sampler
        differences consecutive snapshots for per-interval accuracy."""
        return self.lookups, self.correct


class NonResidentGShare(GShare):
    """A gshare whose pattern table and histories the whole-loop C kernel
    holds; the kernel writes the counters back.  Predicting, training or
    reading a history raises instead of answering from untrained tables.

    A subclass, not a mode of :class:`GShare`: a check in ``update`` would
    slow every branch of the Python engines."""

    __slots__ = ()

    def _in_kernel(self, *_args):
        raise RuntimeError(
            "gshare tables and histories live in the C kernel; "
            "Python keeps only this predictor's counters"
        )

    predict = update = history = reset_thread = _in_kernel


class IndirectPredictor:
    """Indirect-branch target predictor (Table 1: 4096 entries).

    A classic tagless target cache of the paper's era (Pentium 4 style):
    indexed by branch PC, each entry storing the last observed target.
    Correct whenever a branch repeats its previous target — which real
    indirect branches (virtual calls with a dominant receiver) mostly do.
    Thread id is hashed in so co-running threads do not alias onto each
    other's entries more than capacity requires.
    """

    __slots__ = ("size", "_mask", "_targets", "lookups", "correct")

    _EMPTY = -1

    def __new__(cls, *args, resident: bool = True, **kwargs):
        return object.__new__(cls if resident else NonResidentIndirectPredictor)

    def __init__(
        self, entries: int, num_threads: int = 2, *, resident: bool = True
    ) -> None:
        if entries & (entries - 1):
            raise ValueError("indirect predictor entries must be a power of two")
        self.size = entries
        self._mask = entries - 1
        if resident:
            self._targets = [self._EMPTY] * entries
        self.lookups = 0
        self.correct = 0

    def _index(self, tid: int, pc: int) -> int:
        return (pc ^ (tid << 9)) & self._mask

    def predict(self, tid: int, pc: int) -> int:
        """Predicted target id (``-1`` when the entry is cold)."""
        return self._targets[self._index(tid, pc)]

    def update(self, tid: int, pc: int, target: int) -> bool:
        """Predict, then train with the actual target.

        Returns True when the pre-training prediction was correct.
        """
        idx = self._index(tid, pc)
        predicted = self._targets[idx]
        self._targets[idx] = target
        self.lookups += 1
        hit = predicted == target
        if hit:
            self.correct += 1
        return hit

    @property
    def accuracy(self) -> float:
        return self.correct / self.lookups if self.lookups else 0.0

    def reset_stats(self) -> None:
        self.lookups = 0
        self.correct = 0


class NonResidentIndirectPredictor(IndirectPredictor):
    """An indirect predictor whose target table the whole-loop C kernel
    holds (see :class:`NonResidentGShare`)."""

    __slots__ = ()

    def _in_kernel(self, *_args):
        raise RuntimeError(
            "indirect-predictor targets live in the C kernel; "
            "Python keeps only this predictor's counters"
        )

    predict = update = _in_kernel
