"""Simulation statistics.

Every counter a figure of the paper needs is collected here:

* throughput: ``cycles`` + ``committed`` (Figure 2/6/9 speedups);
* ``copies_arrived`` / committed  -> Figure 3's copies-per-retired-uop;
* ``iq_stalls`` / committed      -> Figure 4 (counted per the paper's
  definition: the renamed instruction could not go to its *preferred*
  cluster because the IQ was full or over the scheme's limit — whether it
  was redirected or blocked);
* ``imbalance``                  -> Figure 5's 0/1 x Int/FpSimd/Mem
  sections (cycle-level buckets);
* per-thread committed counts    -> fairness (Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.isa.uops import PORT_FP, PORT_INT, PORT_MEM

#: rename-stall attribution keys
STALL_CAUSES = ("iq", "rf_int", "rf_fp", "rob", "mob")

#: imbalance probe port-class labels, in the paper's Figure 5 order
IMBALANCE_CLASSES = {PORT_INT: "Integer", PORT_FP: "Fp/Simd", PORT_MEM: "Mem"}


@dataclass(slots=True)
class SimStats:
    """Mutable counter block for one simulation.

    ``slots=True``: the cycle loop bumps these counters millions of times
    per simulation, and slot access skips the per-instance ``__dict__``.
    """

    num_threads: int
    cycles: int = 0
    committed: int = 0
    committed_per_thread: list[int] = field(default_factory=list)
    renamed: int = 0
    fetched: int = 0
    issued: int = 0
    # copies (Figure 3)
    copies_renamed: int = 0
    copies_arrived: int = 0
    # issue-queue stalls (Figure 4)
    iq_stalls: int = 0            # preferred cluster denied (redirected or blocked)
    iq_block_stalls: int = 0      # both clusters denied -> rename blocked
    rename_stall_cycles: dict[str, int] = field(default_factory=dict)
    # register starvation
    reg_stall_events: list[int] = field(default_factory=lambda: [0, 0])  # per class
    # speculation
    mispredicts: int = 0
    squashed_uops: int = 0
    wrong_path_fetched: int = 0
    wrong_path_renamed: int = 0
    flushes: int = 0              # policy-initiated thread flushes (Flush+)
    stalled_thread_cycles: int = 0  # cycles a policy gated a thread's rename
    # workload imbalance probe (Figure 5): [port_class][bucket] -> cycles;
    # bucket 1 = the other cluster had a free compatible port
    imbalance: dict[int, list[int]] = field(default_factory=dict)
    imbalance_cycles: int = 0     # cycles where any ready uop went unissued
    issue_cycles: int = 0         # cycles where at least one uop issued
    # memory-side summary (filled in finalize)
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.committed_per_thread:
            self.committed_per_thread = [0] * self.num_threads
        if not self.rename_stall_cycles:
            self.rename_stall_cycles = {k: 0 for k in STALL_CAUSES}
        if not self.imbalance:
            self.imbalance = {pc: [0, 0] for pc in IMBALANCE_CLASSES}

    # -- derived ----------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def thread_ipc(self, tid: int) -> float:
        return self.committed_per_thread[tid] / self.cycles if self.cycles else 0.0

    @property
    def copies_per_committed(self) -> float:
        return self.copies_arrived / self.committed if self.committed else 0.0

    @property
    def iq_stalls_per_committed(self) -> float:
        return self.iq_stalls / self.committed if self.committed else 0.0

    def imbalance_breakdown(self) -> dict[str, float]:
        """Figure 5 sections: label -> share (all six sum to 1.0)."""
        total = sum(sum(buckets) for buckets in self.imbalance.values())
        out: dict[str, float] = {}
        for pclass, label in IMBALANCE_CLASSES.items():
            b0, b1 = self.imbalance[pclass]
            out[f"0 {label}"] = b0 / total if total else 0.0
            out[f"1 {label}"] = b1 / total if total else 0.0
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dump (benchmark harness output): every counter
        field, so any comparison of dumps compares every counter."""
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "committed_per_thread": list(self.committed_per_thread),
            "ipc": self.ipc,
            "renamed": self.renamed,
            "fetched": self.fetched,
            "issued": self.issued,
            "copies_renamed": self.copies_renamed,
            "copies_arrived": self.copies_arrived,
            "copies_per_committed": self.copies_per_committed,
            "iq_stalls_per_committed": self.iq_stalls_per_committed,
            "iq_stalls": self.iq_stalls,
            "iq_block_stalls": self.iq_block_stalls,
            "rename_stall_cycles": dict(self.rename_stall_cycles),
            "reg_stall_events": list(self.reg_stall_events),
            "mispredicts": self.mispredicts,
            "squashed_uops": self.squashed_uops,
            "wrong_path_fetched": self.wrong_path_fetched,
            "wrong_path_renamed": self.wrong_path_renamed,
            "flushes": self.flushes,
            "stalled_thread_cycles": self.stalled_thread_cycles,
            "imbalance": {str(k): list(v) for k, v in self.imbalance.items()},
            "imbalance_breakdown": self.imbalance_breakdown(),
            "imbalance_cycles": self.imbalance_cycles,
            "issue_cycles": self.issue_cycles,
            "extra": dict(self.extra),
        }
