"""Trace container and on-disk format.

A :class:`Trace` is the committed-path micro-op stream of one thread, stored
as a numpy structured array (one record per uop).  The simulator's fetch
stage materializes :class:`repro.isa.Uop` objects lazily from these records;
storing the whole trace as objects would cost ~10x the memory and defeat the
cache-friendly sequential scan the fetch unit performs.

Traces can be saved/loaded with :meth:`Trace.save` / :meth:`Trace.load`
(``.npz`` files), which the experiment harness uses to cache generated
workload pools between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.isa import NO_REG, UopClass

#: Per-uop record layout.  ``opclass`` indexes :class:`repro.isa.UopClass`;
#: ``dest``/``src1``/``src2`` are architectural register ids (or ``NO_REG``);
#: ``pc`` is a synthetic program counter (uop granularity); ``taken`` is the
#: branch outcome; ``mem_line`` is the cache-line-aligned address of loads
#: and stores.
TRACE_DTYPE = np.dtype(
    [
        ("opclass", np.uint8),
        ("dest", np.int16),
        ("src1", np.int16),
        ("src2", np.int16),
        ("pc", np.int64),
        ("taken", np.uint8),
        ("mem_line", np.int64),
        # optional features (all zero unless the profile enables them):
        ("indirect", np.uint8),   # multi-target (indirect) branch
        ("target", np.int32),     # dynamic target id of an indirect branch
        ("complex_op", np.uint8), # MROM-decoded complex macro-op
    ]
)


class TraceColumns(NamedTuple):
    """The trace's fields as plain-Python column tuples.

    The fetch stage reads one record per fetched uop; indexing a numpy
    structured array row-by-row costs a scalar-boxing allocation per field,
    which profiles as one of the cycle loop's top costs.  Converting each
    column to a plain sequence once per trace makes those reads simple
    indexing.  Values are identical to the records (ints/bools), so
    simulation results are unchanged.

    The columns are tuples, not lists: they are read-only, indexing a
    tuple costs the same as indexing a list, and CPython's cyclic
    collector stops tracking a tuple of ints after the first collection
    that sees it.  List columns stay tracked for the trace's lifetime, so
    every full collection would walk their slots, millions of them once a
    workload pool is loaded.
    """

    opclass: tuple[int, ...]
    dest: tuple[int, ...]
    src1: tuple[int, ...]
    src2: tuple[int, ...]
    pc: tuple[int, ...]
    taken: tuple[bool, ...]
    mem_line: tuple[int, ...]
    indirect: tuple[bool, ...]
    target: tuple[int, ...]
    complex_op: tuple[bool, ...]


@dataclass(frozen=True)
class TraceStats:
    """Static mix statistics of a trace (useful for tests and reporting)."""

    n_uops: int
    frac_load: float
    frac_store: float
    frac_fp: float
    frac_branch: float
    frac_taken: float
    n_static_branches: int
    working_set_lines: int


class Trace:
    """A single thread's committed micro-op stream plus identity metadata."""

    def __init__(
        self,
        records: np.ndarray,
        name: str = "anon",
        category: str = "synthetic",
        kind: str = "ilp",
        seed: int = 0,
    ) -> None:
        if records.dtype != TRACE_DTYPE:
            raise TypeError(f"trace records must have dtype {TRACE_DTYPE}")
        self.records = records
        self.name = name
        self.category = category
        self.kind = kind  # "ilp" or "mem" (Table 2 trace classification)
        self.seed = seed
        self._columns: TraceColumns | None = None

    def __len__(self) -> int:
        return len(self.records)

    def columns(self) -> TraceColumns:
        """Plain-tuple copies of the record fields (built once, then reused)."""
        if self._columns is None:
            rec = self.records
            self._columns = TraceColumns(
                opclass=tuple(rec["opclass"].tolist()),
                dest=tuple(rec["dest"].tolist()),
                src1=tuple(rec["src1"].tolist()),
                src2=tuple(rec["src2"].tolist()),
                pc=tuple(rec["pc"].tolist()),
                taken=tuple(rec["taken"].astype(bool).tolist()),
                mem_line=tuple(rec["mem_line"].tolist()),
                indirect=tuple(rec["indirect"].astype(bool).tolist()),
                target=tuple(rec["target"].tolist()),
                complex_op=tuple(rec["complex_op"].astype(bool).tolist()),
            )
        return self._columns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Trace {self.name} ({self.category}/{self.kind}) {len(self)} uops>"

    # -- analysis ---------------------------------------------------------

    def stats(self) -> TraceStats:
        """Compute the static mix of the trace."""
        rec = self.records
        n = len(rec)
        if n == 0:
            return TraceStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
        op = rec["opclass"]
        is_branch = op == int(UopClass.BRANCH)
        is_load = op == int(UopClass.LOAD)
        is_store = op == int(UopClass.STORE)
        is_fp = (op == int(UopClass.FP)) | (op == int(UopClass.SIMD))
        n_branch = int(is_branch.sum())
        mem_mask = is_load | is_store
        return TraceStats(
            n_uops=n,
            frac_load=float(is_load.sum()) / n,
            frac_store=float(is_store.sum()) / n,
            frac_fp=float(is_fp.sum()) / n,
            frac_branch=n_branch / n,
            frac_taken=(float(rec["taken"][is_branch].sum()) / n_branch)
            if n_branch
            else 0.0,
            n_static_branches=int(len(np.unique(rec["pc"][is_branch]))),
            working_set_lines=int(len(np.unique(rec["mem_line"][mem_mask]))),
        )

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation."""
        rec = self.records
        op = rec["opclass"]
        if len(op) and (op.max() > int(UopClass.COPY)):
            raise ValueError("opclass out of range")
        if np.any(op == int(UopClass.COPY)):
            raise ValueError("traces must not contain COPY uops (rename-generated)")
        from repro.isa import NUM_ARCH_REGS

        for field in ("dest", "src1", "src2"):
            vals = rec[field]
            bad = (vals != NO_REG) & ((vals < 0) | (vals >= NUM_ARCH_REGS))
            if np.any(bad):
                raise ValueError(f"{field} contains out-of-range register ids")
        is_branch_op = op == int(UopClass.BRANCH)
        if np.any(rec["indirect"].astype(bool) & ~is_branch_op):
            raise ValueError("indirect flag on a non-branch uop")
        if np.any((rec["target"] != 0) & ~rec["indirect"].astype(bool)):
            raise ValueError("target set on a non-indirect uop")
        # stores and branches must not define a register
        defining = rec["dest"] != NO_REG
        if np.any(defining & (op == int(UopClass.STORE))):
            raise ValueError("store uop with destination register")
        if np.any(defining & (op == int(UopClass.BRANCH))):
            raise ValueError("branch uop with destination register")
        mem = (op == int(UopClass.LOAD)) | (op == int(UopClass.STORE))
        if np.any(rec["mem_line"][mem] < 0):
            raise ValueError("negative memory line address")

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize to an ``.npz`` file."""
        np.savez_compressed(
            path,
            records=self.records,
            meta=np.array(
                [self.name, self.category, self.kind, str(self.seed)], dtype=object
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(path, allow_pickle=True) as data:
            name, category, kind, seed = data["meta"]
            return cls(
                records=data["records"],
                name=str(name),
                category=str(category),
                kind=str(kind),
                seed=int(seed),
            )
