"""Structure-of-arrays static trace metadata for the fast engines.

The reference interpreter derives everything about a uop from the
:class:`~repro.isa.Uop` object at the moment each stage touches it —
port class from ``PORT_CLASS_TABLE[uop.opclass]``, register class from
``dest < NUM_ARCH_INT``, fetch-group breaks from ``opclass``/flag
fields.  All of that is a pure function of the *trace record*, so the
fast backends precompute it once per trace with bulk NumPy column
operations:

* :class:`TraceSoA` — the per-record column the ``vectorized`` fetch
  loop reads, cached on the :class:`~repro.trace.trace.Trace` so
  repeated simulations (sweeps, benchmarks) build it once.  Covers only
  the right path; wrong-path uops are synthesized on the fly.
* :func:`static_arrays` — the columns the whole-loop compiled engine
  (:mod:`repro.core.cloop`) hands its C kernel in bulk, as numpy arrays
  it copies and drops.
"""

from __future__ import annotations

import numpy as np

from repro.isa import NUM_ARCH_INT, UopClass
from repro.isa.uops import PORT_CLASS_TABLE
from repro.trace.trace import Trace

_BRANCH = int(UopClass.BRANCH)


class TraceSoA:
    """Per-record static metadata of one trace.

    ``plain``
        True where fetch needs none of its slow paths: not a branch, not
        an MROM complex op, not an indirect target — the fetch loop
        appends these uops with zero per-record control flow.

    The column is a tuple: it is read-only, indexes as fast as a list,
    and CPython's cyclic collector stops tracking a tuple of ints after
    the first collection that sees it.  A list would stay tracked for
    the trace's lifetime, and every full collection would walk its slots
    (millions of them once a workload pool is loaded).
    """

    __slots__ = ("plain",)

    def __init__(self, trace: Trace) -> None:
        self.plain = tuple((~_slow(trace.records)).tolist())


def _slow(rec: np.ndarray) -> np.ndarray:
    """Records that take a fetch slow path (branch, MROM or indirect)."""
    return (
        (rec["opclass"] == _BRANCH)
        | (rec["complex_op"] != 0)
        | (rec["indirect"] != 0)
    )


def static_arrays(rec: np.ndarray) -> tuple[np.ndarray, ...]:
    """Static per-record columns of ``rec`` as numpy arrays, in the
    order ``(plain, next_slow, dest_class, port_class)``.

    ``plain`` is :attr:`TraceSoA.plain`; ``next_slow`` is, for each
    index, the first index at or after it whose record is not plain
    (``n`` when there is none); ``dest_class`` is the register class the
    destination would allocate (0=int, 1=fp; meaningless where ``dest``
    is ``NO_REG``); ``port_class`` is ``PORT_CLASS_TABLE`` applied in
    bulk."""
    n = len(rec)
    opclass = rec["opclass"]
    slow = _slow(rec)
    idx = np.where(slow, np.arange(n, dtype=np.int64), n)
    return (
        ~slow,
        np.minimum.accumulate(idx[::-1])[::-1],
        (rec["dest"] >= NUM_ARCH_INT).astype(np.uint8),
        np.asarray(PORT_CLASS_TABLE, dtype=np.uint8)[opclass],
    )


def trace_soa(trace: Trace) -> TraceSoA:
    """The (cached) :class:`TraceSoA` of ``trace``."""
    soa = getattr(trace, "_soa", None)
    if soa is None:
        soa = TraceSoA(trace)
        trace._soa = soa
    return soa


def thread_mem_lines(trace: Trace, mem_offset: int) -> tuple[int, ...]:
    """Per-record effective cache-line addresses for one hardware thread.

    The reference fetch path computes ``mem_line + (tid << 33)`` per
    fetched uop; this folds the thread's address-space offset in bulk.
    Not cached on the trace: the offset is per *thread*, and the same
    trace may back several threads.  A tuple, like the cached column,
    so the collector stops tracking it.
    """
    return tuple((trace.records["mem_line"] + mem_offset).tolist())
