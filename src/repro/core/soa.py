"""Structure-of-arrays pipeline state for the batched engines.

The reference interpreter derives everything about a uop from the
:class:`~repro.isa.Uop` object at the moment each stage touches it —
port class from ``PORT_CLASS_TABLE[uop.opclass]``, register class from
``dest < NUM_ARCH_INT``, fetch-group breaks from ``opclass``/flag
fields.  All of that is a pure function of the *trace record*, so the
batched backends precompute it once per trace with bulk NumPy column
operations and read flat Python sequences inside their cycle loops:
tuples for the static per-record columns, lists for the mutable
per-slot ones (both index at the same speed in CPython).

Two layers live here:

* :class:`TraceSoA` — immutable per-record static metadata, indexed by
  trace sequence number, cached on the :class:`~repro.trace.trace.Trace`
  so repeated simulations (sweeps, benchmarks) build it once.  Covers
  only the right path; wrong-path uops are synthesized on the fly.
* :class:`PipelineSoA` — the *dynamic* in-flight uop state of one
  simulation as a recycled slot pool of parallel columns.  The ``numpy``
  and ``compiled`` backends hold no :class:`~repro.isa.Uop` objects at
  all on their fast path: a uop is an integer slot, its fields are
  ``column[slot]`` reads, and age-ordered structures (ready heaps,
  deferred lists, the event wheel, the interconnect) store packed
  ``(age << SLOT_BITS) | slot`` keys so a recycled slot can never be
  mistaken for its previous occupant (lazy deletion validates the age).

Columns whose consumers include the optional C select kernel (issue
flags, squash flags, port classes) are ``bytearray``s — as fast as lists
to index from CPython, and directly shareable with C via
``ffi.from_buffer`` without a copy.  The ``age`` column is additionally
mirrored into a cffi ``int64`` buffer when a kernel is attached (built
and rebuilt by the kernel's ``rebind``, kept in sync by the engine).

These columns are also the marshalling layout of the whole-loop
compiled engine (:mod:`repro.core.cloop`): it derives the same
:class:`TraceSoA` columns in bulk (:func:`static_arrays`), hands them to
its C kernel once per context and runs the entire cycle loop over the
same slot-pool representation, so the data model defined here is
shared by every batched backend, interpreted or compiled.
"""

from __future__ import annotations

import numpy as np

from repro.isa import NUM_ARCH_INT, UopClass
from repro.isa.uops import PORT_CLASS_TABLE
from repro.trace.trace import Trace

_BRANCH = int(UopClass.BRANCH)
_LOAD = int(UopClass.LOAD)
_STORE = int(UopClass.STORE)

#: bits of a packed reference key reserved for the slot index; the high
#: bits carry the uop age, so keys sort by age and decode to (age, slot)
SLOT_BITS = 20
SLOT_MASK = (1 << SLOT_BITS) - 1
#: hard ceiling on pool size implied by the key layout
MAX_SLOTS = 1 << SLOT_BITS


class TraceSoA:
    """Per-record static metadata columns of one trace.

    ``plain``
        True where fetch needs none of its slow paths: not a branch, not
        an MROM complex op, not an indirect target — the fetch loop
        appends these uops with zero per-record control flow.
    ``next_slow``
        for each index, the first index at or after it whose record is
        *not* plain (``n`` when no such record exists).  Lets the slot
        engines append a whole plain run to the fetch queue as one
        ``deque.extend(range(...))`` instead of a per-record loop.
    ``is_mem``
        loads and stores (MOB-allocating classes).
    ``dest_class``
        register class the destination would allocate (0=int, 1=fp;
        meaningless where ``dest`` is ``NO_REG``).
    ``port_class``
        issue-port class per record (``PORT_CLASS_TABLE`` applied in
        bulk).

    Every column is a tuple: it is read-only, indexes as fast as a list,
    and CPython's cyclic collector stops tracking a tuple of ints after
    the first collection that sees it.  Lists would stay tracked for the
    trace's lifetime, and every full collection would walk their slots
    (millions of them once a workload pool is loaded).
    """

    __slots__ = ("n", "plain", "next_slow", "is_mem", "dest_class", "port_class")

    def __init__(self, trace: Trace) -> None:
        rec = trace.records
        self.n = len(rec)
        (
            self.plain,
            self.next_slow,
            self.is_mem,
            self.dest_class,
            self.port_class,
        ) = (tuple(col.tolist()) for col in static_arrays(rec))


def static_arrays(rec: np.ndarray) -> tuple[np.ndarray, ...]:
    """The :class:`TraceSoA` columns of ``rec`` as numpy arrays, in the
    order ``(plain, next_slow, is_mem, dest_class, port_class)``.

    Shared by :class:`TraceSoA` and the C kernel's bulk marshal
    (:mod:`repro.core.cloop`), so both derive the same values."""
    n = len(rec)
    opclass = rec["opclass"]
    slow = (opclass == _BRANCH) | (rec["complex_op"] != 0) | (rec["indirect"] != 0)
    idx = np.where(slow, np.arange(n, dtype=np.int64), n)
    return (
        ~slow,
        np.minimum.accumulate(idx[::-1])[::-1],
        (opclass == _LOAD) | (opclass == _STORE),
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
    trace may back several threads.  A tuple, like the cached columns,
    so the collector stops tracking it.
    """
    return tuple((trace.records["mem_line"] + mem_offset).tolist())


def trace_latencies(trace: Trace, latency_table) -> tuple[int, ...]:
    """Per-record base execution latency (``latency_table[opclass]`` in
    bulk).  Config-dependent, so cached by the engine, not the trace."""
    return tuple(
        np.asarray(latency_table, dtype=np.int64)[trace.records["opclass"]]
        .tolist()
    )


class PipelineSoA:
    """Recycled slot pool holding every in-flight uop of one simulation.

    One slot is one uop from fetch until commit or squash.  Static fields
    are written at fetch (bulk-precomputed columns where the record is on
    the right path), dynamic fields at rename/dispatch.  Lists hold the
    scalar-hot integer columns; ``bytearray`` holds the flag/class
    columns the optional C select kernel also reads.

    Slot lifetime discipline (what makes recycling sound):

    * slots are freed at commit (no lazy references can remain — an uop
      only commits after its event-wheel entry popped, and its single
      ready-structure entry popped when it issued) and at squash;
    * structures that drop entries lazily (ready heaps, deferred lists,
      the event wheel, the interconnect) store packed
      ``(age << SLOT_BITS) | slot`` keys.  ``alloc`` resets ``age`` to
      ``-1`` and rename assigns a globally unique age, so a stale key
      never validates against a recycled slot (``age[slot] != key_age``);
      a freed-but-not-yet-recycled slot still carries ``squashed == 1``;
    * the rename-stall memo survives squashes via the per-slot ``gen``
      counter, bumped on every allocation.
    """

    __slots__ = (
        "capacity",
        "free_slots",
        # -- static per-uop fields (written at fetch / copy creation)
        "opclass",
        "dest",
        "src1",
        "src2",
        "seq",
        "mem_line",
        "lat",
        "dest_class",
        "pcls",
        "wrong_path",
        "tid",
        # -- dynamic per-uop fields (rename/dispatch/issue/writeback)
        "age",
        "gen",
        "cluster",
        "pref",
        "phys_dest",
        "prev_phys",
        "prev_phys_cl",
        "prev_replica",
        "wait_count",
        "mob_index",
        "wait0",
        "wait1",
        "issued",
        "squashed",
        "done",
        "misp",
        "orphan",
        # -- register waiter lists: [cluster][regclass] -> {phys: [slot]}
        "waiters",
        # -- optional C-kernel mirror of ``age`` (int64, None when pure)
        "cages",
    )

    def __init__(self, capacity: int) -> None:
        if capacity > MAX_SLOTS:
            raise ValueError(
                f"pipeline pool of {capacity} slots exceeds the "
                f"{MAX_SLOTS}-slot packed-key limit"
            )
        self.capacity = capacity
        # LIFO recycling keeps the working set of slots small and cached
        self.free_slots = list(range(capacity - 1, -1, -1))
        zeros = [0] * capacity
        self.opclass = list(zeros)
        self.dest = list(zeros)
        self.src1 = list(zeros)
        self.src2 = list(zeros)
        self.seq = list(zeros)
        self.mem_line = list(zeros)
        self.lat = list(zeros)
        self.tid = list(zeros)
        self.dest_class = bytearray(capacity)
        self.pcls = bytearray(capacity)
        self.wrong_path = bytearray(capacity)
        self.age = [-1] * capacity
        self.gen = list(zeros)
        self.cluster = list(zeros)
        self.pref = list(zeros)
        self.phys_dest = list(zeros)
        self.prev_phys = list(zeros)
        self.prev_phys_cl = list(zeros)
        self.prev_replica = list(zeros)
        self.wait_count = list(zeros)
        self.mob_index = [-1] * capacity
        self.wait0 = [-1] * capacity
        self.wait1 = [-1] * capacity
        self.issued = bytearray(capacity)
        self.squashed = bytearray(capacity)
        self.done = bytearray(capacity)
        self.misp = bytearray(capacity)
        # a copy uop retired from its thread's in-flight list before its
        # inter-cluster transfer delivered; the slot is freed at delivery
        self.orphan = bytearray(capacity)
        self.waiters = (({}, {}), ({}, {}))
        self.cages = None

    def grow(self) -> None:
        """Double the pool (unbounded machines / deep speculation only).

        Any attached C kernel must re-derive its buffer pointers after a
        grow (the flag bytearrays are reallocated, not extended, because
        a pinned ``from_buffer`` view forbids in-place resize) — the
        engine calls its kernel's ``rebind`` after calling this.
        """
        old = self.capacity
        new = old * 2
        if new > MAX_SLOTS:
            raise RuntimeError(
                f"pipeline pool cannot grow past {MAX_SLOTS} slots"
            )
        self.capacity = new
        self.free_slots.extend(range(new - 1, old - 1, -1))
        extra = new - old
        zeros = [0] * extra
        for name in (
            "opclass", "dest", "src1", "src2", "seq", "mem_line", "lat",
            "tid", "gen", "cluster", "pref", "phys_dest", "prev_phys",
            "prev_phys_cl", "prev_replica", "wait_count",
        ):
            getattr(self, name).extend(zeros)
        self.age.extend([-1] * extra)
        self.mob_index.extend([-1] * extra)
        self.wait0.extend([-1] * extra)
        self.wait1.extend([-1] * extra)
        for name in ("dest_class", "pcls", "wrong_path", "issued",
                     "squashed", "done", "misp", "orphan"):
            # reallocate: extend() would raise if a C view pins the buffer
            setattr(self, name, getattr(self, name) + bytes(extra))
        # ``cages`` (if attached) is NOT regrown here: the kernel's
        # rebind() rebuilds it from the authoritative ``age`` column.

    def live_slots(self) -> int:
        """Slots currently allocated (tests/diagnostics)."""
        return self.capacity - len(self.free_slots)
