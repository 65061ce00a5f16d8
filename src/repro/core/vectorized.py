"""Flattened structure-of-arrays cycle engine (the ``vectorized`` backend).

Semantically this module defines *nothing*: the machine is specified by
the reference interpreter in :mod:`repro.core.processor`, and this
engine must produce bit-identical statistics and telemetry for every
policy (enforced by ``tests/core/test_backend_identity.py``).  Like the
reference, it steps every cycle.  What it changes is how the
interpreter's inner loop is executed:

* **one monolithic run loop** (:meth:`VectorizedProcessor.run_loop`)
  replaces the per-cycle ``step``/stage-method call tree.
  Every hot object (stats slots, issue-queue heaps, register-file free
  lists and ready bytearrays, rename-table columns, the event wheel) is
  bound to a local exactly once per run, so the per-cycle cost is list
  indexing instead of repeated attribute chains and method dispatch;
* **structure-of-arrays trace metadata** (:mod:`repro.core.soa`):
  fetch-group classification and effective memory lines are precomputed
  in bulk with NumPy and consumed as flat per-record arrays;
* **resolved policy hooks**: hooks a policy leaves as the base-class
  no-op are resolved to ``None`` at construction and skipped without a
  call (the reference pays a dynamic dispatch per event);
* **inlined select/arbitrate/rename/commit**: the per-uop bodies of the
  reference stage methods are transcribed here operation for operation
  — same visitation order, same counter updates — so
  identity holds by construction.  Rare paths (mispredict resolution,
  squash walks, policy flushes, copy generation, unbounded register
  growth) call straight back into the reference implementation.

The engine specializes the model invariant the reference constructor
already enforces — exactly two clusters — while staying generic over
thread count, policies, steering ablations, telemetry and stop modes.
External callers can still single-step a :class:`VectorizedProcessor`
via the inherited :meth:`~repro.core.processor.Processor.step`; only
:meth:`run_loop` (the path ``run_simulation`` drives) is accelerated.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.processor import (
    _EMPTY_EXCLUDE,
    _NO_PASSED,
    _WATCHDOG_CYCLES,
    DeadlockError,
    Processor,
)
from repro.core.soa import thread_mem_lines, trace_soa
from repro.frontend.steering import Steering
from repro.isa import NUM_ARCH_INT, Uop
from repro.isa.uops import PORT_CLASS_TABLE
from repro.policies.base import ResourcePolicy
from repro.policies.icount import IcountPolicy

#: plain-int uop classes (kept in sync with repro.core.processor)
_LOAD = 4
_STORE = 5
_BRANCH = 6
_COPY = 7

#: sentinels (see repro.backend.regfile / repro.isa)
_READY_EVERYWHERE = -2
_NO_REG = -1

#: hooks resolved to ``None`` when a policy keeps the base-class no-op
_HOOK_NAMES = (
    "on_rename",
    "on_issue",
    "on_commit",
    "on_reg_alloc",
    "on_reg_free",
    "on_reg_stall",
    "on_l2_miss",
    "on_l2_fill",
    "on_cycle",
    "on_squash",
)


def make_mem_access(hier):
    """Build the flattened ``MemoryHierarchy.access`` closure for one run.

    Operation-for-operation transcription (TLB/L1/L2 LRU updates,
    counters, bus arbitration, fill coalescing); returns
    ``(latency, l2_miss)``.  Loads use the returned pair, stores ignore
    it — ``access`` never reads its ``is_store`` flag, so one closure
    serves both.
    """
    _dtlb = hier.dtlb

    def mem_access(
        line,
        now,
        hier=hier,
        l1=hier.l1,
        l2=hier.l2,
        dstore=_dtlb._store,
        d_sets=_dtlb._store._sets,
        d_n=_dtlb._store.num_sets,
        d_a=_dtlb._store.assoc,
        d_lpp=_dtlb._lines_per_page,
        d_miss=_dtlb.miss_latency,
        l1_sets=hier.l1._sets,
        l1_n=hier.l1.num_sets,
        l1_a=hier.l1.assoc,
        l2_sets=hier.l2._sets,
        l2_n=hier.l2.num_sets,
        l2_a=hier.l2.assoc,
        l1_lat=hier.config.l1.hit_latency,
        l2_lat=hier.config.l2.hit_latency,
        m_lat=hier.config.memory_latency,
        bus=hier._bus_free,
        infl_fills=hier._inflight_fills,
    ):
        if len(infl_fills) > 64:
            for ln in [ln for ln, tt in infl_fills.items() if tt <= now]:
                del infl_fills[ln]
        page = line // d_lpp
        ts = d_sets[page % d_n]
        if page in ts:
            if ts[-1] != page:
                ts.remove(page)
                ts.append(page)
            dstore.hits += 1
            lat = l1_lat
        else:
            dstore.misses += 1
            if len(ts) >= d_a:
                del ts[0]
                dstore.evictions += 1
            ts.append(page)
            lat = l1_lat + d_miss
        fill_done = infl_fills.get(line)
        cs = l1_sets[line % l1_n]
        if fill_done is not None and fill_done > now:
            hier.coalesced_misses += 1
            if line in cs:
                if cs[-1] != line:
                    cs.remove(line)
                    cs.append(line)
                l1.hits += 1
            else:
                l1.misses += 1
                if len(cs) >= l1_a:
                    del cs[0]
                    l1.evictions += 1
                cs.append(line)
            rem = fill_done - now
            return (rem if rem > lat else lat), False
        if line in cs:
            if cs[-1] != line:
                cs.remove(line)
                cs.append(line)
            l1.hits += 1
            return lat, False
        l1.misses += 1
        if len(cs) >= l1_a:
            del cs[0]
            l1.evictions += 1
        cs.append(line)
        if len(bus) == 2:
            bi = 0 if bus[0] <= bus[1] else 1
        else:
            bi = min(range(len(bus)), key=bus.__getitem__)
        wait = bus[bi] - now
        if wait < 0:
            wait = 0
        bus[bi] = now + wait + 1
        hier.bus_wait_cycles += wait
        lat += wait
        cs2 = l2_sets[line % l2_n]
        if line in cs2:
            if cs2[-1] != line:
                cs2.remove(line)
                cs2.append(line)
            l2.hits += 1
            lat += l2_lat
            infl_fills[line] = now + lat
            return lat, False
        l2.misses += 1
        if len(cs2) >= l2_a:
            del cs2[0]
            l2.evictions += 1
        cs2.append(line)
        lat += l2_lat + m_lat
        infl_fills[line] = now + lat
        return lat, True

    return mem_access


def make_tc_lookup(tc):
    """Build the flattened ``TraceCache.lookup`` closure (ITLB + TC line
    access) for one run."""
    _itlb = tc._itlb

    def tc_lookup(
        pc,
        tc=tc,
        istore=_itlb._store,
        i_sets=_itlb._store._sets,
        i_n=_itlb._store.num_sets,
        i_a=_itlb._store.assoc,
        i_lpp=_itlb._lines_per_page,
        i_miss=_itlb.miss_latency,
        tlines=tc._lines,
        t_sets=tc._lines._sets,
        t_n=tc._lines.num_sets,
        t_a=tc._lines.assoc,
        line_uops=tc.line_uops,
        fill_lat=tc.fill_latency,
    ):
        page = pc // i_lpp
        ts = i_sets[page % i_n]
        if page in ts:
            if ts[-1] != page:
                ts.remove(page)
                ts.append(page)
            istore.hits += 1
            itlb_lat = 0
        else:
            istore.misses += 1
            if len(ts) >= i_a:
                del ts[0]
                istore.evictions += 1
            ts.append(page)
            itlb_lat = i_miss
        line = pc // line_uops
        ls = t_sets[line % t_n]
        if line in ls:
            if ls[-1] != line:
                ls.remove(line)
                ls.append(line)
            tlines.hits += 1
            tc.hits += 1
            return itlb_lat
        tlines.misses += 1
        if len(ls) >= t_a:
            del ls[0]
            tlines.evictions += 1
        ls.append(line)
        tc.misses += 1
        return fill_lat + itlb_lat

    return tc_lookup


class VectorizedProcessor(Processor):
    """Processor whose :meth:`run_loop` is the flattened SoA engine."""

    backend_name = "vectorized"

    def __init__(self, config, policy, traces, steering=None, telemetry=None):
        super().__init__(
            config, policy, traces, steering=steering, telemetry=telemetry
        )
        # -- resolved policy hooks (None = base-class no-op, skip the call)
        base = ResourcePolicy
        cls = type(policy)
        self._hooks = {
            name: (
                getattr(policy, name)
                if getattr(cls, name) is not getattr(base, name)
                else None
            )
            for name in _HOOK_NAMES
        }
        # -- inlinable fast paths, detected by method identity (ablation
        #    subclasses that override fall back to the dynamic call)
        self._icount_select = cls.rename_select is IcountPolicy.rename_select
        self._steer_inline = (
            type(self.steering).preferred_cluster is Steering.preferred_cluster
        )
        # -- SoA static trace metadata, by tid (none on a machine whose
        #    fetch runs elsewhere: see ``python_resident``)
        self._fetch_cols = []
        if not self.python_resident:
            return
        for t in self.threads:
            c = t.cols
            soa = trace_soa(t.trace)
            self._fetch_cols.append(
                (
                    c.opclass,
                    c.dest,
                    c.src1,
                    c.src2,
                    c.pc,
                    c.taken,
                    thread_mem_lines(t.trace, t.mem_offset),
                    c.indirect,
                    c.target,
                    c.complex_op,
                    soa.plain,
                )
            )

    # ------------------------------------------------------------------ #
    # squash walk (flattened transcription of the reference)             #
    # ------------------------------------------------------------------ #

    def _squash_younger(self, thread, keep_age, rewind):
        # Operation-for-operation transcription of
        # ``Processor._squash_younger`` with the per-uop helper calls
        # (``iq.release``, ``undo_define``, ``_free_reg``, no-op policy
        # hooks) flattened; same visitation order, same counter totals.
        table = thread.rename_table
        tcl = table._cluster
        tph = table._phys
        trp = table._replica
        tid = thread.tid
        clusters = self.clusters
        mob = self.mob
        hooks = self._hooks
        on_squash_h = hooks["on_squash"]
        on_reg_free_h = hooks["on_reg_free"]
        min_seq = None
        infl = thread.inflight
        n_squashed = 0
        while infl and infl[-1].age > keep_age:
            uop = infl.pop()
            uop.squashed = True
            n_squashed += 1
            if not uop.issued:
                iq = clusters[uop.cluster].iq
                iq.occupancy -= 1
                iq.per_thread[tid] -= 1
                thread.icount -= 1
                if uop.waits:
                    for wcl, wk, wphys in uop.waits:
                        clusters[wcl].regs[wk].drop_waiter(wphys, uop)
            if uop.is_copy:
                dest = uop.dest
                phys = uop.phys_dest
                if trp[dest] == phys:
                    trp[dest] = _NO_REG
                f = clusters[uop.preferred_cluster].regs.files[uop.dest_class]
                f._ready[phys] = 0
                if f._waiters.pop(phys, None):
                    raise RuntimeError(
                        f"freeing phys reg {phys} with live waiters"
                    )
                f._free.append(phys)
                f.in_use -= 1
                if on_reg_free_h is not None:
                    on_reg_free_h(tid, uop.dest_class, uop.preferred_cluster)
            else:
                dest = uop.dest
                if dest != _NO_REG:
                    tcl[dest] = uop.prev_phys_cluster
                    tph[dest] = uop.prev_phys
                    trp[dest] = uop.prev_replica
                    phys = uop.phys_dest
                    f = clusters[uop.cluster].regs.files[uop.dest_class]
                    f._ready[phys] = 0
                    if f._waiters.pop(phys, None):
                        raise RuntimeError(
                            f"freeing phys reg {phys} with live waiters"
                        )
                    f._free.append(phys)
                    f.in_use -= 1
                    if on_reg_free_h is not None:
                        on_reg_free_h(tid, uop.dest_class, uop.cluster)
                if uop.is_mem:
                    mob.release(uop)
                if uop.mispredicted and not uop.wrong_path:
                    thread.wrong_path = False
                if not uop.wrong_path and uop.seq >= 0:
                    min_seq = uop.seq if min_seq is None else min(min_seq, uop.seq)
            if on_squash_h is not None:
                on_squash_h(uop)
        self.stats.squashed_uops += n_squashed
        thread.rob.squash_younger_than(keep_age)
        for qu in thread.fetch_queue:
            if not qu.wrong_path and qu.seq >= 0:
                min_seq = qu.seq if min_seq is None else min(min_seq, qu.seq)
            if qu.mispredicted and not qu.wrong_path:
                thread.wrong_path = False
        thread.fetch_queue.clear()
        if min_seq is not None:
            if not rewind:
                raise AssertionError(
                    "right-path uops squashed by a branch resolution"
                )
            thread.cursor = min(thread.cursor, min_seq)

    # ------------------------------------------------------------------ #
    # the flattened engine                                               #
    # ------------------------------------------------------------------ #

    def run_loop(
        self,
        limit: int,
        stop: str = "first_done",
        commit_target: int | None = None,
    ) -> None:
        # ---- per-run local bindings (the whole point of this engine) ----
        s = self.stats
        cpt = s.committed_per_thread
        rsc = s.rename_stall_cycles
        rse = s.reg_stall_events
        imb = s.imbalance
        threads = self.threads
        n_threads = self._n_threads
        policy = self.policy
        tel = self.tel
        cl0, cl1 = self.clusters
        iq0, iq1 = cl0.iq, cl1.iq
        iq0_cap, iq1_cap = iq0.capacity, iq1.capacity
        files0, files1 = cl0.regs.files, cl1.regs.files
        files_by_cluster = (files0, files1)
        max_scan0, max_scan1 = self._max_scan
        events = self._events
        fills = self._fill_events
        ev_pop = events.pop
        fe_pop = fills.pop
        mob = self.mob
        mob_entries = self.mob._entries
        mob_per_thread = self.mob.per_thread
        hier = self.mem
        mem_access = make_mem_access(hier)

        icn = self.icn
        icn_pending = icn._pending
        icn_tick = icn.tick
        pred_update = self.predictor.update
        ipred_update = self.ipredictor.update
        tc = self.tc
        tc_lookup = make_tc_lookup(tc)

        latency_tbl = self._latency
        fetch_cols = self._fetch_cols
        fetch_width = self._fetch_width
        fq_cap = self._fetch_queue_entries
        commit_width = self._commit_width
        mrom_latency = self._mrom_latency
        model_wrong_path = self.config.model_wrong_path
        PCT = PORT_CLASS_TABLE
        _Uop = Uop
        _heappush = heappush
        _heappop = heappop
        hooks = self._hooks
        on_cycle_h = hooks["on_cycle"]
        on_commit_h = hooks["on_commit"]
        on_issue_h = hooks["on_issue"]
        on_reg_free_h = hooks["on_reg_free"]
        on_l2_miss_h = hooks["on_l2_miss"]
        on_l2_fill_h = hooks["on_l2_fill"]
        icount_sel = self._icount_select
        # rename-stage constants (the stage is fully inlined below)
        on_reg_stall_h = hooks["on_reg_stall"]
        on_reg_alloc_h = hooks["on_reg_alloc"]
        on_rename_h = hooks["on_rename"]
        clusters = self.clusters
        steering = self.steering
        steer_inline = self._steer_inline
        imb_threshold = steering.imbalance_threshold
        forced = self._forced_cluster
        dispatch_trivial = self._dispatch_trivial
        alloc_trivial = self._alloc_trivial
        rename_width = self._rename_width
        mob_capacity = mob.capacity
        num_int = NUM_ARCH_INT

        stop_first = stop == "first_done"
        stop_all = stop == "all_done"
        warmup = commit_target is not None

        # With no issue-time hooks, nothing can observe or mutate machine
        # state between "uop wins a port" and "uop starts executing", so
        # select and execute fuse into one scan (saves a list build + a
        # second pass per issued uop).  Any hook forces the reference's
        # two-phase order because it may flush mid-stage.
        fuse_issue = on_issue_h is None and on_l2_miss_h is None
        # commit round-robin orders, precomputed so the scan pays no modulo
        commit_orders = tuple(
            tuple(threads[(r + off) % n_threads] for off in range(n_threads))
            for r in range(n_threads)
        )

        cycle = self.cycle
        while cycle < limit:
            # ---- stop conditions, checked before each cycle like the
            #      reference run loop ----
            if warmup:
                if s.committed >= commit_target:
                    break
            elif stop_first:
                if self.finished_count > 0:
                    break
            elif stop_all:
                if self.finished_count >= n_threads:
                    break

            cycle += 1
            self.cycle = cycle
            if on_cycle_h is not None:
                on_cycle_h(cycle)

            # ================= commit =================
            committed = 0
            rr = self._commit_rr
            order = commit_orders[rr]
            progress = True
            while committed < commit_width and progress:
                progress = False
                for t in order:
                    if committed >= commit_width:
                        break
                    ents = t.rob._entries
                    if not ents:
                        continue
                    head = ents[0]
                    if not head.completed:
                        continue
                    # --- inlined _commit_uop ---
                    ents.popleft()
                    htid = head.tid
                    infl = t.inflight
                    age = head.age
                    while infl and infl[0].age <= age:
                        infl.popleft()
                    dest = head.dest
                    if dest != _NO_REG:
                        k = head.dest_class
                        pp = head.prev_phys
                        if pp >= 0:
                            pc_ = head.prev_phys_cluster
                            f = files_by_cluster[pc_][k]
                            f._ready[pp] = 0
                            w = f._waiters.pop(pp, None)
                            if w:
                                raise RuntimeError(
                                    f"freeing phys reg {pp} with {len(w)} live waiters"
                                )
                            f._free.append(pp)
                            f.in_use -= 1
                            if on_reg_free_h is not None:
                                on_reg_free_h(htid, k, pc_)
                        pr = head.prev_replica
                        if pr != _NO_REG:
                            oc = 1 - head.prev_phys_cluster
                            f = files_by_cluster[oc][k]
                            f._ready[pr] = 0
                            w = f._waiters.pop(pr, None)
                            if w:
                                raise RuntimeError(
                                    f"freeing phys reg {pr} with {len(w)} live waiters"
                                )
                            f._free.append(pr)
                            f.in_use -= 1
                            if on_reg_free_h is not None:
                                on_reg_free_h(htid, k, oc)
                    opc = head.opclass
                    if (opc == _LOAD or opc == _STORE) and head.mob_index >= 0:
                        mob.occupancy -= 1
                        mob_per_thread[htid] -= 1
                        ex_store = head.mob_index == 2
                        head.mob_index = -1
                        if ex_store:
                            lines = mob_entries[htid]
                            ml = head.mem_line
                            cnt = lines.get(ml, 0)
                            if cnt <= 1:
                                lines.pop(ml, None)
                            else:
                                lines[ml] = cnt - 1
                    t.committed += 1
                    cpt[htid] += 1
                    if (
                        not infl
                        and t.cursor >= t.n_records
                        and not t.fetch_queue
                        and not t.wrong_path
                    ):
                        self.finished_count += 1
                    if on_commit_h is not None:
                        on_commit_h(head)
                    committed += 1
                    progress = True
            self._commit_rr = (rr + 1) % n_threads
            if committed:
                self._last_commit_cycle = cycle
                s.committed += committed

            # ================= writeback =================
            wb = ev_pop(cycle, None)
            if wb is not None:
                for uop in wb:
                    if uop.squashed:
                        continue
                    if uop.opclass == _COPY:
                        # the copy read its source; value crosses a link
                        icn_pending.append(uop)
                        continue
                    uop.completed = True
                    if uop.dest != _NO_REG:
                        f = files_by_cluster[uop.cluster][uop.dest_class]
                        pd = uop.phys_dest
                        f._ready[pd] = 1
                        ws = f._waiters.pop(pd, None)
                        if ws:
                            for waiter in ws:
                                wc = waiter.wait_count - 1
                                waiter.wait_count = wc
                                if (
                                    wc == 0
                                    and not waiter.squashed
                                    and not waiter.issued
                                ):
                                    _heappush(
                                        (iq0 if waiter.cluster == 0 else iq1)._ready,
                                        (waiter.age, waiter),
                                    )
                    if uop.mispredicted and not uop.wrong_path:
                        self._resolve_mispredict(uop)
            fl = fe_pop(cycle, None)
            if fl:
                for tid in fl:
                    t = threads[tid]
                    t.l2_pending -= 1
                    if t.l2_pending == 0:
                        t.first_l2_miss_cycle = -1
                        if on_l2_fill_h is not None:
                            on_l2_fill_h(tid)

            # ================= copy delivery =================
            if icn_pending or icn._in_flight:
                arrived = icn_tick(cycle)
                if arrived:
                    for copy in arrived:
                        copy.completed = True
                        f = files_by_cluster[copy.preferred_cluster][copy.dest_class]
                        pd = copy.phys_dest
                        f._ready[pd] = 1
                        ws = f._waiters.pop(pd, None)
                        if ws:
                            for waiter in ws:
                                wc = waiter.wait_count - 1
                                waiter.wait_count = wc
                                if (
                                    wc == 0
                                    and not waiter.squashed
                                    and not waiter.issued
                                ):
                                    _heappush(
                                        (iq0 if waiter.cluster == 0 else iq1)._ready,
                                        (waiter.age, waiter),
                                    )
                        s.copies_arrived += 1

            # ================= issue =================
            c0b0 = c0b1 = c0b2 = c1b0 = c1b1 = c1b2 = False
            passed0 = passed1 = _NO_PASSED
            for ci in (0, 1):
                iq = iq0 if ci == 0 else iq1
                heap = iq._ready
                deferred = iq._deferred
                b0 = b1 = b2 = False
                passed = _NO_PASSED
                if heap or deferred:
                    # --- inlined IssueQueue.select + port arbitration ---
                    issued_list = []
                    passed_l = []
                    di = 0
                    dn = len(deferred)
                    scanned = 0
                    n_issued = 0
                    max_scan = max_scan0 if ci == 0 else max_scan1
                    while scanned < max_scan:
                        if di < dn:
                            duop = deferred[di]
                            if duop.squashed or duop.issued:
                                di += 1
                                continue
                            if heap and heap[0][0] < duop.age:
                                uop = heap[0][1]
                                _heappop(heap)
                                if uop.squashed or uop.issued:
                                    continue
                            else:
                                di += 1
                                uop = duop
                        elif heap:
                            uop = heap[0][1]
                            _heappop(heap)
                            if uop.squashed or uop.issued:
                                continue
                        else:
                            break
                        scanned += 1
                        pcls = PCT[uop.opclass]
                        if pcls == 2:
                            if b2:
                                claimed = False
                            else:
                                b2 = claimed = True
                        elif not b0:
                            b0 = claimed = True
                        elif not b1:
                            b1 = claimed = True
                        elif pcls == 0 and not b2:
                            b2 = claimed = True
                        else:
                            claimed = False
                        if not claimed:
                            passed_l.append(uop)
                        elif not fuse_issue:
                            issued_list.append(uop)
                        else:
                            # --- fused _start_execution (no hooks active) ---
                            uop.issued = True
                            tid = uop.tid
                            iq.per_thread[tid] -= 1
                            t = threads[tid]
                            t.icount -= 1
                            n_issued += 1
                            opc = uop.opclass
                            lat = latency_tbl[opc]
                            if opc == _LOAD:
                                if uop.mem_line in mob_entries[tid]:
                                    mob.forwards += 1
                                    lat += 1
                                else:
                                    alat, l2m = mem_access(uop.mem_line, cycle)
                                    lat += alat
                                    if l2m and not uop.wrong_path:
                                        uop.l2_miss = True
                                        if t.l2_pending == 0:
                                            t.first_l2_miss_cycle = cycle
                                        t.l2_pending += 1
                                        fk = cycle + lat
                                        lst = fills.get(fk)
                                        if lst is None:
                                            fills[fk] = [tid]
                                        else:
                                            lst.append(tid)
                            elif opc == _STORE:
                                mem_access(uop.mem_line, cycle)
                                uop.mob_index = 2
                                lines = mob_entries[tid]
                                ml = uop.mem_line
                                lines[ml] = lines.get(ml, 0) + 1
                            ek = cycle + lat
                            lst = events.get(ek)
                            if lst is None:
                                events[ek] = [uop]
                            else:
                                lst.append(uop)
                    if di or passed_l:
                        iq._deferred = passed_l + deferred[di:]
                    passed = passed_l
                    if fuse_issue:
                        if n_issued:
                            iq.occupancy -= n_issued
                            s.issued += n_issued
                            s.issue_cycles += 1
                    else:
                        # --- two-phase _start_execution (hooks may flush) ---
                        any_issued = False
                        for uop in issued_list:
                            if uop.squashed:
                                continue  # flushed by a policy event this cycle
                            uop.issued = True
                            iq.occupancy -= 1
                            pt = iq.per_thread
                            tid = uop.tid
                            pt[tid] -= 1
                            if iq.occupancy < 0 or pt[tid] < 0:
                                raise RuntimeError(
                                    "issue queue occupancy underflow"
                                )
                            t = threads[tid]
                            t.icount -= 1
                            if on_issue_h is not None:
                                on_issue_h(uop)
                            s.issued += 1
                            opc = uop.opclass
                            lat = latency_tbl[opc]
                            if opc == _LOAD:
                                if uop.mem_line in mob_entries[tid]:
                                    mob.forwards += 1
                                    lat += 1
                                else:
                                    alat, l2m = mem_access(uop.mem_line, cycle)
                                    lat += alat
                                    if l2m and not uop.wrong_path:
                                        uop.l2_miss = True
                                        if t.l2_pending == 0:
                                            t.first_l2_miss_cycle = cycle
                                        t.l2_pending += 1
                                        fk = cycle + lat
                                        lst = fills.get(fk)
                                        if lst is None:
                                            fills[fk] = [tid]
                                        else:
                                            lst.append(tid)
                                        if on_l2_miss_h is not None:
                                            on_l2_miss_h(uop)
                            elif opc == _STORE:
                                mem_access(uop.mem_line, cycle)
                                uop.mob_index = 2
                                lines = mob_entries[tid]
                                lines[uop.mem_line] = lines.get(uop.mem_line, 0) + 1
                            ek = cycle + lat
                            lst = events.get(ek)
                            if lst is None:
                                events[ek] = [uop]
                            else:
                                lst.append(uop)
                            any_issued = True
                        if any_issued:
                            s.issue_cycles += 1
                if ci == 0:
                    passed0 = passed
                    c0b0, c0b1, c0b2 = b0, b1, b2
                else:
                    passed1 = passed
                    c1b0, c1b1, c1b2 = b0, b1, b2

            # workload-imbalance probe (Figure 5), against final port state
            probed = False
            if passed0:
                seen = 0
                for uop in passed0:
                    if uop.squashed:
                        continue
                    pcls = PCT[uop.opclass]
                    bit = 1 << pcls
                    if seen & bit:
                        continue
                    seen |= bit
                    if pcls == 2:
                        has_free = not c1b2
                    elif not c1b0 or not c1b1:
                        has_free = True
                    else:
                        has_free = pcls == 0 and not c1b2
                    imb[pcls][1 if has_free else 0] += 1
                    probed = True
            if passed1:
                seen = 0
                for uop in passed1:
                    if uop.squashed:
                        continue
                    pcls = PCT[uop.opclass]
                    bit = 1 << pcls
                    if seen & bit:
                        continue
                    seen |= bit
                    if pcls == 2:
                        has_free = not c0b2
                    elif not c0b0 or not c0b1:
                        has_free = True
                    else:
                        has_free = pcls == 0 and not c0b2
                    imb[pcls][1 if has_free else 0] += 1
                    probed = True
            if probed:
                s.imbalance_cycles += 1

            # ================= rename =================
            # one inline copy of the per-thread rename body serves both the
            # first selection and the give-the-slot-away retries (reference:
            # _rename → _rename_thread → _rename_one → _dispatch_uop)
            excluded = None
            sel_left = n_threads
            while True:
                # --- selection (inlined IcountPolicy.rename_select) ---
                if icount_sel:
                    best = None
                    best_ic = 0
                    prr = policy._rr
                    for off in range(n_threads):
                        t = threads[(prr + off) % n_threads]
                        if excluded is not None and t.tid in excluded:
                            continue
                        if (
                            t.fetch_queue
                            and not t.flushed
                            and not t.gated
                            and t.rename_blocked_until <= cycle
                        ):
                            ic = t.icount
                            if best is None or ic < best_ic:
                                best = t
                                best_ic = ic
                    if best is not None:
                        policy._rr = (best.tid + 1) % n_threads
                    thread = best
                else:
                    thread = policy.rename_select(
                        cycle, _EMPTY_EXCLUDE if excluded is None else excluded
                    )
                if thread is None:
                    break
                # --- rename up to rename_width uops from `thread` ---
                tid = thread.tid
                fq = thread.fetch_queue
                rob = thread.rob
                rob_entries = rob._entries
                table = thread.rename_table
                tph = table._phys
                tcl = table._cluster
                trp = table._replica
                infl = thread.inflight
                renamed_n = 0
                while renamed_n < rename_width and fq:
                    uop = fq[0]
                    if not (rob.unbounded or len(rob_entries) < rob.capacity):
                        rsc["rob"] += 1
                        break
                    opc = uop.opclass
                    if (opc == _LOAD or opc == _STORE) and mob.occupancy >= mob_capacity:
                        rsc["mob"] += 1
                        break

                    # --- single-pass source resolution: one rename-table
                    #     read per source feeds steering, admission AND
                    #     dispatch (the reference re-reads it per phase;
                    #     nothing mutates the table in between) ---
                    s1 = uop.src1
                    s2 = uop.src2
                    dest = uop.dest
                    if s1 >= 0:
                        ph1 = tph[s1]
                        scl1 = tcl[s1]
                        rep1 = trp[s1]
                        both1 = ph1 == _READY_EVERYWHERE or rep1 != _NO_REG
                        if s2 >= 0:
                            ph2 = tph[s2]
                            scl2 = tcl[s2]
                            rep2 = trp[s2]
                            both2 = ph2 == _READY_EVERYWHERE or rep2 != _NO_REG

                    # --- steering (inlined Steering.preferred_cluster) ---
                    if forced is not None:
                        preferred = forced(tid)
                    elif steer_inline:
                        rn_c0 = rn_c1 = 0
                        if s1 >= 0:
                            if both1:
                                rn_c0 += 1
                                rn_c1 += 1
                            elif scl1 == 0:
                                rn_c0 += 1
                            else:
                                rn_c1 += 1
                            if s2 >= 0:
                                if both2:
                                    rn_c0 += 1
                                    rn_c1 += 1
                                elif scl2 == 0:
                                    rn_c0 += 1
                                else:
                                    rn_c1 += 1
                        occ0 = iq0.occupancy
                        occ1 = iq1.occupancy
                        if rn_c0 != rn_c1:
                            preferred = 0 if rn_c0 > rn_c1 else 1
                        else:
                            preferred = 0 if occ0 <= occ1 else 1
                        if preferred == 0:
                            if occ0 - occ1 > imb_threshold:
                                preferred = 1
                        elif occ1 - occ0 > imb_threshold:
                            preferred = 0
                    else:
                        preferred = steering.preferred_cluster(uop, table, clusters)
                    uop.preferred_cluster = preferred

                    # --- admission: preferred cluster, then (unless pinned)
                    #     the other; only the preferred failure cause is
                    #     attributed (inlined _admission_check) ---
                    chosen = -1
                    first_cause = None
                    for attempt in (0, 1):
                        if attempt == 0:
                            cl = preferred
                        elif first_cause is None or forced is not None:
                            break
                        else:
                            cl = 1 - preferred
                        iqn0 = iqn1 = rint = rfp = 0
                        if cl == 0:
                            iqn0 = 1
                        else:
                            iqn1 = 1
                        if s1 >= 0:
                            if not both1 and scl1 != cl:
                                if scl1 == 0:
                                    iqn0 += 1
                                else:
                                    iqn1 += 1
                                if s1 < num_int:
                                    rint += 1
                                else:
                                    rfp += 1
                            if s2 >= 0 and s2 != s1 and not both2 and scl2 != cl:
                                if scl2 == 0:
                                    iqn0 += 1
                                else:
                                    iqn1 += 1
                                if s2 < num_int:
                                    rint += 1
                                else:
                                    rfp += 1
                        if dest >= 0:
                            if dest < num_int:
                                rint += 1
                            else:
                                rfp += 1
                        cause = None
                        if iqn0 and iq0_cap - iq0.occupancy < iqn0:
                            cause = "iq"
                        elif iqn1 and iq1_cap - iq1.occupancy < iqn1:
                            cause = "iq"
                        elif not dispatch_trivial and not policy.may_dispatch_group(
                            tid, [iqn0, iqn1]
                        ):
                            cause = "iq"
                        else:
                            files = files0 if cl == 0 else files1
                            if rint:
                                f = files[0]
                                if (not f.unbounded and len(f._free) < rint) or (
                                    not alloc_trivial
                                    and not policy.may_alloc_reg(tid, 0, cl, rint)
                                ):
                                    cause = "rf_int"
                            if cause is None and rfp:
                                f = files[1]
                                if (not f.unbounded and len(f._free) < rfp) or (
                                    not alloc_trivial
                                    and not policy.may_alloc_reg(tid, 1, cl, rfp)
                                ):
                                    cause = "rf_fp"
                        if attempt == 0:
                            first_cause = cause
                        if cause is None:
                            chosen = cl
                            break

                    # Figure 4 counter: preferred cluster denied on IQ grounds
                    if first_cause == "iq":
                        s.iq_stalls += 1

                    if chosen != -1 and chosen != preferred and tel is not None:
                        tel.steer_redirect(cycle, tid, preferred, chosen, first_cause)

                    if chosen == -1:
                        primary = first_cause
                        rsc[primary] += 1
                        if primary == "iq":
                            s.iq_block_stalls += 1
                        elif primary == "rf_int" or primary == "rf_fp":
                            k = 0 if primary == "rf_int" else 1
                            rse[k] += 1
                            if on_reg_stall_h is not None:
                                on_reg_stall_h(tid, k)
                            if tel is not None:
                                tel.note_reg_stall(cycle, tid, k)
                        break

                    # --- inlined _dispatch_uop(thread, uop, chosen, table) ---
                    files = files0 if chosen == 0 else files1
                    wait = 0
                    if s1 >= 0:
                        phys1 = (
                            ph1
                            if ph1 == _READY_EVERYWHERE or scl1 == chosen
                            else rep1
                        )
                        if phys1 == _NO_REG:
                            phys1 = self._make_copy(thread, uop, s1, chosen, table)
                        if phys1 != _READY_EVERYWHERE:
                            k = 0 if s1 < num_int else 1
                            f = files[k]
                            if not f._ready[phys1]:
                                f._waiters.setdefault(phys1, []).append(uop)
                                if uop.waits is None:
                                    uop.waits = [(chosen, k, phys1)]
                                else:
                                    uop.waits.append((chosen, k, phys1))
                                wait += 1
                        if s2 >= 0:
                            if s2 != s1:
                                phys2 = (
                                    ph2
                                    if ph2 == _READY_EVERYWHERE or scl2 == chosen
                                    else rep2
                                )
                                if phys2 == _NO_REG:
                                    phys2 = self._make_copy(
                                        thread, uop, s2, chosen, table
                                    )
                            else:
                                phys2 = phys1
                            if phys2 != _READY_EVERYWHERE:
                                k = 0 if s2 < num_int else 1
                                f = files[k]
                                if not f._ready[phys2]:
                                    f._waiters.setdefault(phys2, []).append(uop)
                                    if uop.waits is None:
                                        uop.waits = [(chosen, k, phys2)]
                                    else:
                                        uop.waits.append((chosen, k, phys2))
                                    wait += 1
                    uop.wait_count = wait
                    uop.cluster = chosen

                    if dest >= 0:
                        k = 0 if dest < num_int else 1
                        uop.dest_class = k
                        f = files[k]
                        fl = f._free
                        if fl:
                            phys = fl.pop()
                            f._ready[phys] = 0
                            iu = f.in_use + 1
                            f.in_use = iu
                            f.alloc_count += 1
                            if iu > f.peak_in_use:
                                f.peak_in_use = iu
                        else:
                            phys = f.alloc()  # unbounded growth (or error)
                        if on_reg_alloc_h is not None:
                            on_reg_alloc_h(tid, k, chosen)
                        uop.phys_dest = phys
                        uop.prev_phys = tph[dest]
                        uop.prev_phys_cluster = tcl[dest]
                        uop.prev_replica = trp[dest]
                        tcl[dest] = chosen
                        tph[dest] = phys
                        trp[dest] = _NO_REG

                    age = self._age
                    uop.age = age
                    self._age = age + 1
                    rob_entries.append(uop)
                    le = len(rob_entries)
                    if le > rob.peak:
                        rob.peak = le
                    if opc == _LOAD or opc == _STORE:
                        occ = mob.occupancy + 1
                        mob.occupancy = occ
                        mob_per_thread[tid] += 1
                        uop.mob_index = 1
                        if occ > mob.peak:
                            mob.peak = occ
                    iq = iq0 if chosen == 0 else iq1
                    occ = iq.occupancy + 1
                    iq.occupancy = occ
                    iq.per_thread[tid] += 1
                    if occ > iq.peak:
                        iq.peak = occ
                    if wait == 0:
                        _heappush(iq._ready, (age, uop))
                    infl.append(uop)
                    thread.icount += 1
                    if on_rename_h is not None:
                        on_rename_h(uop)
                    s.renamed += 1
                    if uop.wrong_path:
                        s.wrong_path_renamed += 1
                    fq.popleft()
                    renamed_n += 1
                if renamed_n:
                    break
                # structurally blocked; give the slot away
                sel_left -= 1
                if sel_left == 0:
                    break
                if excluded is None:
                    excluded = {tid}
                else:
                    excluded.add(tid)

            # ================= fetch =================
            best = None
            best_len = -1
            for t in threads:
                if t.fetch_blocked_until <= cycle and not t.flushed:
                    ql = len(t.fetch_queue)
                    if ql < fq_cap and (t.wrong_path or t.cursor < t.n_records):
                        if best is None or ql < best_len:
                            best = t
                            best_len = ql
            if best is not None:
                t = best
                wrong = t.wrong_path
                if wrong:
                    first_pc = t.wp_source.peek_pc()
                else:
                    first_pc = fetch_cols[t.tid][4][t.cursor]
                stall = tc_lookup(first_pc)
                if stall > 0:
                    t.fetch_blocked_until = cycle + stall
                else:
                    fq = t.fetch_queue
                    fetched = 0
                    tidl = t.tid
                    if wrong:
                        if model_wrong_path:
                            next_rec = t.wp_source.next_record
                            moff = t.mem_offset
                            while fetched < fetch_width and len(fq) < fq_cap:
                                opcl, dest, src1, src2, pc, taken, mem_line = (
                                    next_rec()
                                )
                                fq.append(
                                    _Uop(
                                        tidl,
                                        opcl,
                                        dest,
                                        src1,
                                        src2,
                                        pc,
                                        -1,
                                        taken,
                                        mem_line + moff,
                                        True,
                                    )
                                )
                                fetched += 1
                            s.wrong_path_fetched += fetched
                    else:
                        (
                            co,
                            cd,
                            cs1,
                            cs2,
                            cpc,
                            ct,
                            cml,
                            cind,
                            ctg,
                            cco,
                            plain,
                        ) = fetch_cols[tidl]
                        cur = t.cursor
                        nrec = t.n_records
                        while fetched < fetch_width and len(fq) < fq_cap:
                            if cur >= nrec:
                                break
                            u = _Uop(
                                tidl,
                                co[cur],
                                cd[cur],
                                cs1[cur],
                                cs2[cur],
                                cpc[cur],
                                cur,
                                ct[cur],
                                cml[cur],
                            )
                            if plain[cur]:
                                cur += 1
                                fq.append(u)
                                fetched += 1
                                continue
                            # slow path: branch / indirect / complex op
                            if cind[cur]:
                                u.indirect = True
                                u.target = ctg[cur]
                            if cco[cur]:
                                u.complex_op = True
                            cur += 1
                            fq.append(u)
                            fetched += 1
                            if u.opclass == _BRANCH:
                                if u.indirect:
                                    hit = ipred_update(tidl, u.pc, u.target)
                                    u.predicted_taken = True
                                    if not hit:
                                        u.mispredicted = True
                                        t.wrong_path = True
                                        break
                                else:
                                    predicted = pred_update(tidl, u.pc, u.taken)
                                    u.predicted_taken = predicted
                                    if predicted != u.taken:
                                        u.mispredicted = True
                                        t.wrong_path = True
                                        break
                            elif u.complex_op:
                                t.fetch_blocked_until = cycle + mrom_latency
                                break
                        t.cursor = cur
                        t.fetched_right_path += fetched
                    s.fetched += fetched

            # ================= end of cycle =================
            s.cycles += 1
            if tel is not None:
                tel.end_cycle(self)
            if cycle - self._last_commit_cycle > _WATCHDOG_CYCLES:
                raise DeadlockError(
                    f"no commit for {_WATCHDOG_CYCLES} cycles at cycle {cycle}: "
                    + "; ".join(repr(t) for t in threads)
                )

            if warmup and self.finished_count > 0:
                break
