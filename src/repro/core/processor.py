"""The clustered SMT pipeline (Section 3 of the paper).

One :class:`Processor` simulates the whole machine cycle by cycle:

* a monolithic front-end — trace cache + MITE timing, shared gshare with
  per-thread history, per-thread private fetch queues, *fetch selection*
  (always the thread with the fewest queued instructions, per Section 3)
  and *rename selection* (delegated to the resource assignment policy);
* rename/steer — dependence+balance steering [12], on-demand copy-uop
  generation for cross-cluster operands, physical register allocation,
  all subject to the policy's admission checks;
* two execution clusters — issue queues with oldest-first select over three
  asymmetric ports, private register files, point-to-point copy links;
* a shared MOB and L1/L2/memory hierarchy;
* per-thread ROB partitions committing up to 6 uops per cycle.

Stages tick in reverse pipeline order inside :meth:`step` so same-cycle
structural interactions resolve like hardware (a register freed by commit
is allocatable by rename in the same cycle; a value written back wakes and
issues its consumer in the same cycle, modelling the bypass network).

Speculation is modelled faithfully enough for the paper's resource
arguments: a mispredicted branch switches its thread's fetch to
synthetically generated wrong-path uops that allocate real resources until
the branch executes, then a squash walk undoes rename state exactly and the
thread pays the 14-cycle redirect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.backend.cluster import Cluster
from repro.backend.execute import latency_for
from repro.backend.interconnect import Interconnect
from repro.backend.mob import MemoryOrderBuffer
from repro.backend.regfile import READY_EVERYWHERE
from repro.backend.rob import ReorderBuffer
from repro.config import ProcessorConfig
from repro.core.smt import ThreadContext
from repro.core.stats import SimStats
from repro.frontend.branch import GShare, IndirectPredictor
from repro.frontend.rename import Mapping, RenameTable
from repro.frontend.steering import Steering
from repro.frontend.tracecache import TraceCache
from repro.isa import NO_REG, NUM_ARCH_INT, Uop, UopClass
from repro.isa.uops import PORT_CLASS_TABLE
from repro.memory.hierarchy import MemoryHierarchy
from repro.policies.base import ResourcePolicy
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.telemetry import Telemetry

#: plain-int uop classes for the hot paths
_LOAD = int(UopClass.LOAD)
_STORE = int(UopClass.STORE)
_BRANCH = int(UopClass.BRANCH)
_COPY = int(UopClass.COPY)

#: cycles without a single commit before the watchdog declares deadlock
_WATCHDOG_CYCLES = 50_000

#: shared immutable empties for the per-cycle hot paths (no allocation)
_EMPTY_EXCLUDE: frozenset[int] = frozenset()
_NO_PASSED: list = []


class DeadlockError(RuntimeError):
    """The pipeline stopped committing — a simulator invariant was broken."""


class Processor:
    """Cycle-level model of the paper's clustered SMT processor.

    This class is both the *semantic definition* of the machine and the
    ``reference`` backend (see :mod:`repro.core.backends`).  Faster
    engines subclass it and override :meth:`run_loop`; everything
    observable — statistics, telemetry, policy hook sequences — must
    stay bit-identical to this implementation.
    """

    #: registered backend name this engine implements
    backend_name = "reference"

    #: False on a machine whose contents another engine holds (a
    #: ``cloop`` machine the C kernel owns): caches, TLBs, the trace cache,
    #: the branch predictors and the threads are then built without
    #: contents, tables or trace columns, and Python keeps only the
    #: counters that engine writes back
    python_resident = True

    #: cycles skipped without stepping: always 0, since every engine steps
    #: each cycle; ``perfbench/layers.py`` still reads it after each
    #: traced simulation
    ff_skipped_cycles = 0

    def __init__(
        self,
        config: ProcessorConfig,
        policy: ResourcePolicy,
        traces: list[Trace],
        steering: Steering | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        if len(traces) != config.num_threads:
            raise ValueError(
                f"config expects {config.num_threads} threads, got {len(traces)} traces"
            )
        if config.num_clusters != 2:
            raise ValueError("the model supports exactly two clusters")
        self.config = config
        self.policy = policy
        self.steering = steering or Steering(config.steer_imbalance_threshold)
        self.clusters = [Cluster(i, config) for i in range(config.num_clusters)]
        resident = self.python_resident
        self.mem = MemoryHierarchy(config.memory, resident=resident)
        self.mob = MemoryOrderBuffer(config.memory.mob_entries, config.num_threads)
        self.icn = Interconnect(config.num_links, config.link_latency)
        self.predictor = GShare(
            config.front_end.gshare_entries, config.num_threads, resident=resident
        )
        self.ipredictor = IndirectPredictor(
            config.front_end.indirect_entries, config.num_threads, resident=resident
        )
        self.tc = TraceCache(config.front_end, config.memory.itlb, resident=resident)
        self.threads = [
            ThreadContext(t, traces[t], resident=resident)
            for t in range(config.num_threads)
        ]
        for t in self.threads:
            t.rob = ReorderBuffer(
                config.rob_entries_per_thread, unbounded=config.unbounded_rob
            )
        self.stats = SimStats(config.num_threads)
        self.cycle = 0
        self._age = 0
        self._commit_rr = 0
        self._last_commit_cycle = 0
        self._events: dict[int, list[Uop]] = {}
        self._fill_events: dict[int, list[int]] = {}
        self._n_threads = config.num_threads
        #: threads whose whole trace has committed; maintained at the only
        #: place a thread can transition to finished (_commit_uop), making
        #: any_done/all_done O(1) in the run loop
        self.finished_count = sum(1 for t in self.threads if t.finished)
        # hot-path caches (plain ints beat enum lookups in the cycle loop)
        self._latency = [latency_for(config, UopClass(c)) for c in range(8)]
        self._num_arch_int = NUM_ARCH_INT
        fe = config.front_end
        self._commit_width = fe.commit_width
        self._rename_width = fe.rename_width
        self._fetch_width = fe.fetch_width
        self._fetch_queue_entries = fe.fetch_queue_entries
        self._mispredict_pipeline = fe.mispredict_pipeline
        self._mrom_latency = fe.mrom_latency
        # per-cluster select bandwidth and pre-bound port claimers (avoids a
        # closure allocation per cluster per cycle)
        self._max_scan = [cl.iq.capacity + 8 for cl in self.clusters]
        self._claimers = [cl.ports.try_claim_uop for cl in self.clusters]
        # PC-style schemes force each thread to a fixed cluster; resolve the
        # hook once instead of a getattr per renamed uop
        self._forced_cluster = getattr(policy, "forced_cluster", None)
        policy.attach(self)
        # policies that never restrict a share keep the base class's
        # always-True admission hooks; resolve that once so the admission
        # check can skip the calls entirely (Icount skips all three)
        cls = type(policy)
        self._dispatch_trivial = (
            cls.may_dispatch_group is ResourcePolicy.may_dispatch_group
            and cls.may_dispatch is ResourcePolicy.may_dispatch
        )
        self._alloc_trivial = cls.may_alloc_reg is ResourcePolicy.may_alloc_reg
        # observability hook: None by default, so the cycle loop's only cost
        # when telemetry is off is one identity test per stage-boundary guard
        self.tel = telemetry
        if telemetry is not None:
            telemetry.attach(self)  # after policy.attach — the sampler
            # introspects policy state (CDPRF partitions) for its schema

    # ------------------------------------------------------------------ #
    # register bookkeeping (single funnel so the policy hooks stay exact) #
    # ------------------------------------------------------------------ #

    def _alloc_reg(self, tid: int, regclass: int, cluster: int) -> int:
        phys = self.clusters[cluster].regs.files[regclass].alloc()
        self.policy.on_reg_alloc(tid, regclass, cluster)
        return phys

    def _free_reg(self, tid: int, regclass: int, cluster: int, phys: int) -> None:
        self.clusters[cluster].regs.files[regclass].free(phys)
        self.policy.on_reg_free(tid, regclass, cluster)

    # ------------------------------------------------------------------ #
    # main loop                                                          #
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Advance the machine one cycle."""
        self.cycle += 1
        self.policy.on_cycle(self.cycle)
        self._commit()
        self._writeback()
        self._deliver_copies()
        self._issue()
        self._rename()
        self._fetch()
        self.stats.cycles += 1
        tel = self.tel
        if tel is not None:
            tel.end_cycle(self)
        if self.cycle - self._last_commit_cycle > _WATCHDOG_CYCLES:
            raise DeadlockError(
                f"no commit for {_WATCHDOG_CYCLES} cycles at cycle {self.cycle}: "
                + "; ".join(repr(t) for t in self.threads)
            )

    def release(self) -> None:
        """End of run: free resources the engine holds outside Python
        objects.  The Python engines hold none; see ``CloopProcessor``."""

    def all_done(self) -> bool:
        """Every thread has committed its whole trace."""
        return self.finished_count >= self._n_threads

    def any_done(self) -> bool:
        """At least one thread has committed its whole trace."""
        return self.finished_count > 0

    def run_loop(
        self,
        limit: int,
        stop: str = "first_done",
        commit_target: int | None = None,
    ) -> None:
        """Drive the machine to a stop condition (the backend seam).

        ``run_simulation`` expresses both its warmup and its measured
        phase through this one method, so a backend only has to override
        ``run_loop`` to accelerate every run mode.  ``commit_target``
        selects the warmup loop: run until that many uops have committed
        (or a thread finishes, or ``limit``), ignoring ``stop``.
        Otherwise ``stop`` is ``"first_done"``/``"all_done"``/
        ``"cycles"``, bounded by ``limit`` (the caller's ``max_cycles``).
        """
        if commit_target is not None:
            s = self.stats
            while self.cycle < limit and s.committed < commit_target:
                self.step()
                if self.finished_count > 0:
                    break
        elif stop == "first_done":
            while self.cycle < limit and self.finished_count == 0:
                self.step()
        elif stop == "all_done":
            n = self._n_threads
            while self.cycle < limit and self.finished_count < n:
                self.step()
        elif stop == "cycles":
            while self.cycle < limit:
                self.step()
        else:
            raise ValueError(f"unknown stop mode {stop!r}")

    # ------------------------------------------------------------------ #
    # commit                                                             #
    # ------------------------------------------------------------------ #

    def _commit(self) -> None:
        width = self._commit_width
        threads = self.threads
        n = len(threads)
        start = self._commit_rr
        committed = 0
        progress = True
        while committed < width and progress:
            progress = False
            for off in range(n):
                if committed >= width:
                    break
                t = threads[(start + off) % n]
                head = t.rob.head()
                if head is not None and head.completed:
                    self._commit_uop(t, head)
                    committed += 1
                    progress = True
        self._commit_rr = (start + 1) % n
        if committed:
            self._last_commit_cycle = self.cycle
            # batched per-cycle stat flush (one attribute store per counter)
            self.stats.committed += committed

    def _commit_uop(self, thread: ThreadContext, uop: Uop) -> None:
        thread.rob.pop_head()
        # retire the in-flight prefix (includes this uop's preceding copies)
        infl = thread.inflight
        while infl and infl[0].age <= uop.age:
            infl.popleft()
        if uop.dest != NO_REG:
            if uop.prev_phys >= 0:
                self._free_reg(
                    uop.tid, uop.dest_class, uop.prev_phys_cluster, uop.prev_phys
                )
            if uop.prev_replica != NO_REG:
                self._free_reg(
                    uop.tid,
                    uop.dest_class,
                    1 - uop.prev_phys_cluster,
                    uop.prev_replica,
                )
        if uop.opclass == _LOAD or uop.opclass == _STORE:
            self.mob.release(uop)
        thread.committed += 1
        self.stats.committed_per_thread[uop.tid] += 1
        # commit is the only transition into `finished` (squash walks always
        # leave the triggering uop in flight or rewind the cursor)
        if (
            not infl
            and thread.cursor >= thread.n_records
            and not thread.fetch_queue
            and not thread.wrong_path
        ):
            self.finished_count += 1
        self.policy.on_commit(uop)

    # ------------------------------------------------------------------ #
    # writeback / copy delivery                                          #
    # ------------------------------------------------------------------ #

    def _wake_consumers(self, cluster: int, regclass: int, phys: int) -> None:
        clusters = self.clusters
        for waiter in clusters[cluster].regs.files[regclass].set_ready(phys):
            waiter.wait_count -= 1
            if waiter.wait_count == 0 and not waiter.squashed and not waiter.issued:
                clusters[waiter.cluster].iq.wake(waiter)

    def _writeback(self) -> None:
        for uop in self._events.pop(self.cycle, ()):
            if uop.squashed:
                continue
            if uop.opclass == _COPY:
                # the copy read its source; the value now crosses a link
                self.icn.request(uop)
                continue
            uop.completed = True
            if uop.dest != NO_REG:
                self._wake_consumers(uop.cluster, uop.dest_class, uop.phys_dest)
            if uop.mispredicted and not uop.wrong_path:
                self._resolve_mispredict(uop)
        fills = self._fill_events.pop(self.cycle, None)
        if fills:
            for tid in fills:
                t = self.threads[tid]
                t.l2_pending -= 1
                if t.l2_pending == 0:
                    t.first_l2_miss_cycle = -1
                    self.policy.on_l2_fill(tid)

    def _deliver_copies(self) -> None:
        for copy in self.icn.tick(self.cycle):
            copy.completed = True
            target = copy.preferred_cluster  # copies store their destination here
            self._wake_consumers(target, copy.dest_class, copy.phys_dest)
            self.stats.copies_arrived += 1

    # ------------------------------------------------------------------ #
    # issue                                                              #
    # ------------------------------------------------------------------ #

    def _issue(self) -> None:
        stats = self.stats
        clusters = self.clusters
        passed_per_cluster: list[list[Uop]] = []
        for ci, cl in enumerate(clusters):
            cl.ports.new_cycle()
            if not cl.iq.has_candidates:
                # nothing the selector could visit (entries, if any, are all
                # waiting on operands) — skip the select call entirely
                passed_per_cluster.append(_NO_PASSED)
                continue
            issued, passed = cl.iq.select(self._max_scan[ci], self._claimers[ci])
            passed_per_cluster.append(passed)
            any_issued = False
            for uop in issued:
                if uop.squashed:
                    continue  # flushed by a policy event earlier this cycle
                self._start_execution(uop, cl)
                any_issued = True
            if any_issued:
                stats.issue_cycles += 1
        # workload-imbalance probe (Figure 5), against final port state
        probed = False
        imbalance = stats.imbalance
        for ci, passed in enumerate(passed_per_cluster):
            if not passed:
                continue
            other_ports = clusters[1 - ci].ports
            seen = 0
            for uop in passed:
                if uop.squashed:
                    continue
                pcls = PORT_CLASS_TABLE[uop.opclass]
                bit = 1 << pcls
                if seen & bit:
                    continue
                seen |= bit
                imbalance[pcls][1 if other_ports.has_free(pcls) else 0] += 1
                probed = True
        if probed:
            stats.imbalance_cycles += 1

    def _start_execution(self, uop: Uop, cl: Cluster) -> None:
        uop.issued = True
        cl.iq.release(uop)
        thread = self.threads[uop.tid]
        thread.icount -= 1
        self.policy.on_issue(uop)
        self.stats.issued += 1

        opclass = uop.opclass
        latency = self._latency[opclass]
        if opclass == _LOAD:
            if self.mob.can_forward(uop):
                self.mob.forwards += 1
                latency += 1
            else:
                res = self.mem.access(uop.mem_line, self.cycle)
                latency += res.latency
                if res.l2_miss and not uop.wrong_path:
                    uop.l2_miss = True
                    if thread.l2_pending == 0:
                        thread.first_l2_miss_cycle = self.cycle
                    thread.l2_pending += 1
                    self._fill_events.setdefault(self.cycle + latency, []).append(
                        uop.tid
                    )
                    self.policy.on_l2_miss(uop)
        elif opclass == _STORE:
            self.mem.access(uop.mem_line, self.cycle, is_store=True)
            self.mob.store_executed(uop)
        self._events.setdefault(self.cycle + latency, []).append(uop)

    # ------------------------------------------------------------------ #
    # rename / steer / dispatch                                          #
    # ------------------------------------------------------------------ #

    def _rename(self) -> None:
        thread = self.policy.rename_select(self.cycle, _EMPTY_EXCLUDE)
        if thread is None:
            return
        if self._rename_thread(thread) > 0:
            return
        excluded = {thread.tid}  # structurally blocked; give the slot away
        for _ in range(self._n_threads - 1):
            thread = self.policy.rename_select(self.cycle, excluded)
            if thread is None:
                return
            if self._rename_thread(thread) > 0:
                return
            excluded.add(thread.tid)

    def _rename_thread(self, thread: ThreadContext) -> int:
        width = self._rename_width
        fq = thread.fetch_queue
        renamed = 0
        while renamed < width and fq:
            if not self._rename_one(thread, fq[0]):
                break
            fq.popleft()
            renamed += 1
        return renamed

    def _rename_one(self, thread: ThreadContext, uop: Uop) -> bool:
        stats = self.stats
        tid = thread.tid
        if not thread.rob.can_alloc():
            stats.rename_stall_cycles["rob"] += 1
            return False
        if (uop.opclass == _LOAD or uop.opclass == _STORE) and not self.mob.can_alloc():
            stats.rename_stall_cycles["mob"] += 1
            return False

        table = thread.rename_table
        forced = self._forced_cluster
        if forced is not None:
            preferred = forced(tid)
        else:
            preferred = self.steering.preferred_cluster(uop, table, self.clusters)
        uop.preferred_cluster = preferred

        # try the preferred cluster, then (unless the policy pins threads to
        # clusters) the other; only the preferred cluster's failure cause is
        # attributed, matching the paper's per-scheme stall taxonomy
        chosen = -1
        first_cause = self._admission_check(tid, uop, preferred, table)
        if first_cause is None:
            chosen = preferred
        elif forced is None and (
            self._admission_check(tid, uop, 1 - preferred, table) is None
        ):
            chosen = 1 - preferred

        # Figure 4 counter: the instruction could not go to its preferred
        # cluster because of IQ capacity or the scheme's IQ limit — whether
        # it was redirected to the other cluster or blocked outright.
        if first_cause == "iq":
            stats.iq_stalls += 1

        if chosen != -1 and chosen != preferred:
            tel = self.tel
            if tel is not None:
                tel.steer_redirect(self.cycle, tid, preferred, chosen, first_cause)

        if chosen == -1:
            primary = first_cause
            stats.rename_stall_cycles[primary] += 1
            if primary == "iq":
                stats.iq_block_stalls += 1
            elif primary in ("rf_int", "rf_fp"):
                k = 0 if primary == "rf_int" else 1
                stats.reg_stall_events[k] += 1
                self.policy.on_reg_stall(tid, k)
                tel = self.tel
                if tel is not None:
                    tel.note_reg_stall(self.cycle, tid, k)
            return False

        self._dispatch_uop(thread, uop, chosen, table)
        return True

    def _admission_check(
        self, tid: int, uop: Uop, cluster: int, table: RenameTable
    ) -> Optional[str]:
        """Can ``uop`` (plus any copies it needs) be admitted to ``cluster``?

        Returns None on success or the blocking cause:
        ``"iq"`` / ``"rf_int"`` / ``"rf_fp"``.
        """
        # per-cluster IQ entries and per-class registers needed (copies for
        # absent sources allocate their replica register in `cluster` but an
        # IQ entry in the source's home cluster); scalars instead of lists —
        # this runs for every rename attempt
        num_int = NUM_ARCH_INT
        iq0 = iq1 = reg_int = reg_fp = 0
        if cluster == 0:
            iq0 = 1
        else:
            iq1 = 1
        s1 = uop.src1
        if s1 >= 0:
            # inlined RenameTable.present_in/home_cluster (this is the
            # hottest leaf of the rename path: a blocked thread re-checks
            # its head uop's operands every cycle)
            home = table._cluster
            phys = table._phys
            replica = table._replica
            if (
                phys[s1] != READY_EVERYWHERE
                and home[s1] != cluster
                and replica[s1] == NO_REG
            ):
                if home[s1] == 0:
                    iq0 += 1
                else:
                    iq1 += 1
                if s1 < num_int:
                    reg_int += 1
                else:
                    reg_fp += 1
            # src2 is only meaningful when src1 is set (Uop.sources contract)
            s2 = uop.src2
            if (
                s2 >= 0
                and s2 != s1
                and phys[s2] != READY_EVERYWHERE
                and home[s2] != cluster
                and replica[s2] == NO_REG
            ):
                if home[s2] == 0:
                    iq0 += 1
                else:
                    iq1 += 1
                if s2 < num_int:
                    reg_int += 1
                else:
                    reg_fp += 1
        dest = uop.dest
        if dest >= 0:
            if dest < num_int:
                reg_int += 1
            else:
                reg_fp += 1

        policy = self.policy
        clusters = self.clusters
        if iq0:
            iq = clusters[0].iq
            if iq.capacity - iq.occupancy < iq0:
                return "iq"
        if iq1:
            iq = clusters[1].iq
            if iq.capacity - iq.occupancy < iq1:
                return "iq"
        # unlimited-share policies (Icount's defaults) are detected once at
        # construction; skipping their always-True admission calls shaves a
        # list build plus two dynamic dispatches off every rename attempt
        if not self._dispatch_trivial and not policy.may_dispatch_group(
            tid, [iq0, iq1]
        ):
            return "iq"
        alloc_trivial = self._alloc_trivial
        files = clusters[cluster].regs.files
        if reg_int:
            f = files[0]
            if not f.unbounded and f.free_count < reg_int:
                return "rf_int"
            if not alloc_trivial and not policy.may_alloc_reg(tid, 0, cluster, reg_int):
                return "rf_int"
        if reg_fp:
            f = files[1]
            if not f.unbounded and f.free_count < reg_fp:
                return "rf_fp"
            if not alloc_trivial and not policy.may_alloc_reg(tid, 1, cluster, reg_fp):
                return "rf_fp"
        return None

    def _dispatch_uop(
        self, thread: ThreadContext, uop: Uop, cluster: int, table: RenameTable
    ) -> None:
        tid = thread.tid
        num_int = NUM_ARCH_INT
        files = self.clusters[cluster].regs.files
        # inlined RenameTable.phys_in/define below: these run once per
        # renamed uop, and at that rate the method calls plus the Mapping
        # allocation in define() are measurable
        tph = table._phys
        tcl = table._cluster
        trp = table._replica
        # resolve sources, generating copies for cross-cluster operands; a
        # duplicated source registers two waits (the wakeup delivers two
        # decrements), exactly like the generic sources() loop did
        wait = 0
        s1 = uop.src1
        if s1 >= 0:
            phys1 = tph[s1]
            if phys1 != READY_EVERYWHERE and tcl[s1] != cluster:
                phys1 = trp[s1]
            if phys1 == NO_REG:
                phys1 = self._make_copy(thread, uop, s1, cluster, table)
            if phys1 != READY_EVERYWHERE:
                k = 0 if s1 < num_int else 1
                f = files[k]
                if not f.is_ready(phys1):
                    f.add_waiter(phys1, uop)
                    if uop.waits is None:
                        uop.waits = []
                    uop.waits.append((cluster, k, phys1))
                    wait += 1
            s2 = uop.src2
            if s2 >= 0:
                if s2 != s1:
                    phys2 = tph[s2]
                    if phys2 != READY_EVERYWHERE and tcl[s2] != cluster:
                        phys2 = trp[s2]
                    if phys2 == NO_REG:
                        phys2 = self._make_copy(thread, uop, s2, cluster, table)
                else:
                    phys2 = phys1
                if phys2 != READY_EVERYWHERE:
                    k = 0 if s2 < num_int else 1
                    f = files[k]
                    if not f.is_ready(phys2):
                        f.add_waiter(phys2, uop)
                        if uop.waits is None:
                            uop.waits = []
                        uop.waits.append((cluster, k, phys2))
                        wait += 1
        uop.wait_count = wait
        uop.cluster = cluster

        dest = uop.dest
        if dest >= 0:
            k = 0 if dest < num_int else 1
            uop.dest_class = k
            phys = self._alloc_reg(tid, k, cluster)
            # table.define(), with the previous mapping recorded straight
            # into the uop's undo fields
            uop.phys_dest = phys
            uop.prev_phys = tph[dest]
            uop.prev_phys_cluster = tcl[dest]
            uop.prev_replica = trp[dest]
            tcl[dest] = cluster
            tph[dest] = phys
            trp[dest] = NO_REG

        uop.age = self._age
        self._age += 1
        thread.rob.push(uop)
        opclass = uop.opclass
        if opclass == _LOAD or opclass == _STORE:
            self.mob.alloc(uop)
        self.clusters[cluster].iq.dispatch(uop)
        thread.inflight.append(uop)
        thread.icount += 1
        self.policy.on_rename(uop)
        stats = self.stats
        stats.renamed += 1
        if uop.wrong_path:
            stats.wrong_path_renamed += 1

    def _make_copy(
        self,
        thread: ThreadContext,
        consumer: Uop,
        arch: int,
        target_cluster: int,
        table: RenameTable,
    ) -> int:
        """Generate the copy uop moving ``arch`` into ``target_cluster``.

        Returns the replica physical register the consumer will read.
        Admission was already checked; allocation cannot fail here.
        """
        tid = thread.tid
        mapping = table.lookup(arch)
        home = mapping.cluster
        k = 0 if arch < NUM_ARCH_INT else 1
        replica = self._alloc_reg(tid, k, target_cluster)
        table.set_replica(arch, replica)

        copy = Uop(
            tid,
            UopClass.COPY,
            dest=arch,  # architectural identity, for replica bookkeeping
            src1=arch,
            wrong_path=consumer.wrong_path,
        )
        copy.cluster = home
        copy.preferred_cluster = target_cluster  # destination of the transfer
        copy.dest_class = k
        copy.phys_dest = replica
        home_file = self.clusters[home].regs[k]
        if home_file.is_ready(mapping.phys):
            copy.wait_count = 0
        else:
            home_file.add_waiter(mapping.phys, copy)
            copy.waits = [(home, k, mapping.phys)]
            copy.wait_count = 1
        copy.age = self._age
        self._age += 1
        self.clusters[home].iq.dispatch(copy)
        thread.inflight.append(copy)
        thread.icount += 1
        self.policy.on_rename(copy)
        self.stats.copies_renamed += 1
        return replica

    # ------------------------------------------------------------------ #
    # speculation: mispredict resolution, squash, flush                  #
    # ------------------------------------------------------------------ #

    def _resolve_mispredict(self, branch: Uop) -> None:
        thread = self.threads[branch.tid]
        self._squash_younger(thread, branch.age, rewind=False)
        thread.wrong_path = False
        thread.fetch_blocked_until = max(
            thread.fetch_blocked_until,
            self.cycle + self._mispredict_pipeline,
        )
        self.stats.mispredicts += 1
        tel = self.tel
        if tel is not None:
            tel.mispredict(self.cycle, branch.tid)

    def flush_thread(self, thread: ThreadContext, keep_age: int | None = None) -> None:
        """Flush+ primitive: release everything younger than the oldest
        pending L2-missing load (or ``keep_age``); block fetch/rename until
        the miss resolves and rewind the trace cursor for re-fetch."""
        if keep_age is None:
            pending = [
                u for u in thread.inflight if u.l2_miss and not u.completed
            ]
            if not pending:
                return
            keep_age = min(u.age for u in pending)
        self._squash_younger(thread, keep_age, rewind=True)
        thread.flushed = True
        self.stats.flushes += 1
        tel = self.tel
        if tel is not None:
            tel.flush(self.cycle, thread.tid, keep_age)

    def _squash_younger(
        self, thread: ThreadContext, keep_age: int, rewind: bool
    ) -> None:
        """Undo every renamed uop of ``thread`` younger than ``keep_age``.

        Walks youngest-first so rename-map restoration and replica freeing
        compose exactly.  Also drains the fetch queue; with ``rewind`` the
        trace cursor returns to the oldest squashed right-path uop.
        """
        table = thread.rename_table
        tid = thread.tid
        min_seq: int | None = None
        infl = thread.inflight
        while infl and infl[-1].age > keep_age:
            uop = infl.pop()
            uop.squashed = True
            self.stats.squashed_uops += 1
            if not uop.issued:
                self.clusters[uop.cluster].iq.release(uop)
                thread.icount -= 1
                if uop.waits:
                    for wcl, wk, wphys in uop.waits:
                        self.clusters[wcl].regs[wk].drop_waiter(wphys, uop)
            if uop.is_copy:
                table.clear_replica(uop.dest, uop.phys_dest)
                self._free_reg(tid, uop.dest_class, uop.preferred_cluster, uop.phys_dest)
            else:
                if uop.dest != NO_REG:
                    table.undo_define(
                        uop.dest,
                        Mapping(uop.prev_phys_cluster, uop.prev_phys, uop.prev_replica),
                    )
                    self._free_reg(tid, uop.dest_class, uop.cluster, uop.phys_dest)
                if uop.is_mem:
                    self.mob.release(uop)
                if uop.mispredicted and not uop.wrong_path:
                    # the unresolved branch whose shadow we were fetching died
                    thread.wrong_path = False
                if not uop.wrong_path and uop.seq >= 0:
                    min_seq = uop.seq if min_seq is None else min(min_seq, uop.seq)
            self.policy.on_squash(uop)
        # drop ROB entries (same set as the non-copy uops above)
        thread.rob.squash_younger_than(keep_age)
        # drain the fetch queue (everything in it is younger than keep_age)
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
    # fetch                                                              #
    # ------------------------------------------------------------------ #

    def _fetch(self) -> None:
        qcap = self._fetch_queue_entries
        cycle = self.cycle
        # fetch selection policy: fewest instructions in the private queue
        best: ThreadContext | None = None
        best_len = -1
        for t in self.threads:
            if t.can_fetch(cycle, qcap):
                qlen = len(t.fetch_queue)
                if best is None or qlen < best_len:
                    best, best_len = t, qlen
        if best is None:
            return
        thread = best

        first_pc = self._peek_pc(thread)
        if first_pc is None:
            return
        stall = self.tc.lookup(first_pc)
        if stall > 0:
            thread.fetch_blocked_until = cycle + stall
            return

        # A trace-cache line is a *dynamic* uop sequence, so fetch does not
        # break on taken branches (the Pentium 4 front-end of [14]); only a
        # misprediction ends the group (fetch redirects to the wrong path
        # from the next cycle on).
        stats = self.stats
        fq = thread.fetch_queue
        width = self._fetch_width
        fetched = 0
        while fetched < width and len(fq) < qcap:
            uop = self._next_fetch_uop(thread)
            if uop is None:
                break
            fq.append(uop)
            fetched += 1
            if uop.wrong_path:
                stats.wrong_path_fetched += 1
            elif uop.opclass == _BRANCH:
                if uop.indirect:
                    # target-cache prediction under the thread's target-path
                    # history; direction is implicitly taken
                    hit = self.ipredictor.update(uop.tid, uop.pc, uop.target)
                    uop.predicted_taken = True
                    if not hit:
                        uop.mispredicted = True
                        thread.wrong_path = True
                        break
                else:
                    predicted = self.predictor.update(uop.tid, uop.pc, uop.taken)
                    uop.predicted_taken = predicted
                    if predicted != uop.taken:
                        uop.mispredicted = True
                        thread.wrong_path = True
                        break
            elif uop.complex_op:
                # complex macro-op: the MROM serializes decode for a few
                # cycles (string moves and the like, Section 3)
                thread.fetch_blocked_until = cycle + self._mrom_latency
                break
        # batched per-cycle stat flush
        stats.fetched += fetched

    def _peek_pc(self, thread: ThreadContext) -> int | None:
        if thread.wrong_path:
            return thread.wp_source.peek_pc()
        cursor = thread.cursor
        if cursor >= thread.n_records:
            return None
        return thread.cols.pc[cursor]

    def _next_fetch_uop(self, thread: ThreadContext) -> Uop | None:
        if thread.wrong_path:
            if not self.config.model_wrong_path:
                return None  # ablation: fetch idles until the redirect
            opclass, dest, src1, src2, pc, taken, mem_line = (
                thread.wp_source.next_record()
            )
            return Uop(
                thread.tid,
                opclass,
                dest=dest,
                src1=src1,
                src2=src2,
                pc=pc,
                seq=-1,
                taken=taken,
                mem_line=mem_line + thread.mem_offset,
                wrong_path=True,
            )
        cursor = thread.cursor
        if cursor >= thread.n_records:
            return None
        cols = thread.cols
        uop = Uop(
            thread.tid,
            cols.opclass[cursor],
            dest=cols.dest[cursor],
            src1=cols.src1[cursor],
            src2=cols.src2[cursor],
            pc=cols.pc[cursor],
            seq=cursor,
            taken=cols.taken[cursor],
            mem_line=cols.mem_line[cursor] + thread.mem_offset,
        )
        if cols.indirect[cursor]:
            uop.indirect = True
            uop.target = cols.target[cursor]
        if cols.complex_op[cursor]:
            uop.complex_op = True
        thread.cursor = cursor + 1
        thread.fetched_right_path += 1
        return uop

    # ------------------------------------------------------------------ #
    # measurement control                                                #
    # ------------------------------------------------------------------ #

    def prewarm_caches(self) -> None:
        """Install cache-resident traces' data working sets in the L2.

        The paper's traces are long enough to run at cache steady state;
        ours are short, so compulsory misses would otherwise dominate and
        distort the miss-triggered policies (Stall/Flush+).  Only traces
        classified ``ilp`` (Table 2's "highly parallel") are prewarmed: a
        memory-bounded trace's misses over its multi-L2-sized region *are*
        its defining property and must not be warmed away.  The L1 stays
        cold (refills from a warm L2 cost 12 cycles, a negligible startup
        transient).
        """
        access = self.mem.l2.access
        for line in self._prewarm_lines().tolist():
            access(line)
        self.mem.reset_stats()

    def _prewarm_lines(self):
        """The L2 lines :meth:`prewarm_caches` installs, in access order:
        each ``ilp`` thread's distinct data lines, ascending, offset into
        its address space, threads in order (an int64 array)."""
        import numpy as np

        parts = [np.empty(0, dtype=np.int64)]
        for thread in self.threads:
            if thread.trace.kind != "ilp":
                continue
            rec = thread.trace.records
            mem_mask = (rec["opclass"] == _LOAD) | (rec["opclass"] == _STORE)
            parts.append(np.unique(rec["mem_line"][mem_mask]) + thread.mem_offset)
        return np.concatenate(parts)

    def reset_measurement(self) -> None:
        """Zero all statistics while keeping architectural/micro state.

        Used by the run API's warmup phase: caches, predictor and trace
        cache stay warm, in-flight instructions stay in flight, but every
        counter the figures read restarts from zero.
        """
        self.stats = SimStats(self.config.num_threads)
        self.mem.reset_stats()
        self.tc.reset_stats()
        self.predictor.reset_stats()
        self.ipredictor.reset_stats()
        self.icn.transfers = 0
        self.icn.queue_wait_cycles = 0
        self.mob.forwards = 0
        if self.tel is not None:
            # telemetry covers the measured region only: drop warmup
            # samples/events and re-baseline the delta counters
            self.tel.reset(self)

    # ------------------------------------------------------------------ #
    # end-of-run summary                                                 #
    # ------------------------------------------------------------------ #

    def finalize_stats(self) -> SimStats:
        """Fold component counters into ``stats.extra`` and return stats."""
        s = self.stats
        s.extra.update(
            l1_hit_rate=self.mem.l1.hit_rate,
            l2_hit_rate=self.mem.l2.hit_rate,
            l2_misses=self.mem.l2.misses,
            dtlb_misses=self.mem.dtlb.misses,
            bus_wait_cycles=self.mem.bus_wait_cycles,
            tc_hit_rate=self.tc.hit_rate,
            itlb_misses=self.tc.itlb_misses,
            branch_accuracy=self.predictor.accuracy,
            indirect_accuracy=self.ipredictor.accuracy,
            indirect_lookups=self.ipredictor.lookups,
            link_transfers=self.icn.transfers,
            link_queue_wait=self.icn.queue_wait_cycles,
            store_forwards=self.mob.forwards,
            mob_peak=self.mob.peak,
            iq_peaks=[c.iq.peak for c in self.clusters],
            reg_peaks=[
                [c.regs[k].peak_in_use for k in (0, 1)] for c in self.clusters
            ],
        )
        return s
