"""CDPRF — the paper's proposed Cluster-insensitive Dynamic Partitioned
Register File scheme (Section 5.2, Figures 7 and 8).

On top of CSSP (which won the issue-queue study), the register files of
each kind are treated as one logical pool across clusters (the paper shows
register management must be cluster-*insensitive* to avoid conflicting
with the IQ scheme) and partitioned dynamically:

* ``RFOC[t][k]`` accumulates, every cycle, the number of ``k``-class
  registers thread ``t`` is using **plus** its ``Starvation[t][k]`` counter
  (Figure 7).  Starvation counts consecutive cycles the thread's rename was
  blocked for lack of ``k`` registers and is reset on any non-starved
  cycle; folding it into RFOC makes the threshold grow quickly for a
  starved thread so its true demand can be measured next interval.
* Every ``interval`` cycles (the paper uses 128K so the division is a
  shift), the per-thread threshold becomes
  ``min(RFOC / interval, total_regs / num_threads)`` and RFOC resets
  (Figure 8).
* A thread below its threshold may always allocate.  Above it, it may
  allocate only while the remaining free registers still cover every other
  thread's unused reservation — the reserve-then-share rule of Section 5.2.
"""

from __future__ import annotations

from repro.policies.regfile_static import _RegMeteredCSSP


class CDPRFPolicy(_RegMeteredCSSP):
    """CSSP issue queues + dynamically partitioned (pooled) register files."""

    name = "cdprf"

    def __init__(self, interval: int = 128 * 1024) -> None:
        super().__init__()
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval

    def attach(self, proc) -> None:  # noqa: D102
        super().attach(proc)
        n = proc.config.num_threads
        self._totals = [
            sum(c.regs[k].capacity for c in proc.clusters) for k in range(2)
        ]
        equal = [max(1, t // n) for t in self._totals]
        self.threshold = [[equal[k] for k in range(2)] for _ in range(n)]
        self.rfoc = [[0, 0] for _ in range(n)]
        self.starvation = [[0, 0] for _ in range(n)]
        self._starved_now = [[False, False] for _ in range(n)]

    # -- admission ----------------------------------------------------------

    def may_alloc_reg(
        self, tid: int, regclass: int, cluster: int, needed: int = 1
    ) -> bool:
        assert self.proc is not None
        usage = self.total_usage(tid, regclass)
        if usage + needed <= self.threshold[tid][regclass]:
            return True
        # above threshold: only while other threads' reservations stay whole
        total_free = sum(
            c.regs[regclass].free_count for c in self.proc.clusters
        )
        reserved_unused = 0
        for other in range(self.proc.config.num_threads):
            if other == tid:
                continue
            reserved_unused += max(
                0,
                self.threshold[other][regclass]
                - self.total_usage(other, regclass),
            )
        return total_free - needed >= reserved_unused

    # -- counter machinery (Figures 7 & 8) -----------------------------------

    def on_reg_stall(self, tid: int, regclass: int) -> None:
        self._starved_now[tid][regclass] = True

    def on_cycle(self, cycle: int) -> None:
        assert self.proc is not None
        n = self.proc.config.num_threads
        for t in range(n):
            for k in range(2):
                if self._starved_now[t][k]:
                    self.starvation[t][k] += 1
                    self._starved_now[t][k] = False
                else:
                    self.starvation[t][k] = 0
                self.rfoc[t][k] += self.total_usage(t, k) + self.starvation[t][k]
        if cycle > 0 and cycle % self.interval == 0:
            self._end_interval(n)

    def _end_interval(self, num_threads: int) -> None:
        for t in range(num_threads):
            for k in range(2):
                avg = self.rfoc[t][k] // self.interval
                cap = max(1, self._totals[k] // num_threads)
                self.threshold[t][k] = max(1, min(avg, cap))
                self.rfoc[t][k] = 0
        assert self.proc is not None
        tel = self.proc.tel
        if tel is not None:
            tel.repartition(self.proc.cycle, self.threshold)
