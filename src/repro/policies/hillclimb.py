"""Hill-climbing resource distribution adapted to clusters (future work).

Choi & Yeung's learning-based scheme [32] treats the per-thread resource
partition as a black-box optimization variable: run an epoch, observe
performance, move the partition in the direction that helped, repeat.

Adapted here per the paper's conclusions (cluster-sensitive issue queues,
cluster-insensitive registers):

* the variable is a single *bias* b in [-max_bias, +max_bias]: thread 0's
  IQ share per cluster is ``capacity/2 + b`` (thread 1 gets the mirror),
  and its per-class register share is scaled by the same relative bias;
* every ``epoch`` cycles the committed-uop throughput of the finished
  epoch is compared to the previous one: if throughput improved, keep
  moving the bias in the same direction, otherwise reverse (classic
  1-dimensional hill climbing with fixed step);
* two threads only — the paper's workloads are all 2-threaded.
"""

from __future__ import annotations

from repro.policies.regfile_static import _RegMeteredCSSP


class HillClimbPolicy(_RegMeteredCSSP):
    """Epoch-based hill climbing on the inter-thread partition bias."""

    name = "hillclimb"

    def __init__(self, epoch: int = 2048, step: int = 2, max_bias: int = 8) -> None:
        super().__init__()
        if epoch <= 0 or step <= 0 or max_bias <= 0:
            raise ValueError("epoch, step and max_bias must be positive")
        self.epoch = epoch
        self.step = step
        self.max_bias = max_bias
        self.bias = 0           # entries of IQ share moved from t1 to t0
        self._direction = 1
        self._last_committed = 0
        self._last_ipc = -1.0

    def attach(self, proc) -> None:  # noqa: D102
        super().attach(proc)
        if proc.config.num_threads != 2:
            self.bias = 0  # degenerate to CSSP shares for ST runs

    # -- learning loop --------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        assert self.proc is not None
        if self.proc.config.num_threads != 2:
            return
        if cycle % self.epoch:
            return
        committed = self.proc.stats.committed
        ipc = (committed - self._last_committed) / self.epoch
        self._last_committed = committed
        if self._last_ipc >= 0.0 and ipc < self._last_ipc:
            self._direction = -self._direction  # last move hurt: reverse
        self._last_ipc = ipc
        self.bias = max(
            -self.max_bias, min(self.max_bias, self.bias + self._direction * self.step)
        )
        self.proc.note_admission_change()  # bias moved: admission changed

    def _iq_share_for(self, tid: int, capacity: int) -> int:
        half = capacity // 2
        share = half + (self.bias if tid == 0 else -self.bias)
        return max(2, min(capacity - 2, share))

    # -- admission ------------------------------------------------------------

    def may_dispatch(self, tid: int, cluster: int, needed: int = 1) -> bool:
        assert self.proc is not None
        iq = self.proc.clusters[cluster].iq
        if self.proc.config.num_threads != 2:
            return True
        return iq.per_thread[tid] + needed <= self._iq_share_for(tid, iq.capacity)

    def may_alloc_reg(
        self, tid: int, regclass: int, cluster: int, needed: int = 1
    ) -> bool:
        assert self.proc is not None
        if self.proc.config.num_threads != 2:
            return True
        total = sum(c.regs[regclass].capacity for c in self.proc.clusters)
        # scale the register share by the same relative bias as the IQ
        iq_cap = self.proc.clusters[0].iq.capacity
        share = int(total * self._iq_share_for(tid, iq_cap) / iq_cap)
        return self.total_usage(tid, regclass) + needed <= max(4, share)
