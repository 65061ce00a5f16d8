"""Top-level run API.

``run_simulation`` drives a :class:`~repro.core.processor.Processor` to one
of the standard stopping points and returns an immutable
:class:`SimResult`.  The default stop mode is ``"first_done"`` — simulate
until the first thread commits its whole trace — which is the standard
multiprogram SMT methodology (all threads were co-running for every counted
cycle, so per-thread IPCs are directly comparable against single-thread
reference runs for the fairness metric).

The engine behind the run is chosen by ``backend=`` /
``REPRO_BACKEND`` (:mod:`repro.core.backends`); every backend steps
every cycle and serves this API bit-identically, including the
whole-loop compiled engine (``cloop``), whose warmup and measurement
phases each execute as bounded C regions with the observable counters
exported at the phase boundaries this module drives
(``reset_measurement``, ``finalize_stats``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.config import ProcessorConfig
from repro.core.backends import processor_class, resolve_backend
from repro.core.stats import SimStats
from repro.frontend.steering import Steering
from repro.policies.base import ResourcePolicy
from repro.policies.registry import make_policy
from repro.trace.trace import Trace
from repro.trace.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.telemetry import Telemetry

_STOP_MODES = ("first_done", "all_done", "cycles")


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run."""

    policy: str
    workload: str
    cycles: int
    committed: int
    committed_per_thread: tuple[int, ...]
    ipc: float
    stats: dict[str, Any] = field(repr=False)
    config_digest: str = ""
    wall_seconds: float = 0.0

    def thread_ipc(self, tid: int) -> float:
        return self.committed_per_thread[tid] / self.cycles if self.cycles else 0.0


def run_simulation(
    config: ProcessorConfig,
    policy: ResourcePolicy | str,
    traces: list[Trace],
    max_cycles: int = 2_000_000,
    stop: str = "first_done",
    workload_name: str = "",
    steering: Steering | None = None,
    warmup_uops: int = 0,
    prewarm_caches: bool = False,
    telemetry: "Telemetry | None" = None,
    backend: str | None = None,
) -> SimResult:
    """Simulate ``traces`` under ``policy`` until the stop condition.

    ``policy`` may be a policy instance or a registry name.  ``stop`` is
    ``"first_done"`` (default), ``"all_done"`` or ``"cycles"`` (run exactly
    ``max_cycles``).  ``warmup_uops`` commits that many instructions before
    statistics start counting, so compulsory cache/predictor misses do not
    skew short runs (the paper's traces are long enough not to need this).
    ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry` hook that
    collects interval samples and trace events during the measured region;
    results are unchanged whether or not it is present.  ``backend``
    selects the cycle engine (``"reference"``, ``"vectorized"`` or
    ``"cloop"``); ``None`` defers to the ``REPRO_BACKEND`` environment
    variable, then the default.  Backends are bit-identical by contract,
    so the result — including its stats dict and any telemetry exports —
    does not depend on the choice.

    The stop condition is checked every cycle against the processor's O(1)
    finished-thread count, so ``first_done``/``all_done`` runs stop at the
    exact cycle the deciding thread commits its last uop (an earlier
    engine polled every 16 cycles and could overshoot, skewing ``cycles``
    and the per-thread IPCs computed from it).
    """
    if stop not in _STOP_MODES:
        raise ValueError(f"stop must be one of {_STOP_MODES}, got {stop!r}")
    if isinstance(policy, str):
        policy = make_policy(policy)
    proc_cls = processor_class(resolve_backend(backend))
    proc = proc_cls(config, policy, traces, steering=steering, telemetry=telemetry)
    if prewarm_caches:
        proc.prewarm_caches()

    try:
        t0 = time.perf_counter()
        if warmup_uops > 0:
            proc.run_loop(max_cycles, commit_target=warmup_uops)
            proc.reset_measurement()
        proc.run_loop(max_cycles, stop=stop)
        wall = time.perf_counter() - t0
        stats: SimStats = proc.finalize_stats()
    finally:
        proc.release()  # the machine is done; the stats are Python objects
    return SimResult(
        policy=policy.name,
        workload=workload_name or "+".join(t.name for t in traces),
        cycles=stats.cycles,
        committed=stats.committed,
        committed_per_thread=tuple(stats.committed_per_thread),
        ipc=stats.ipc,
        stats=stats.as_dict(),
        config_digest=config.digest(),
        wall_seconds=wall,
    )


def run_workload(
    config: ProcessorConfig,
    policy: ResourcePolicy | str,
    workload: Workload,
    **kwargs: Any,
) -> SimResult:
    """Convenience wrapper: simulate a 2-thread :class:`Workload`."""
    return run_simulation(
        config,
        policy,
        list(workload.traces),
        workload_name=f"{workload.category}/{workload.name}",
        **kwargs,
    )


def run_single_thread(
    config: ProcessorConfig,
    trace: Trace,
    policy: ResourcePolicy | str = "icount",
    **kwargs: Any,
) -> SimResult:
    """Reference single-thread run (fairness denominators).

    Uses the full machine (both clusters, unrestricted) under Icount, which
    degenerates to plain dependence/balance steering with one thread.
    """
    return run_simulation(
        config.with_threads(1),
        policy,
        [trace],
        stop=kwargs.pop("stop", "all_done"),
        workload_name=f"st/{trace.name}",
        **kwargs,
    )
