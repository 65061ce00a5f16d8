"""Sweep execution engine: one dispatch loop over any executor.

A figure regeneration is a long list of independent simulations, each a
pure function of ``(scale, config, policy, workload)``.  This module fans
those simulations out and merges the results back through
:class:`ExperimentRunner`'s cache, so the serial code paths (and their
results) are untouched — the parallel layer only *prefetches* cache
entries.

**The seam** is the stdlib :class:`concurrent.futures.Executor`:
``submit(run_item, item)`` returns a future of
``(key, record, seconds, worker)``, where ``worker`` holds the fields that
name who ran the item.  Three executors implement it — the persistent
local process pool (:func:`get_executor`), the service's thread pool and
:class:`repro.fabric.coordinator.FabricHub`, which leases items to remote
workers over TCP.  Two shared pieces sit on top:

* :func:`run_items`, the **one blocking loop** behind
  :meth:`ExperimentRunner.sweep` on every executor: dedup and cache check,
  longest-expected-first (LPT) order from the cost model
  (:mod:`repro.experiments.costmodel`), a bounded in-flight window, the
  progress line and error mapping;
* :func:`complete_item`, the **one completion path**, which that loop and
  the service's dispatcher both call: cache put, cost-model calibration
  and the timing record.

Whether an item needs running at all is the runner's one done-rule,
:meth:`ExperimentRunner._done_record`, which :func:`is_complete` asks: the
result cache is the only record of what finished, so rerunning an
interrupted sweep executes exactly the missing keys.

The local pool is **persistent and lazily spawned**: one
:class:`~concurrent.futures.ProcessPoolExecutor` is shared by every sweep
of the process — across figure drivers and benchmark rounds — so workers
keep their warm per-scale :class:`ExperimentRunner` and memoized traces.
It grows on demand (a larger ``jobs=`` respawns it bigger; a smaller one
reuses it) and is torn down by :func:`shutdown` or at interpreter exit.
Every worker, local or remote, gets its traces the same way: memoized per
process, loaded from the on-disk trace cache or synthesized from the
item's seeds.

Scheduling and pooling never affect *what* is computed: workers run the
same ``run``/``run_single`` entry points the serial path uses, and the
final sweep assembly reads everything back from the cache, so a parallel
run is bit-identical to a serial one at any ``jobs=`` and on any executor,
with telemetry on or off (asserted by ``tests/experiments/test_parallel.py``,
``tests/experiments/test_dispatch_seam.py`` and
``tests/telemetry/test_parallel_telemetry.py``).

Worker counts resolve as ``jobs=`` argument > ``REPRO_JOBS`` environment
variable > default (``os.cpu_count()`` for the benchmark/figure drivers,
1 for a bare :class:`ExperimentRunner`).

Every completed item also leaves a timing record (predicted vs measured
seconds, who ran it, queue wait) in ``runner.sweep_log`` and — when the
runner has a ``cache_dir`` — appended to ``<cache_dir>/sweep_trace.jsonl``,
so sweep behaviour is observable after the fact.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import time
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from queue import SimpleQueue
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.config import ProcessorConfig
from repro.experiments import costmodel
from repro.telemetry import TelemetryConfig
from repro.trace.categories import WorkloadType, category_profile
from repro.trace.synthesis import generate_trace
from repro.trace.trace import Trace
from repro.trace.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import ExperimentRunner, RunKey, RunRecord, Scale


def resolve_jobs(jobs: int | None = None, default: int | None = None) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_JOBS`` > ``default``.

    ``default=None`` means "all cores" (the right default for the figure
    and benchmark drivers); library entry points pass ``default=1`` so an
    :class:`ExperimentRunner` never forks unless asked to.

    Malformed values fail *here*, before any pool is spawned, with a clear
    message — never as an uncaught ``ValueError`` mid-sweep — and
    non-positive counts clamp to 1.
    """
    if jobs is not None:
        try:
            return max(1, int(jobs))
        except (TypeError, ValueError):
            raise ValueError(
                f"jobs={jobs!r} is not a worker count; pass an integer >= 1"
            ) from None
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS={env!r} is not a worker count; set an integer "
                "like REPRO_JOBS=4 (values < 1 clamp to 1), or unset it"
            ) from None
    if default is not None:
        return max(1, int(default))
    return os.cpu_count() or 1


# --------------------------------------------------------------------------- #
# Work items: everything a worker needs, nothing it can rebuild               #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TraceSpec:
    """Seed-level identity of a generated trace (a few ints and strings)."""

    name: str
    category: str
    kind: str
    seed: int
    n_uops: int

    @classmethod
    def of(cls, trace: Trace) -> "TraceSpec":
        return cls(trace.name, trace.category, trace.kind, trace.seed, len(trace))

    def build(self) -> Trace:
        """Regenerate the trace; bit-identical to the original."""
        return generate_trace(
            category_profile(self.category, self.kind),
            seed=self.seed,
            n_uops=self.n_uops,
            name=self.name,
            category=self.category,
            kind=self.kind,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Seed-level identity of a 2-thread workload."""

    name: str
    category: str
    wtype: str  # WorkloadType value
    traces: tuple[TraceSpec, ...]

    @classmethod
    def of(cls, workload: Workload) -> "WorkloadSpec | None":
        """Spec for ``workload``, or None if its traces cannot be
        regenerated from seeds (hand-built test traces) — those run
        serially in the parent instead."""
        specs = []
        for tr in workload.traces:
            try:
                category_profile(tr.category, tr.kind)
            except KeyError:
                return None
            specs.append(TraceSpec.of(tr))
        return cls(
            workload.name, workload.category, workload.wtype.value, tuple(specs)
        )


@dataclass(frozen=True)
class WorkItem:
    """One simulation to run in a worker.

    Exactly one of ``workload`` (2-thread run) / ``single`` (single-thread
    reference run) is set.  ``key`` is computed by the parent so cache
    identity cannot drift between parent and worker.  When the parent
    collects telemetry, the item carries the telemetry configuration and
    base directory; the worker writes the same per-key export directory
    (and, since telemetry is deterministic, the same bytes) the serial
    path would.
    """

    key: "RunKey"
    scale: "Scale"
    config: ProcessorConfig
    policy: str
    stop: str
    workload: WorkloadSpec | None = None
    single: TraceSpec | None = None
    telemetry: TelemetryConfig | None = None
    telemetry_dir: str | None = None
    #: cycle engine the worker must use; the parent fills in its resolved
    #: backend name so a sweep never mixes engines because of divergent
    #: worker environments.  None (old items, hand-built tests) lets the
    #: worker's own resolution stand.  Backends are bit-identical, so this
    #: affects scheduling records and wall-clock only, never results.
    backend: str | None = None


# --------------------------------------------------------------------------- #
# Worker side: per-process memoization                                        #
# --------------------------------------------------------------------------- #

_worker_traces: dict[TraceSpec, Trace] = {}
_worker_runners: dict["Scale", "ExperimentRunner"] = {}


def _worker_trace(spec: TraceSpec) -> Trace:
    """``spec``'s trace, memoized per worker: loaded from the on-disk
    trace cache, or synthesized from the seed when that misses."""
    tr = _worker_traces.get(spec)
    if tr is None:
        tr = _worker_traces[spec] = spec.build()
    return tr


def _worker_runner(scale: "Scale") -> "ExperimentRunner":
    runner = _worker_runners.get(scale)
    if runner is None:
        from repro.experiments.runner import ExperimentRunner

        runner = _worker_runners[scale] = ExperimentRunner(scale, cache_dir=None)
    return runner


def run_item(
    item: WorkItem,
) -> tuple["RunKey", "RunRecord", float, dict[str, Any]]:
    """Run one simulation: the callable every executor is handed.

    Returns ``(key, record, seconds, worker)``.  ``seconds`` feeds the
    cost model; ``worker`` (``{"worker_pid": pid}``) goes verbatim into
    the timing record.
    """
    from pathlib import Path

    t0 = time.perf_counter()
    runner = _worker_runner(item.scale)
    # telemetry settings travel per item (the memoized runner is shared by
    # items from different sweeps, so both fields are assigned every time)
    runner.telemetry_dir = Path(item.telemetry_dir) if item.telemetry_dir else None
    runner.telemetry_config = item.telemetry
    if item.backend is not None:
        runner.backend = item.backend
    if item.single is not None:
        rec = runner.run_single(item.config, _worker_trace(item.single))
    else:
        assert item.workload is not None
        spec = item.workload
        workload = Workload(
            name=spec.name,
            category=spec.category,
            wtype=WorkloadType(spec.wtype),
            traces=tuple(_worker_trace(s) for s in spec.traces),
        )
        rec = runner.run(item.config, item.policy, workload, stop=item.stop)
    return item.key, rec, time.perf_counter() - t0, {"worker_pid": os.getpid()}


# --------------------------------------------------------------------------- #
# Parent side: persistent pool, cost model, completion, the dispatch loop     #
# --------------------------------------------------------------------------- #

_executor: ProcessPoolExecutor | None = None
_executor_jobs = 0
_cost_model: costmodel.CostModel | None = None
_atexit_registered = False


def cost_model() -> costmodel.CostModel:
    """The process-wide cost model, loaded once from
    :func:`repro.experiments.costmodel.default_path`."""
    global _cost_model
    if _cost_model is None:
        _cost_model = costmodel.CostModel(costmodel.default_path())
    return _cost_model


def get_executor(jobs: int) -> ProcessPoolExecutor:
    """The persistent local pool, grown (never shrunk) to at least ``jobs``.

    Workers are spawned lazily by the executor as items are submitted, so
    asking for a large pool costs nothing until the work arrives; keeping
    a larger-than-needed pool alive costs idle processes but preserves
    their warm trace/runner caches, which is the point.
    """
    global _executor, _executor_jobs, _atexit_registered
    if _executor is not None and jobs > _executor_jobs:
        shutdown()
    if _executor is None:
        _executor = ProcessPoolExecutor(max_workers=jobs)
        _executor_jobs = jobs
        if not _atexit_registered:
            atexit.register(shutdown)
            _atexit_registered = True
    return _executor


def shutdown() -> None:
    """Tear down the local pool and persist the cost model.

    Safe to call repeatedly; also runs at interpreter exit.  The next
    ``run_items`` call simply builds a fresh pool.
    """
    global _executor, _executor_jobs
    if _executor is not None:
        _executor.shutdown(wait=True)
        _executor = None
        _executor_jobs = 0
    if _cost_model is not None:
        _cost_model.save()


class _Progress:
    """Live ``hit/ran/total`` line on stderr.

    Cache-hit items are reported separately from executed ones, so a
    mostly-cached rerun shows how much real work remains instead of a
    misleading grand total.  Written to stderr only (never stdout, so
    ``repro-sim ... | jq`` style pipelines stay clean) and suppressed
    entirely when neither stdout nor stderr is a terminal — a redirected
    batch run gets no progress spam in its logs.
    """

    def __init__(self, to_run: int, hits: int, jobs: int, label: str) -> None:
        self.to_run = to_run
        self.hits = hits
        self.total = to_run + hits
        self.jobs = jobs
        self.done = 0
        self.label = label
        try:
            interactive = sys.stderr.isatty() and sys.stdout.isatty()
        except (AttributeError, ValueError):
            interactive = False
        self._tty = interactive
        if self._tty:
            print(self.header(), file=sys.stderr, flush=True)

    def header(self) -> str:
        return (
            f"[repro] {self.label}: {self.total} sims "
            f"({self.hits} cached, {self.to_run} to run) on {self.jobs} workers"
        )

    def line(self, key: "RunKey") -> str:
        return (
            f"[repro] {self.hits} hit + {self.done}/{self.to_run} ran "
            f"of {self.total} {key.policy}/{key.workload}"
        )

    def tick(self, key: "RunKey") -> None:
        self.done += 1
        if self._tty:
            print(f"\r{self.line(key)}\x1b[K", end="", file=sys.stderr, flush=True)

    def close(self) -> None:
        if self._tty:
            print(file=sys.stderr, flush=True)


def is_complete(runner: "ExperimentRunner", item: WorkItem) -> bool:
    """Whether ``item`` needs no execution: ``runner``'s done-rule.

    A probe: it counts nothing on ``runner``; the caller that serves the
    cached record instead of a simulation counts the hit."""
    return runner._done_record(item.key) is not None


def complete_item(
    runner: "ExperimentRunner",
    item: WorkItem,
    result: tuple["RunKey", "RunRecord", float, dict[str, Any]],
    *,
    label: str,
    predicted_s: float,
    submitted: float,
    tag: dict[str, str] | None = None,
) -> None:
    """Merge one executed simulation into ``runner``: the one completion path.

    ``result`` is what :func:`run_item` returned (through any executor),
    ``submitted`` the :func:`time.perf_counter` reading when the item was
    handed to its executor.  Writes the cache entry, counts it in
    ``sims_run``, calibrates the cost model, and records the timing —
    predicted vs measured seconds, queue wait, who ran it, plus ``tag`` —
    in ``runner.sweep_log`` and as one row of ``sweep_trace.jsonl``.
    """
    key, rec, seconds, worker = result
    runner._cache_put(key, rec)
    runner.sims_run += 1
    cost_model().observe(item, seconds)
    timing = {
        "label": label,
        "scale": key.scale,
        "policy": key.policy,
        "workload": key.workload,
        "backend": item.backend or runner.backend,
        "predicted_s": round(predicted_s, 6),
        "elapsed_s": round(seconds, 6),
        "wait_s": round(max(0.0, time.perf_counter() - submitted - seconds), 6),
        **worker,
        **(tag or {}),
    }
    runner.sweep_log.append(timing)
    if runner.cache_dir is not None:
        try:
            with open(runner.cache_dir / "sweep_trace.jsonl", "a") as fh:
                fh.write(json.dumps(timing) + "\n")
        except OSError:  # pragma: no cover - observability must never fail a run
            pass


def run_items(
    runner: "ExperimentRunner",
    items: Sequence[WorkItem],
    executor: Executor | None = None,
    *,
    jobs: int = 1,
    label: str = "sweep",
) -> int:
    """Run the cache-missing ``items`` on ``executor``; merge results back.

    Returns the number of simulations actually executed; each executed
    item counts in ``runner.sims_run`` and each already complete one in
    ``runner.cache_hits``.  ``executor=None`` is the persistent local
    pool with ``jobs`` workers, spawned only once there is work; with
    ``jobs <= 1`` it is a no-op — the caller's serial loop does the
    work — so the serial path never pays pool overhead.

    Dispatch is longest-expected-first.  On the local pool at most
    ``jobs + 1`` items are in flight, however large the persistent pool
    is: whenever one finishes, the longest remaining item is submitted,
    so no worker idles while work is pending.
    Any other executor (a :class:`~repro.fabric.coordinator.FabricHub`, a
    thread pool) receives every item up front, in that order, and applies
    its own backpressure: the hub leases within each worker's window.

    An item's exception ends the sweep and propagates (a dead local pool
    is reset first and reported as a :class:`RuntimeError`); items that
    finished before it stay cached.
    """
    if executor is None and jobs <= 1:
        return 0
    todo: list[WorkItem] = []
    hits = 0
    seen: set["RunKey"] = set()
    for item in items:
        if item.key in seen:
            continue
        seen.add(item.key)
        if is_complete(runner, item):
            hits += 1
        else:
            todo.append(item)
    runner.cache_hits += hits
    if not todo:
        return 0

    from repro.fabric.coordinator import FabricHub

    tcp = isinstance(executor, FabricHub)
    tag = {"executor": "tcp"} if tcp else {}
    model = cost_model()
    estimates, todo = model.lpt_order(todo)
    if executor is None:
        executor = get_executor(jobs)
        window = jobs + 1
    else:
        window = len(todo)
    workers = max(1, len(executor.conns)) if tcp else min(jobs, len(todo))
    progress = _Progress(
        len(todo), hits, workers, f"{label} [tcp]" if tcp else label
    )
    queue: deque[WorkItem] = deque(todo)
    inflight: dict[Future, tuple[WorkItem, float]] = {}
    finished: SimpleQueue[Future] = SimpleQueue()
    executed = 0

    def _submit_next() -> None:
        item = queue.popleft()
        fut = executor.submit(run_item, item)
        inflight[fut] = (item, time.perf_counter())
        fut.add_done_callback(finished.put)

    try:
        while queue and len(inflight) < window:
            _submit_next()
        while inflight:
            fut = finished.get()
            item, submitted = inflight.pop(fut)
            if fut.cancelled():
                continue
            result = fut.result()
            complete_item(
                runner, item, result, label=label,
                predicted_s=estimates[id(item)], submitted=submitted, tag=tag,
            )
            executed += 1
            progress.tick(item.key)
            if queue:
                _submit_next()
    except BrokenProcessPool:
        shutdown()  # reset so the next call gets a healthy pool
        raise RuntimeError(
            "sweep worker pool died mid-run (worker killed or crashed); "
            "the pool has been reset — re-run the sweep; what finished "
            "is cached"
        ) from None
    finally:
        for fut in inflight:
            fut.cancel()
        progress.close()
        model.save()
    return executed


def sweep_items(
    runner: "ExperimentRunner",
    config: ProcessorConfig,
    policies: Iterable[str],
    workloads: Iterable[Workload],
    stop: str = "first_done",
) -> list[WorkItem]:
    """Work items for every (policy, workload) pair of a sweep.

    Workloads whose traces cannot be regenerated from seeds are skipped
    (the serial pass after the prefetch still runs them in-parent).
    """
    items: list[WorkItem] = []
    tel_cfg, tel_dir = _telemetry_fields(runner)
    for wl in workloads:
        spec = WorkloadSpec.of(wl)
        if spec is None:
            continue
        for policy in policies:
            items.append(
                WorkItem(
                    key=runner.key_for(config, policy, wl, stop=stop),
                    scale=runner.scale,
                    config=config,
                    policy=policy,
                    stop=stop,
                    workload=spec,
                    telemetry=tel_cfg,
                    telemetry_dir=tel_dir,
                    backend=runner.backend,
                )
            )
    return items


def single_items(
    runner: "ExperimentRunner",
    config: ProcessorConfig,
    traces: Iterable[Trace],
) -> list[WorkItem]:
    """Work items for single-thread reference runs (fairness baselines)."""
    items: list[WorkItem] = []
    tel_cfg, tel_dir = _telemetry_fields(runner)
    for tr in traces:
        try:
            category_profile(tr.category, tr.kind)
        except KeyError:
            continue
        items.append(
            WorkItem(
                key=runner.key_for_single(config, tr),
                scale=runner.scale,
                config=config,
                policy="icount",
                stop="all_done",
                single=TraceSpec.of(tr),
                telemetry=tel_cfg,
                telemetry_dir=tel_dir,
                backend=runner.backend,
            )
        )
    return items


def _telemetry_fields(
    runner: "ExperimentRunner",
) -> tuple[TelemetryConfig | None, str | None]:
    """The runner's telemetry settings in WorkItem (picklable) form."""
    if runner.telemetry_dir is None:
        return None, None
    return runner.telemetry_config, str(runner.telemetry_dir)
