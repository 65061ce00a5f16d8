"""Cached experiment runner.

All figure reproductions funnel their simulations through one
:class:`ExperimentRunner`, which:

* owns the workload pool for the chosen :class:`Scale` (``quick`` for CI
  and the default benchmark run, ``full`` for a paper-scale overnight run —
  select with the ``REPRO_SCALE`` environment variable);
* caches results in memory and, when given a ``cache_dir``, on disk as
  JSON, keyed by (scale, config digest, policy, workload, run parameters) —
  Figures 2-5 share runs, Figure 10 reuses Figure 2's Icount runs, and
  repeated benchmark invocations are free;
* provides the single-thread reference runs the fairness metric needs;
* fans sweeps out over worker processes when asked to (``jobs=`` or the
  ``REPRO_JOBS`` environment variable — see
  :mod:`repro.experiments.parallel`); the parallel path only prefetches
  cache entries, so results are bit-identical to a serial run.

The disk cache is the only record of what finished: a rerun of an
interrupted sweep on the same ``cache_dir`` re-executes only the keys
:meth:`ExperimentRunner._done_record` does not find done.  Disk cache
writes go through a temp file and :func:`os.replace`, so concurrent
runners sharing one ``cache_dir`` never observe a half-written entry;
unreadable entries (e.g. left by a killed writer predating the atomic
scheme) are treated as misses and re-run.

Every simulation uses warmup (a fraction of the trace) and ILP-trace cache
prewarm, per DESIGN.md's steady-state substitution notes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.config import ProcessorConfig, baseline_config
from repro.core.backends import resolve_backend
from repro.core.simulator import SimResult, run_simulation
from repro.telemetry import Telemetry, TelemetryConfig, export_all, exports_complete
from repro.trace.trace import Trace
from repro.trace.workloads import Workload, WorkloadPool, build_pool


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    n_uops: int          # per-thread trace length
    n_ilp: int           # workloads per category per type
    n_mem: int
    n_mix: int
    n_mixes_category: int
    warmup_frac: float = 0.25
    max_cycles_factor: int = 25  # max cycles = factor * n_uops

    @property
    def warmup_uops(self) -> int:
        return int(self.n_uops * self.warmup_frac)

    @property
    def max_cycles(self) -> int:
        return self.max_cycles_factor * self.n_uops


#: Predefined scales.  ``quick`` is the scale of the committed figures
#: (``pytest benchmarks/``); ``full`` matches Table 2's workload counts.
SCALES: dict[str, Scale] = {
    "smoke": Scale("smoke", n_uops=2500, n_ilp=1, n_mem=1, n_mix=1, n_mixes_category=2),
    "quick": Scale("quick", n_uops=8000, n_ilp=1, n_mem=1, n_mix=1, n_mixes_category=4),
    "medium": Scale("medium", n_uops=12000, n_ilp=2, n_mem=2, n_mix=1, n_mixes_category=8),
    "full": Scale("full", n_uops=30000, n_ilp=3, n_mem=3, n_mix=2, n_mixes_category=32),
}


def scale_from_env(default: str = "quick") -> Scale:
    """Resolve the scale from ``REPRO_SCALE`` (smoke/quick/medium/full)."""
    name = os.environ.get("REPRO_SCALE", default)
    if name not in SCALES:
        raise KeyError(f"REPRO_SCALE={name!r}; known scales: {sorted(SCALES)}")
    return SCALES[name]


@dataclass(frozen=True)
class RunKey:
    """Cache identity of one simulation."""

    scale: str
    config: str        # ProcessorConfig digest
    policy: str
    workload: str      # "category/name" or "st/<trace name>"
    stop: str

    def filename(self) -> str:
        safe = self.workload.replace("/", "_").replace("+", "p")
        return f"{self.scale}-{self.config}-{self.policy}-{safe}-{self.stop}.json"


@dataclass(frozen=True)
class RunRecord:
    """The slice of a SimResult the figures consume (JSON-serializable)."""

    ipc: float
    cycles: int
    committed: int
    committed_per_thread: tuple[int, ...]
    copies_per_committed: float
    iq_stalls_per_committed: float
    imbalance: dict[str, list[int]]
    flushes: int
    extra: dict[str, Any]

    @classmethod
    def from_result(cls, res: SimResult) -> "RunRecord":
        """Extract the cacheable slice of a full simulation result."""
        return cls(
            ipc=res.ipc,
            cycles=res.cycles,
            committed=res.committed,
            committed_per_thread=tuple(res.committed_per_thread),
            copies_per_committed=res.stats["copies_per_committed"],
            iq_stalls_per_committed=res.stats["iq_stalls_per_committed"],
            imbalance=res.stats["imbalance"],
            flushes=res.stats["flushes"],
            extra=res.stats["extra"],
        )

    def thread_ipc(self, tid: int) -> float:
        return self.committed_per_thread[tid] / self.cycles if self.cycles else 0.0


class ExperimentRunner:
    """Workload pool + cached simulation front door."""

    #: Always None: the result cache is the only record of what finished.
    #: ``perfbench/workloads.py`` (``FigSweep.close``) still reads it.
    journal = None

    def __init__(
        self,
        scale: Scale | str | None = None,
        cache_dir: str | Path | None = None,
        pool: WorkloadPool | None = None,
        jobs: int | None = None,
        telemetry_dir: str | Path | None = None,
        telemetry: TelemetryConfig | None = None,
        backend: str | None = None,
        executor: str | None = None,
        fabric: "Any | None" = None,
    ) -> None:
        if scale is None:
            scale = scale_from_env()
        if isinstance(scale, str):
            scale = SCALES[scale]
        self.scale = scale
        self._pool = pool
        self._memory: dict[RunKey, RunRecord] = {}
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Telemetry collection: enabled by telemetry_dir.  Each run exports
        # into its own subdirectory named after the cache key, so telemetry
        # identity matches cache identity (and worker processes write the
        # same bytes the serial path would).  The default sample interval
        # scales with the run length, like CDPRF's adaptation interval —
        # every scale gets several samples per run.
        self.telemetry_dir = Path(telemetry_dir) if telemetry_dir else None
        self.telemetry_config = telemetry or (
            TelemetryConfig(sample_interval=max(64, scale.n_uops // 16))
            if telemetry_dir
            else None
        )
        # Worker processes for sweep()/run_singles(); default stays serial
        # unless REPRO_JOBS is set, so library users never fork by surprise.
        from repro.experiments.parallel import resolve_jobs

        self.jobs = resolve_jobs(jobs, default=1)
        # Cycle-engine selection for every simulation this runner launches.
        # Resolved eagerly (argument > REPRO_BACKEND > default) so an
        # invalid name fails here, at construction, and so worker processes
        # receive a concrete backend name via their WorkItems instead of
        # re-reading their own environment.  Backends are bit-identical by
        # contract, so RunKey (and the disk cache) deliberately does not
        # include the backend; the sweep log records which one ran.
        self.backend = resolve_backend(backend)
        #: simulations run, and cached records served in place of one
        #: (neither moves with ``jobs=`` or the executor)
        self.sims_run = 0
        self.cache_hits = 0
        #: scheduling/timing records of dispatched items (one dict per
        #: executed item; see repro.experiments.parallel.complete_item)
        self.sweep_log: list[dict[str, Any]] = []
        # Sweep executor: "local" (the shared process pool; default) or
        # "tcp" (a repro.fabric hub leasing items to remote workers).
        # Resolved eagerly — argument > REPRO_EXECUTOR > local — so an
        # unknown name fails at construction, not mid-sweep.  ``fabric``
        # carries the coordinator's :class:`repro.fabric.FabricSettings`
        # (bind address, lease timeout) and is ignored by the local
        # executor.
        from repro.fabric import resolve_executor

        self.executor = resolve_executor(executor)
        self.fabric = fabric

    # -- pool ---------------------------------------------------------------

    @property
    def pool(self) -> WorkloadPool:
        """The scale's workload pool, built lazily and reused."""
        if self._pool is None:
            s = self.scale
            self._pool = build_pool(
                n_uops=s.n_uops,
                n_ilp=s.n_ilp,
                n_mem=s.n_mem,
                n_mix=s.n_mix,
                n_mixes_category=s.n_mixes_category,
            )
        return self._pool

    def ispec_fspec_pool(self, n: int = 4) -> WorkloadPool:
        """The expanded ISPEC-FSPEC pool Figure 9 plots (ilp/mem/mix.2.*)."""
        s = self.scale
        return build_pool(
            n_uops=s.n_uops,
            n_ilp=n,
            n_mem=n,
            n_mix=2 * n,
            n_mixes_category=0,
            categories=("ISPEC-FSPEC",),
        )

    def _make_policy(self, policy: str):
        """Instantiate a policy, adapting CDPRF's interval to the run length.

        The paper uses a 128K-cycle interval on traces billions of
        instructions long; our runs last tens of thousands of cycles, so
        the interval scales proportionally (several adaptations per run,
        as in the paper).  Every simulation the runner launches, and
        ``repro-sim run``, builds its policy here.
        """
        from repro.policies.registry import make_policy

        if policy == "cdprf":
            return make_policy("cdprf", interval=max(512, self.scale.n_uops // 8))
        return make_policy(policy)

    # -- cached running -------------------------------------------------------

    def key_for(
        self,
        config: ProcessorConfig,
        policy: str,
        workload: Workload,
        stop: str = "first_done",
    ) -> RunKey:
        """Cache identity of a 2-thread run (shared with the parallel path)."""
        return RunKey(
            self.scale.name,
            config.digest(),
            policy,
            f"{workload.category}/{workload.name}",
            stop,
        )

    def key_for_single(self, config: ProcessorConfig, trace: Trace) -> RunKey:
        """Cache identity of a single-thread reference run.

        ``config`` is the *multithreaded* config; the reference run always
        executes on its single-thread variant under Icount to completion.
        """
        st_config = config.with_threads(1)
        return RunKey(
            self.scale.name, st_config.digest(), "icount", f"st/{trace.name}", "all_done"
        )

    def _cache_get(self, key: RunKey) -> RunRecord | None:
        """The cached record of ``key``, or None (a probe: counts nothing)."""
        if key in self._memory:
            return self._memory[key]
        if self.cache_dir:
            path = self.cache_dir / key.filename()
            try:
                data = json.loads(path.read_text())
                rec = RunRecord(
                    **{
                        **data,
                        "committed_per_thread": tuple(data["committed_per_thread"]),
                    }
                )
            except FileNotFoundError:
                return None
            except (OSError, ValueError, TypeError, KeyError):
                # Unreadable or truncated entry (e.g. a writer killed before
                # the atomic-replace scheme existed): drop it and re-run.
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            self._memory[key] = rec
            return rec
        return None

    def telemetry_path(self, key: RunKey) -> Path | None:
        """Per-run telemetry export directory (None when disabled)."""
        if self.telemetry_dir is None:
            return None
        return self.telemetry_dir / key.filename()[: -len(".json")]

    def _telemetry_for(self, key: RunKey) -> tuple[Telemetry | None, Path | None]:
        """A fresh Telemetry hook + its export dir, when collection is on."""
        teldir = self.telemetry_path(key)
        if teldir is None:
            return None, None
        return Telemetry(self.telemetry_config), teldir

    def _export_telemetry(self, tel: Telemetry, teldir: Path, key: RunKey) -> None:
        export_all(
            tel,
            teldir,
            meta={
                "scale": key.scale,
                "config": key.config,
                "policy": key.policy,
                "workload": key.workload,
                "stop": key.stop,
            },
        )

    def _cache_put(self, key: RunKey, rec: RunRecord) -> None:
        self._memory[key] = rec
        if self.cache_dir:
            path = self.cache_dir / key.filename()
            # Write-then-rename so a concurrent reader (another runner
            # sharing this cache_dir, possibly in another process) only ever
            # sees complete entries; os.replace is atomic within a filesystem.
            # mkstemp (not a pid-derived name) so two *threads* racing on the
            # same key in one process cannot share — and steal — a temp file.
            fd, tmp = tempfile.mkstemp(
                dir=self.cache_dir, prefix=f".{path.name}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(dataclasses.asdict(rec)))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _done_record(self, key: RunKey) -> RunRecord | None:
        """The record of ``key`` if it is done, else None: the one done-rule
        of the serial path and of every dispatcher (a probe: counts nothing).

        A key is done when its cache entry reads back and, with telemetry
        on, its export directory holds ``meta.json``, which is written last.
        """
        rec = self._cache_get(key)
        if rec is None:
            return None
        teldir = self.telemetry_path(key)
        if teldir is not None and not exports_complete(teldir):
            return None
        return rec

    def _run_cached(
        self,
        key: RunKey,
        config: ProcessorConfig,
        policy: str,
        traces: list[Trace],
        warmup_uops: int,
        count_hit: bool = True,
    ) -> RunRecord:
        """Serve ``key`` from the cache or simulate it: the one cached-run
        path behind :meth:`run`, :meth:`run_single` and the sweeps.

        A key :meth:`_done_record` does not find done re-runs
        (bit-identical, so a rewritten cache entry does not change).  A served record counts
        as a cache hit unless ``count_hit`` is False: a sweep assembling
        what its prefetch just decided on has already counted each key as
        run or hit.
        """
        cached = self._done_record(key)
        if cached is not None:
            if count_hit:
                self.cache_hits += 1
            return cached
        tel, teldir = self._telemetry_for(key)
        res = run_simulation(
            config,
            self._make_policy(policy),
            traces,
            max_cycles=self.scale.max_cycles,
            stop=key.stop,
            workload_name=key.workload,
            warmup_uops=warmup_uops,
            prewarm_caches=True,
            telemetry=tel,
            backend=self.backend,
        )
        rec = RunRecord.from_result(res)
        if tel is not None and teldir is not None:
            self._export_telemetry(tel, teldir, key)
        self._cache_put(key, rec)
        self.sims_run += 1
        return rec

    def run(
        self,
        config: ProcessorConfig,
        policy: str,
        workload: Workload,
        stop: str = "first_done",
    ) -> RunRecord:
        """Simulate (or fetch from cache) one 2-thread workload."""
        key = self.key_for(config, policy, workload, stop=stop)
        return self._run_cached(
            key, config, policy, list(workload.traces), self.scale.warmup_uops
        )

    def run_single(self, config: ProcessorConfig, trace: Trace) -> RunRecord:
        """Single-thread reference run (fairness denominator), cached."""
        key = self.key_for_single(config, trace)
        return self._run_cached(
            key,
            config.with_threads(1),
            "icount",
            [trace],
            self.scale.warmup_uops // 2,
        )

    # -- sweeps ---------------------------------------------------------------

    def _effective_jobs(self, jobs: int | None) -> int:
        return self.jobs if jobs is None else max(1, int(jobs))

    def _prefetch(self, items: list, jobs: int, label: str) -> set[RunKey]:
        """Run the cache misses among ``items`` on this runner's executor
        (the fabric hub for ``tcp``, else the local pool of ``jobs``).

        Returns the keys of ``items``: the prefetch has counted each one
        as run or as a cache hit, so the assembly pass must not count it
        again."""
        from repro.experiments import parallel

        hub = None
        if self.executor == "tcp":
            from repro.fabric import get_hub

            hub = get_hub(self.fabric)
        parallel.run_items(self, items, hub, jobs=jobs, label=label)
        return {item.key for item in items}

    def sweep(
        self,
        config: ProcessorConfig,
        policies: Iterable[str],
        workloads: Iterable[Workload] | None = None,
        jobs: int | None = None,
        label: str = "sweep",
    ) -> dict[tuple[str, str, str], RunRecord]:
        """Run every (policy, workload) pair; returns
        ``{(policy, category, name): record}``.

        With ``jobs > 1`` (argument, constructor, or ``REPRO_JOBS``) the
        cache misses run on a process pool first; the serial loop below
        then assembles the result entirely from cache, so ordering and
        contents are identical to a serial sweep.  ``label`` names the
        sweep in progress lines and scheduling records.
        """
        policies = list(policies)
        wls = list(workloads) if workloads is not None else list(self.pool)
        n_jobs = self._effective_jobs(jobs)
        prefetched: set[RunKey] = set()
        if n_jobs > 1 or self.executor != "local":
            from repro.experiments import parallel

            prefetched = self._prefetch(
                parallel.sweep_items(self, config, policies, wls), n_jobs, label
            )
        out: dict[tuple[str, str, str], RunRecord] = {}
        for policy in policies:
            for wl in wls:
                key = self.key_for(config, policy, wl)
                out[(policy, wl.category, wl.name)] = self._run_cached(
                    key,
                    config,
                    policy,
                    list(wl.traces),
                    self.scale.warmup_uops,
                    count_hit=key not in prefetched,
                )
        return out

    def run_singles(
        self,
        config: ProcessorConfig,
        traces: Iterable[Trace],
        jobs: int | None = None,
        label: str = "single-thread refs",
    ) -> list[RunRecord]:
        """Single-thread reference runs for ``traces``, in order.

        The batch form of :meth:`run_single`: with ``jobs > 1`` the cache
        misses are prefetched on the worker pool (Figure 10 needs one
        reference run per pool trace, all independent).
        """
        traces = list(traces)
        n_jobs = self._effective_jobs(jobs)
        prefetched: set[RunKey] = set()
        if n_jobs > 1 or self.executor != "local":
            from repro.experiments import parallel

            prefetched = self._prefetch(
                parallel.single_items(self, config, traces), n_jobs, label
            )
        out = []
        for tr in traces:
            key = self.key_for_single(config, tr)
            out.append(
                self._run_cached(
                    key,
                    config.with_threads(1),
                    "icount",
                    [tr],
                    self.scale.warmup_uops // 2,
                    count_hit=key not in prefetched,
                )
            )
        return out


def figure2_config(iq_entries: int) -> ProcessorConfig:
    """Figure 2-5 machine: unbounded RF/ROB isolates the issue queues."""
    return baseline_config(unbounded_regs=True, unbounded_rob=True).with_iq_entries(
        iq_entries
    )


def figure6_config(regs: int) -> ProcessorConfig:
    """Figure 6/9/10 machine: bounded registers, 32-entry IQs."""
    return baseline_config().with_iq_entries(32).with_regs(regs)
