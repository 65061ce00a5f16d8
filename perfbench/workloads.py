"""The benchmark's three workloads: inputs from a seed, set-up, jobs.

Each workload is a closed loop with one client: the next job starts when
the previous one has returned.  ``--seed`` drives the job order; the
program only ever sees the generated requests.  All three run on the
``cloop`` backend in one process.

``fig2_ctable``
    Figure 2's issue-queue machine (unbounded RF/ROB, 32-entry IQs) x the
    five schemes of the C policy table x the quick pool, one
    ``ExperimentRunner.run`` per job into a fresh result cache.  Every
    job runs in the C kernel, so marshal and kernel changes show here
    and fallback changes should not.
``fig6_fallback``
    Figure 6/9/10's machine (64 registers per cluster, 32-entry IQs) x
    the five schemes outside the C table x the smoke pool.  All five
    carry live policy hooks and delegate to the Python engine, so engine
    changes show here and a marshal fix must not.
``service_sweeps``
    The in-process HTTP service (thread executor, one slot, no rate
    limit, so a faster service cannot turn into 429s).  A job is a smoke
    sweep of one C-table scheme over two adjacent categories, timed from
    submit to the result document.  Every fourth job asks for a new
    machine config (six simulations, written to the result cache); the
    other three re-request a seeded-random earlier sweep (six cache
    reads, no engine work).

The pools are the repository's standard pools, so every seed runs the
same simulations: the seed shuffles each round's job order (figure
workloads), and orders the fresh sweeps and picks the re-requests
(service).  A seed that also drew the pool's ``mixes`` pairs moved
fig2_ctable's p90 by up to 22% between seeds, because the pairs'
ILP/MEM kinds decide how many slow jobs a round holds.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from spans import NullTracer

#: the seed of the committed expected records (any seed runs the same
#: simulations; see the module docstring)
DEFAULT_SEED = 2008
#: build_pool's seed: the repository's standard quick and smoke pools
POOL_SEED = 2008

C_TABLE = ("icount", "cisp", "cssp", "cspsp", "pc")
FALLBACK = ("cssprf", "cisprf", "cdprf", "stall", "flush+")

#: categories with three smoke workloads each, in the program's order;
#: a service sweep covers two neighbours (six items)
_SWEEP_CATEGORIES = (
    "DH", "FSPEC00", "ISPEC00", "ISPEC-FSPEC", "multimedia", "office",
    "productivity", "server", "miscellanea", "workstation",
)
_SWEEP_REGS = (None, 56, 72, 96, 128)

#: a job slower than this (raw seconds) counts as failed
JOB_TIMEOUT_S = 60.0


class JobFailed(RuntimeError):
    """A job that finished without a usable result."""


def canonical(record: Any) -> str:
    """The canonical JSON text of one result record (tuples as lists)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_key(scale: str, config, policy: str, workload, stop="first_done") -> str:
    """Oracle identity of one simulation: machine, scheme and trace pair."""
    names = "+".join(t.name for t in workload.traces)
    return f"{scale}|{config.digest()}|{policy}|{names}|{stop}"


@dataclass
class Outcome:
    """What one job returned, in the oracle's terms."""

    records: dict[str, str]  # oracle key -> canonical record JSON
    sim_uops: int  # committed uops of the simulations that ran
    sims: int  # simulations that ran (cache hits excluded)
    scheme: str
    events: int = 0  # service: NDJSON events received
    queue_wait_s: float = 0.0  # service: from the job document
    run_s: float = 0.0


def load_pool(scale_name: str) -> list[Any]:
    """The repository's standard pool at ``scale_name``."""
    from repro.experiments.runner import SCALES
    from repro.trace.workloads import build_pool

    s = SCALES[scale_name]
    return list(
        build_pool(
            n_uops=s.n_uops,
            n_ilp=s.n_ilp,
            n_mem=s.n_mem,
            n_mix=s.n_mix,
            n_mixes_category=s.n_mixes_category,
            seed=POOL_SEED,
        )
    )


# --------------------------------------------------------------------------- #
# fig2_ctable / fig6_fallback                                                 #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FigJob:
    round: int
    policy: str
    index: int  # position in the pool


class FigSweep:
    """Serial ``ExperimentRunner.run`` calls over (scheme x pool)."""

    def __init__(
        self,
        name: str,
        scale: str,
        machine: Callable[[Any], Any],
        schemes: tuple[str, ...],
        round_s: float,
        seed: int,
        seconds: float,
        run_dir: Path,
    ) -> None:
        self.name = name
        self.scale = scale
        self._machine = machine
        self.schemes = schemes
        self._round_s = round_s  # nominal raw seconds of one round
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self._runners: list[Any] = []

    # -- set-up: each step is timed on its own by the harness ----------------

    def setup_steps(self) -> list[tuple[str, Callable[[], None]]]:
        return [
            ("import", self._import),
            ("pool", self._pool),
            ("runner", self._runner),
            ("warmup", self._warmup),
        ]

    def _import(self) -> None:
        import repro.core.cloop  # noqa: F401 - the engine the first job loads
        from repro.experiments import runner

        self._mod = runner

    def _pool(self) -> None:
        self.pool = load_pool(self.scale)

    def _new_runner(self, label: str | None, backend: str = "cloop"):
        return self._mod.ExperimentRunner(
            self.scale,
            cache_dir=self.run_dir / label if label else None,
            backend=backend,
        )

    def _runner(self) -> None:
        self.config = self._machine(self._mod)
        self._runners = [self._new_runner("warmup")]

    def _warmup(self) -> None:
        self._runners[0].run(self.config, self.schemes[0], self.pool[0])

    # -- timed phase ----------------------------------------------------------

    def jobs(self) -> list[FigJob]:
        """Whole rounds of (scheme x pool), each seed-shuffled into a fresh
        result cache: as many rounds as fit ``seconds``, at least one."""
        rounds = max(1, round(self.seconds / self._round_s))
        rng = random.Random(self.seed)
        self._runners += [self._new_runner(f"round{r}") for r in range(1, rounds + 1)]
        out: list[FigJob] = []
        for r in range(rounds):
            order = [
                FigJob(r + 1, p, i) for p in self.schemes for i in range(len(self.pool))
            ]
            rng.shuffle(order)
            out.extend(order)
        return out

    def run_job(self, job: FigJob) -> Any:
        return self._runners[job.round].run(
            self.config, job.policy, self.pool[job.index]
        )

    def key(self, job: FigJob) -> str:
        return record_key(self.scale, self.config, job.policy, self.pool[job.index])

    def outcome(self, job: FigJob, record: Any) -> Outcome:
        return Outcome(
            records={self.key(job): canonical(dataclasses.asdict(record))},
            sim_uops=record.committed,
            sims=1,
            scheme=job.policy,
        )

    def reference(self, jobs: list[FigJob], keys: set[str]) -> dict[str, str]:
        """Records for ``keys`` from the ``vectorized`` engine (untimed)."""
        runner = self._new_runner(None, backend="vectorized")
        out: dict[str, str] = {}
        for job in jobs:
            key = self.key(job)
            if key in keys and key not in out:
                rec = runner.run(self.config, job.policy, self.pool[job.index])
                out[key] = canonical(dataclasses.asdict(rec))
        return out

    def cache_hit_calls(self, jobs: list[FigJob]) -> list[Callable[[], Any]]:
        """``ExperimentRunner.run`` calls that hit round 1's disk cache."""
        runner = self._new_runner("round1")
        return [
            functools.partial(runner.run, self.config, j.policy, self.pool[j.index])
            for j in jobs
            if j.round == 1
        ]

    def variant(self, job: FigJob) -> tuple[Any, str, Any]:
        """``(config, policy, workload)`` of the simulation ``job`` runs."""
        return self.config, job.policy, self.pool[job.index]

    def io_bound(self, job: FigJob) -> bool:
        """Every job simulates: calibrated by the CPU probe."""
        return False

    def close(self) -> None:
        for runner in self._runners:
            if runner.journal is not None:
                runner.journal.close()


# --------------------------------------------------------------------------- #
# service_sweeps                                                              #
# --------------------------------------------------------------------------- #


def sweep_spec(i: int) -> dict[str, Any]:
    """The ``i``-th fresh sweep: a machine config no other ``i`` uses."""
    pair = i % (len(_SWEEP_CATEGORIES) - 1)
    spec: dict[str, Any] = {
        "scale": "smoke",
        "policies": [C_TABLE[i % len(C_TABLE)]],
        "categories": list(_SWEEP_CATEGORIES[pair : pair + 2]),
        "iq_entries": 16 + i,
    }
    regs = _SWEEP_REGS[i % len(_SWEEP_REGS)]
    if regs is not None:
        spec["regs"] = regs
    return spec


#: the set-up's warm-up sweep: a machine no timed job asks for
WARMUP_SPEC = {**sweep_spec(0), "iq_entries": 12}


@dataclass(frozen=True)
class ServiceJob:
    spec_index: int
    fresh: bool


class ServiceSweeps:
    """Closed-loop HTTP client of an in-process service."""

    name = "service_sweeps"
    scale = "smoke"
    #: nominal raw seconds of one fresh sweep plus three re-requests
    _cycle_s = 0.26

    def __init__(self, seed, seconds, run_dir: Path, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.tracer = tracer or NullTracer()
        self._bg = None
        self._pool: list[Any] | None = None

    def setup_steps(self) -> list[tuple[str, Callable[[], None]]]:
        return [
            ("import", self._import),
            ("service", self._start),
            ("warmup", lambda: self._sweep(WARMUP_SPEC)),
        ]

    def _import(self) -> None:
        import repro.core.cloop  # noqa: F401 - the engine the first job loads
        from repro.service import client, server

        self._server = server
        self._client = client

    def _start(self) -> None:
        settings = self._server.ServiceSettings(
            host="127.0.0.1",
            port=0,
            cache_dir=self.run_dir / "service",
            slots=1,
            rate=None,
            executor="thread",
            default_scale=self.scale,
        )
        self._bg = self._server.BackgroundService(settings)
        self._bg.__enter__()
        self.client = self._client.ServiceClient(
            port=self._bg.port, tenant="perfbench", timeout=JOB_TIMEOUT_S
        )

    def _sweep(self, spec: dict[str, Any]) -> tuple[dict[str, Any], int]:
        """submit -> NDJSON stream to the terminal event -> job document."""
        tracer = self.tracer
        with tracer.span("service.submit"):
            job_id = self.client.submit_sweep(spec)["id"]
        events = 0
        with tracer.span("service.stream"):
            for _ in self.client.stream(job_id, timeout=JOB_TIMEOUT_S):
                events += 1
        with tracer.span("service.fetch"):
            doc = self.client.job(job_id)
        if doc.get("state") != "done":
            raise JobFailed(f"job {job_id} ended {doc.get('state')}: {doc.get('error')}")
        return doc, events

    def jobs(self) -> list[ServiceJob]:
        n_fresh = max(1, round(self.seconds / self._cycle_s))
        rng = random.Random(self.seed)
        fresh = list(range(n_fresh))
        rng.shuffle(fresh)
        out: list[ServiceJob] = []
        for k, i in enumerate(fresh):
            out.append(ServiceJob(i, True))
            out += [ServiceJob(rng.choice(fresh[: k + 1]), False) for _ in range(3)]
        return out

    def run_job(self, job: ServiceJob) -> tuple[dict[str, Any], int]:
        return self._sweep(sweep_spec(job.spec_index))

    def _items(self, spec: dict[str, Any]):
        """``(result name, oracle key, config, policy, workload)`` per item."""
        from repro.service.spec import JobSpec

        if self._pool is None:
            self._pool = load_pool(self.scale)
        js = JobSpec.from_json("sweep", spec)
        config = js.config()
        for policy in js.policies:
            for cat in sorted(set(js.categories or ())):
                for wl in (w for w in self._pool if w.category == cat):
                    yield (
                        f"{policy}|{cat}|{wl.name}",
                        record_key(self.scale, config, policy, wl),
                        config,
                        policy,
                        wl,
                    )

    def outcome(self, job: ServiceJob, result: tuple[dict[str, Any], int]) -> Outcome:
        doc, events = result
        res = doc["result"]
        got = res["records"]
        records: dict[str, str] = {}
        committed = 0
        for name, key, _cfg, _pol, _wl in self._items(sweep_spec(job.spec_index)):
            if name not in got:
                raise JobFailed(f"result document lacks {name}")
            records[key] = canonical(got[name])
            committed += got[name]["committed"]
        if len(got) != len(records):
            raise JobFailed(f"result document has {len(got)} records, expected {len(records)}")
        sims = res["executed"]
        return Outcome(
            records=records,
            sim_uops=committed * sims // max(1, len(records)),
            sims=sims,
            scheme=sweep_spec(job.spec_index)["policies"][0],
            events=events,
            queue_wait_s=doc.get("queue_wait_s") or 0.0,
            run_s=doc.get("run_s") or 0.0,
        )

    def reference(self, jobs: list[ServiceJob], keys: set[str]) -> dict[str, str]:
        """Records for ``keys`` from the ``vectorized`` engine (untimed)."""
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(self.scale, backend="vectorized")
        out: dict[str, str] = {}
        for job in jobs:
            for _n, key, cfg, policy, wl in self._items(sweep_spec(job.spec_index)):
                if key in keys and key not in out:
                    out[key] = canonical(dataclasses.asdict(runner.run(cfg, policy, wl)))
        return out

    def cache_hit_calls(self, jobs: list[ServiceJob]) -> list[Callable[[], Any]]:
        """``ExperimentRunner.run`` calls that hit the service's disk cache."""
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(self.scale, cache_dir=self.run_dir / "service")
        return [
            functools.partial(runner.run, cfg, policy, wl)
            for job in jobs
            if job.fresh
            for _n, _k, cfg, policy, wl in self._items(sweep_spec(job.spec_index))
        ]

    def variant(self, job: ServiceJob) -> tuple[Any, str, Any] | None:
        """``(config, policy, workload)`` of the first simulation a fresh
        sweep runs; None for a re-request, which runs none."""
        if not job.fresh:
            return None
        _n, _k, config, policy, wl = next(self._items(sweep_spec(job.spec_index)))
        return config, policy, wl

    def io_bound(self, job: ServiceJob) -> bool:
        """A re-request runs no simulation, only HTTP on loopback, thread
        hand-offs and cache-file reads: calibrated by the I/O probe."""
        return not job.fresh

    def stats(self) -> dict[str, Any]:
        return self.client.stats()

    def close(self) -> None:
        if self._bg is not None:
            self._bg.__exit__(None, None, None)
            self._bg = None


def make(name: str, seed: int, seconds: float, run_dir: Path, tracer=None):
    """The workload called ``name``; ``tracer`` records the service
    client's calls (the figure workloads' spans come from ``layers``)."""
    if name == "fig2_ctable":
        return FigSweep(
            name, "quick", lambda mod: mod.figure2_config(32), C_TABLE,
            10.0, seed, seconds, run_dir,
        )
    if name == "fig6_fallback":
        return FigSweep(
            name, "smoke", lambda mod: mod.figure6_config(64), FALLBACK,
            17.0, seed, seconds, run_dir,
        )
    if name == "service_sweeps":
        return ServiceSweeps(seed, seconds, run_dir, tracer)
    raise KeyError(name)


WORKLOADS = ("fig2_ctable", "fig6_fallback", "service_sweeps")
