"""Simulation-as-a-service: an asyncio HTTP/JSON front end over the pool.

One :class:`Service` puts the existing engine — persistent worker pool
and content-addressed result cache — behind a small HTTP/1.1 API so many
concurrent clients share one simulation pool:

* ``POST /v1/runs`` / ``POST /v1/sweeps`` — submit a job (``X-Tenant``
  header attributes it); returns 202 with the job document, or 429 +
  ``Retry-After`` when the tenant is over rate or queue bounds.
* ``GET /v1/jobs/<id>`` — job status, and the result once done.
* ``GET /v1/jobs/<id>/events`` — NDJSON stream: history replay, then
  live progress until the job reaches a terminal state.
* ``POST /v1/jobs/<id>/cancel`` — drop the job's unlaunched work.
* ``GET /v1/stats`` / ``GET /healthz`` — scheduler + dedup counters.

**Dedup before work** (requests canonicalize to the same keys the result
cache uses, so identical work is never repeated):

1. *job level* — a request whose content key matches a non-terminal job
   becomes a follower of that job (zero queue slots, zero pool work);
2. *item level* — each simulation about to launch first checks the
   in-flight table (another job already running this ``RunKey`` →
   coalesce) and then the disk cache (hit → complete instantly);
3. *cache level* — everything that does run is merged through
   :func:`repro.experiments.parallel.complete_item`, the completion path
   every sweep uses, byte-identical to a direct runner call, so future
   requests (and direct library users) hit it.

**Fair sharing**: jobs decompose into single-simulation work items; a
dispatcher hands free pool slots to items, one at a time, choosing the
tenant by the weighted max-min rule in
:mod:`repro.service.scheduler`.  Fairness is enforced at item
granularity, so a huge sweep from one tenant cannot lock out another
tenant's small job.

**Failure semantics**: on SIGTERM/SIGINT the service stops accepting,
drains in-flight simulations (caching each), serializes every
non-terminal job to ``<cache_dir>/service_state.json`` and exits; a
restart on the same ``cache_dir`` re-admits those jobs under their
original ids, and the result cache turns everything that already ran
into instant hits — each work item executes exactly once across
restarts (``scripts/resume_smoke.py --server`` asserts this).

The event loop owns all mutable state; simulations run on the shared
process pool (or an in-process thread pool with ``executor="thread"``)
through the sweep engine's executor seam, ``submit(run_item, item)``, and
their completions re-enter the loop as callbacks.  No locks, no new
dependencies.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner
from repro.service import http as shttp
from repro.service.jobs import TERMINAL, Job, JobStore
from repro.service.scheduler import (
    FairScheduler,
    QueueFull,
    RateLimited,
    TenantState,
)
from repro.service.spec import JobSpec, SpecError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import WorkItem
    from repro.experiments.runner import RunKey

STATE_NAME = "service_state.json"
_PING_INTERVAL = 15.0


@dataclass
class ServiceSettings:
    """Everything a :class:`Service` needs to listen and schedule."""

    host: str = "127.0.0.1"
    port: int = 8642  # 0 = pick a free port (read Service.port after start)
    cache_dir: str | Path = ".repro-service"
    slots: int = 2  # pool slots shared by every tenant
    tenants: dict[str, float] = field(default_factory=dict)
    rate: float | None = 20.0  # per-tenant requests/s (None = unlimited)
    burst: float | None = None
    max_queue: int = 64  # per-tenant queued jobs (overflow -> 429)
    executor: str = "process"  # "process" (worker pool) | "thread"
    default_scale: str = "quick"  # for requests that omit "scale"


class _ItemExec:
    """One in-flight simulation and every job waiting on it."""

    __slots__ = ("key", "item", "tenant", "runner", "jobs", "estimate", "t0")

    def __init__(
        self,
        key: "RunKey",
        item: "WorkItem",
        tenant: TenantState,
        runner: ExperimentRunner,
        job: Job,
        estimate: float,
    ) -> None:
        self.key = key
        self.item = item
        self.tenant = tenant
        self.runner = runner
        self.jobs = [job]  # owner first; coalesced jobs appended
        self.estimate = estimate
        self.t0 = time.perf_counter()


class Service:
    """The simulation service: HTTP front end + fair item dispatcher."""

    def __init__(self, settings: ServiceSettings) -> None:
        if settings.slots < 1:
            raise ValueError(f"slots must be >= 1, got {settings.slots}")
        if settings.executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', "
                f"got {settings.executor!r}"
            )
        self.settings = settings
        self.cache_dir = Path(settings.cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.scheduler = FairScheduler(
            settings.tenants,
            rate=settings.rate,
            burst=settings.burst,
            max_queue=settings.max_queue,
        )
        self.jobs = JobStore()
        self.stats: dict[str, int] = {
            "requests": 0,
            "jobs_submitted": 0,
            "jobs_deduped": 0,
            "jobs_done": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "items_total": 0,
            "executed_items": 0,
            "cache_hits": 0,
            "coalesced_items": 0,
        }
        self._runners: dict[str, ExperimentRunner] = {}
        self._inflight: dict["RunKey", _ItemExec] = {}
        self._free = settings.slots
        self._started_at = time.time()       # wall, for display only
        self._started_mono = time.monotonic()  # for the uptime duration
        self._closing = False
        self._server: asyncio.base_events.Server | None = None
        self._dispatch_task: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        self._thread_pool: ThreadPoolExecutor | None = None
        self._prep_pool: ThreadPoolExecutor | None = None
        self._wake: asyncio.Event | None = None
        self._stop_requested: asyncio.Event | None = None
        self.port: int | None = None

    # -- plumbing -------------------------------------------------------------

    def _runner(self, scale: str) -> ExperimentRunner:
        """The per-scale runner; all share one cache_dir."""
        runner = self._runners.get(scale)
        if runner is None:
            runner = ExperimentRunner(scale, cache_dir=self.cache_dir)
            self._runners[scale] = runner
        return runner

    def _sim_pool(self):
        if self.settings.executor == "thread":
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.settings.slots,
                    thread_name_prefix="repro-sim",
                )
            return self._thread_pool
        return parallel.get_executor(self.settings.slots)

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _wakeup(self) -> None:
        assert self._wake is not None
        self._wake.set()

    # -- job intake (loop thread) ---------------------------------------------

    def submit(
        self,
        tenant_name: str,
        kind: str,
        payload: Any,
        *,
        job_id: str | None = None,
        resumed: bool = False,
        limited: bool = True,
    ) -> Job:
        """Validate, dedup and enqueue one request; may raise 400/429s."""
        spec = JobSpec.from_json(
            kind, payload, default_scale=self.settings.default_scale
        )
        job = Job(spec, tenant_name, job_id=job_id, resumed=resumed)
        primary = self.jobs.active_for_key(job.content_key)
        if primary is not None:
            primary.attach_follower(job)
            self.jobs.add(job)
            self.stats["jobs_deduped"] += 1
            primary.publish(
                {"event": "coalesced_job", "follower": job.id,
                 "tenant": tenant_name}
            )
            return job
        tenant = self.scheduler.admit(tenant_name, job, limited=limited)
        self.jobs.add(job)
        self.stats["jobs_submitted"] += 1
        job.publish({"event": "queued", "tenant": tenant.name})
        self._spawn(self._prepare(job))
        return job

    async def _prepare(self, job: Job) -> None:
        """Build the job's work items off-loop, then hand it to dispatch."""
        loop = asyncio.get_running_loop()
        try:
            runner = self._runner(job.spec.scale)
            items = await loop.run_in_executor(
                self._prep_pool, self._build_items, runner, job.spec
            )
        except Exception as exc:  # noqa: BLE001 - any failure fails the job
            self._drop_from_queue(job)
            self._fail_job(job, f"preparing job failed: {exc}")
            return
        if job.state in TERMINAL:  # cancelled while preparing
            self._drop_from_queue(job)
            return
        job.pending = deque(items)
        job.total = len(items)
        job.item_index = [
            (item.policy, *item.key.workload.split("/", 1), item.key)
            for item in items
        ]
        self.stats["items_total"] += job.total
        job.state = "queued"
        job.publish({"event": "prepared", "total": job.total})
        self._wakeup()

    def _build_items(
        self, runner: ExperimentRunner, spec: JobSpec
    ) -> list["WorkItem"]:
        """(prep thread) pool workloads -> WorkItems."""
        workloads = spec.workloads(runner.pool)
        return parallel.sweep_items(
            runner, spec.config(), list(spec.policies), workloads,
            stop=spec.stop,
        )

    # -- fair item dispatch (loop thread) -------------------------------------

    async def _dispatch(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._closing:
                return
            while self._free > 0:
                tenant = self.scheduler.pick(
                    ready=lambda j: j.pending is not None
                    or j.state in TERMINAL
                )
                if tenant is None:
                    break
                job = self.scheduler.head(tenant)
                if job.state in TERMINAL:  # cancelled while queued
                    self.scheduler.pop_head(tenant)
                    continue
                if job.state == "queued":
                    job.state = "running"
                    job.mark_started()
                    job.publish({"event": "start", "total": job.total})
                assert job.pending is not None
                if not job.pending:
                    self.scheduler.pop_head(tenant)
                    self._maybe_finish(job)
                    continue
                item = job.pending.popleft()
                self._launch(tenant, job, item)
                if not job.pending:
                    # fully dispatched: the tenant's next job may proceed
                    self.scheduler.pop_head(tenant)
                    self._maybe_finish(job)

    def _launch(self, tenant: TenantState, job: Job, item: "WorkItem") -> None:
        key = item.key
        exec_ = self._inflight.get(key)
        if exec_ is not None:
            # another job is already simulating this exact key: share it
            exec_.jobs.append(job)
            job.shared += 1
            self.stats["coalesced_items"] += 1
            self._publish_item(job, key, "coalesced")
            return
        runner = self._runner(job.spec.scale)
        if parallel.is_complete(runner, item):
            job.hits += 1
            job.done_items += 1
            self.stats["cache_hits"] += 1
            self._publish_item(job, key, "cached")
            self._maybe_finish(job)
            return
        self._free -= 1
        self.scheduler.on_dispatch(tenant)
        estimate = parallel.cost_model().estimate(item)
        exec_ = _ItemExec(key, item, tenant, runner, job, estimate)
        self._inflight[key] = exec_
        future = asyncio.wrap_future(
            self._sim_pool().submit(parallel.run_item, item)
        )
        future.add_done_callback(
            lambda fut, exec_=exec_: self._on_done(exec_, fut)
        )

    def _publish_item(
        self,
        job: Job,
        key: "RunKey",
        mode: str,
        elapsed: float | None = None,
    ) -> None:
        event: dict[str, Any] = {
            "event": "item",
            "policy": key.policy,
            "workload": key.workload,
            "mode": mode,
            "done": job.done_items,
            "total": job.total,
        }
        if elapsed is not None:
            event["elapsed_s"] = round(elapsed, 6)
        job.publish(event)

    def _on_done(self, exec_: _ItemExec, future: asyncio.Future) -> None:
        """(loop thread) one simulation finished — merge it everywhere."""
        self._inflight.pop(exec_.key, None)
        self._free += 1
        if future.cancelled():
            exc: BaseException | None = asyncio.CancelledError("cancelled")
        else:
            exc = future.exception()
        if exc is not None:
            self.scheduler.on_complete(exec_.tenant, 0.0)
            if isinstance(exc, BrokenProcessPool):
                # reset the shared pool so the next launch gets a fresh one
                try:
                    parallel.shutdown()
                except Exception:  # noqa: BLE001 - teardown is best-effort
                    pass
            for job in dict.fromkeys(exec_.jobs):
                self._fail_job(job, f"simulation failed: {exc}")
            self._wakeup()
            return
        result = future.result()
        parallel.complete_item(
            exec_.runner, exec_.item, result,
            label=f"service:{exec_.jobs[0].id}",
            predicted_s=exec_.estimate, submitted=exec_.t0,
        )
        key, _record, seconds, _worker = result
        self.scheduler.on_complete(exec_.tenant, seconds)
        self.stats["executed_items"] += 1
        for position, job in enumerate(dict.fromkeys(exec_.jobs)):
            if job.state in TERMINAL:
                continue
            job.done_items += 1
            if position == 0:
                job.executed += 1
            self._publish_item(
                job, key, "executed" if position == 0 else "shared",
                elapsed=seconds,
            )
            self._maybe_finish(job)
        self._wakeup()

    # -- job completion -------------------------------------------------------

    def _maybe_finish(self, job: Job) -> None:
        if job.state in TERMINAL or job.total is None:
            return
        if job.pending and len(job.pending):
            return
        if job.done_items >= job.total:
            self._spawn(self._finalize(job))

    async def _finalize(self, job: Job) -> None:
        if job.state in TERMINAL:
            return
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                self._prep_pool, self._assemble, job
            )
        except Exception as exc:  # noqa: BLE001
            self._fail_job(job, f"assembling result failed: {exc}")
            return
        if job.state in TERMINAL:
            return
        job.finish("done", result=result)
        self.jobs.on_terminal(job)
        self.stats["jobs_done"] += 1
        self._wakeup()

    def _assemble(self, job: Job) -> dict[str, Any]:
        """(prep thread) read each record back from the shared disk cache.

        Reading the cache files — rather than re-serializing in-memory
        records — makes the HTTP result *the same bytes* a direct
        :class:`ExperimentRunner` produces: one writer, one format.
        """
        records: dict[str, Any] = {}
        for policy, category, name, key in job.item_index:
            path = self.cache_dir / key.filename()
            records[f"{policy}|{category}|{name}"] = json.loads(
                path.read_text()
            )
        return {
            "records": records,
            "executed": job.executed,
            "hits": job.hits,
            "shared": job.shared,
        }

    def _fail_job(self, job: Job, error: str) -> None:
        if job.state in TERMINAL:
            return
        if job.pending:
            job.pending.clear()
        job.finish("failed", error=error)
        self.jobs.on_terminal(job)
        self.stats["jobs_failed"] += 1

    def _drop_from_queue(self, job: Job) -> None:
        tenant = self.scheduler.tenants.get(job.tenant)
        if tenant is not None:
            self.scheduler.remove(tenant, job)

    def cancel(self, job: Job) -> Job:
        """Stop a job: drop queued work; in-flight items finish into cache."""
        if job.state in TERMINAL:
            return job
        if job.pending:
            job.pending.clear()
        self._drop_from_queue(job)
        job.finish("cancelled", error="cancelled by client")
        self.jobs.on_terminal(job)
        self.stats["jobs_cancelled"] += 1
        self._wakeup()
        return job

    # -- state serialization (graceful shutdown / restart) --------------------

    def save_state(self) -> int:
        """Serialize every non-terminal job; returns how many were saved."""
        alive = sorted(
            (
                job
                for job in self.jobs.jobs.values()
                if job.state not in TERMINAL
            ),
            key=lambda job: job.created,
        )
        path = self.cache_dir / STATE_NAME
        if not alive:
            try:
                path.unlink()
            except OSError:
                pass
            return 0
        doc = {
            "version": 1,
            "saved_at": time.time(),
            "jobs": [
                {
                    "id": job.id,
                    "tenant": job.tenant,
                    "kind": job.spec.kind,
                    "spec": job.spec.to_json(),
                }
                for job in alive
            ],
        }
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=".state.")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(alive)

    def _load_state(self) -> int:
        """Re-admit jobs a previous life serialized; returns the count."""
        path = self.cache_dir / STATE_NAME
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return 0
        try:
            path.unlink()  # consumed; rewritten at next shutdown
        except OSError:
            pass
        restored = 0
        for entry in doc.get("jobs", []):
            try:
                self.submit(
                    entry["tenant"],
                    entry["kind"],
                    entry["spec"],
                    job_id=entry["id"],
                    resumed=True,
                    limited=False,
                )
                restored += 1
            except (SpecError, QueueFull, KeyError, TypeError):
                continue  # a malformed entry only loses itself
        return restored

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._stop_requested = asyncio.Event()
        self._prep_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-prep"
        )
        self._load_state()
        self._server = await asyncio.start_server(
            self._handle, self.settings.host, self.settings.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatch_task = asyncio.get_running_loop().create_task(
            self._dispatch()
        )
        self._wakeup()

    def request_shutdown(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    async def serve_forever(
        self,
        install_signals: bool = True,
        on_ready: Callable[["Service"], None] | None = None,
    ) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_shutdown`)."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_shutdown)
        if on_ready is not None:
            on_ready(self)
        assert self._stop_requested is not None
        await self._stop_requested.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        """Graceful stop: drain in-flight sims, then serialize job state."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._wakeup()
        if self._dispatch_task is not None:
            await self._dispatch_task
        # Every in-flight simulation completes and is cached — the
        # expensive work survives; only *unlaunched* items wait for the
        # next life.
        while self._inflight:
            await asyncio.sleep(0.01)
        for task in list(self._tasks):
            try:
                await task
            except Exception:  # noqa: BLE001 - tasks report via job state
                pass
        self.save_state()
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
        if self._prep_pool is not None:
            self._prep_pool.shutdown(wait=True)
        if self.settings.executor == "process":
            parallel.shutdown()

    # -- HTTP -----------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await shttp.read_request(reader)
            except shttp.ProtocolError as exc:
                writer.write(shttp.response(400, {"error": str(exc)}))
                await writer.drain()
                return
            if request is None:
                return
            self.stats["requests"] += 1
            try:
                await self._route(request, writer)
            except shttp.ProtocolError as exc:
                writer.write(shttp.response(400, {"error": str(exc)}))
            except SpecError as exc:
                writer.write(shttp.response(400, {"error": str(exc)}))
            except (RateLimited, QueueFull) as exc:
                writer.write(
                    shttp.response(
                        429,
                        {"error": str(exc), "retry_after": exc.retry_after},
                        headers={
                            "Retry-After": f"{max(exc.retry_after, 0.01):.2f}"
                        },
                    )
                )
            except Exception as exc:  # noqa: BLE001 - one bad request
                writer.write(  # must never take the server down
                    shttp.response(500, {"error": f"internal error: {exc}"})
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _tenant_of(self, request: shttp.Request) -> str:
        name = request.header("x-tenant", "default") or "default"
        if not (0 < len(name) <= 64) or not name.isprintable():
            raise shttp.ProtocolError("X-Tenant must be 1-64 printable chars")
        return name

    async def _route(
        self, request: shttp.Request, writer: asyncio.StreamWriter
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        method = request.method

        if request.path in ("/healthz", "/v1/healthz"):
            writer.write(
                shttp.response(
                    200, {"ok": True, "slots": self.settings.slots}
                )
            )
            return
        if parts == ["v1", "stats"] and method == "GET":
            writer.write(shttp.response(200, self.stats_json()))
            return
        if parts in (["v1", "runs"], ["v1", "sweeps"]):
            if method != "POST":
                writer.write(shttp.response(405, {"error": "POST only"}))
                return
            if self._closing:
                writer.write(
                    shttp.response(503, {"error": "service shutting down"})
                )
                return
            kind = "run" if parts[1] == "runs" else "sweep"
            job = self.submit(
                self._tenant_of(request), kind, request.json()
            )
            writer.write(
                shttp.response(202, job.to_json(include_result=False))
            )
            return
        if parts[:2] == ["v1", "jobs"] and len(parts) >= 3:
            job = self.jobs.get(parts[2])
            if job is None:
                writer.write(
                    shttp.response(404, {"error": f"no job {parts[2]!r}"})
                )
                return
            if len(parts) == 3 and method == "GET":
                include = request.query.get("result", ["1"])[0] != "0"
                writer.write(
                    shttp.response(200, job.to_json(include_result=include))
                )
                return
            if len(parts) == 4 and parts[3] == "cancel" and method == "POST":
                self.cancel(job)
                writer.write(
                    shttp.response(200, job.to_json(include_result=False))
                )
                return
            if len(parts) == 4 and parts[3] == "events" and method == "GET":
                await self._stream_events(job, writer)
                return
        writer.write(
            shttp.response(404, {"error": f"no route {method} {request.path}"})
        )

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """NDJSON progress stream: replay history, follow until terminal."""
        source = job.primary or job
        stream = shttp.NDJSONStream(writer)
        await stream.start()
        queue = source.subscribe()
        try:
            while True:
                if (
                    queue.empty()
                    and (job.state in TERMINAL or source.state in TERMINAL)
                ):
                    break
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=_PING_INTERVAL
                    )
                except asyncio.TimeoutError:
                    await stream.send({"event": "ping", "job": source.id})
                    continue
                await stream.send(event)
                if event.get("event") in TERMINAL:
                    break
        except (ConnectionError, OSError):
            pass  # client went away; nothing to clean but the subscription
        finally:
            source.unsubscribe(queue)
            try:
                await stream.close()
            except (ConnectionError, OSError):
                pass

    def stats_json(self) -> dict[str, Any]:
        states: dict[str, int] = {}
        for job in self.jobs.jobs.values():
            doc_state = job.to_json(include_result=False)["state"]
            states[doc_state] = states.get(doc_state, 0) + 1
        return {
            "started_at": round(self._started_at, 3),
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "slots": self.settings.slots,
            "free_slots": self._free,
            "executor": self.settings.executor,
            "jobs_by_state": states,
            **self.stats,
            "scheduler": self.scheduler.snapshot(),
        }


class BackgroundService:
    """Run a :class:`Service` on a daemon thread (tests, benches, examples).

    ::

        with BackgroundService(ServiceSettings(port=0, ...)) as bg:
            client = ServiceClient(port=bg.port)
    """

    def __init__(self, settings: ServiceSettings) -> None:
        self.service = Service(settings)
        self._thread = None
        self._ready = None
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def port(self) -> int:
        assert self.service.port is not None, "service not started"
        return self.service.port

    def __enter__(self) -> "BackgroundService":
        import threading

        self._ready = threading.Event()

        def _main() -> None:
            async def _run() -> None:
                self._loop = asyncio.get_running_loop()
                await self.service.serve_forever(
                    install_signals=False,
                    on_ready=lambda _svc: self._ready.set(),
                )

            asyncio.run(_run())
            self._ready.set()  # unblock __enter__ if startup failed

        self._thread = threading.Thread(
            target=_main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30) or self.service.port is None:
            raise RuntimeError("service failed to start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=60)
