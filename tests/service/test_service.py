"""End-to-end service tests over real HTTP on a loopback port.

A module-scoped :class:`BackgroundService` (thread executor, smoke
scale, 2 slots) serves most tests; rate-limit and cancel tests build
their own short-lived servers with the specific knobs they exercise.
Each test uses a distinct machine configuration (``iq_entries``) so the
shared result cache cannot leak work between tests except where a test
asserts exactly that.
"""

import dataclasses
import errno
import json
import os
import socket

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.service import (
    BackgroundService,
    ServiceClient,
    ServiceError,
    ServiceSettings,
)
from repro.service.spec import JobSpec
from tests.conftest import NESTED_JSON


def sweep_body(iq=32, policies=("icount", "cssp")):
    return {
        "scale": "smoke",
        "policies": list(policies),
        "categories": ["ISPEC00"],
        "iq_entries": iq,
        "unbounded_regs": True,
        "unbounded_rob": True,
    }


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("service-cache")


@pytest.fixture(scope="module")
def server(cache_dir):
    settings = ServiceSettings(
        port=0,
        cache_dir=cache_dir,
        slots=2,
        executor="thread",
        default_scale="smoke",
        rate=None,
    )
    with BackgroundService(settings) as bg:
        yield bg


def client(server, tenant="default"):
    return ServiceClient(port=server.port, tenant=tenant)


# -- basics ------------------------------------------------------------------


def test_health_and_stats(server):
    c = client(server)
    assert c.health()["ok"] is True
    stats = c.stats()
    assert stats["slots"] == 2
    assert stats["executor"] == "thread"
    assert "scheduler" in stats


def test_bad_spec_is_400(server):
    with pytest.raises(ServiceError) as exc:
        client(server).submit_sweep({"policies": ["notapolicy"]})
    assert exc.value.status == 400
    assert "notapolicy" in str(exc.value)


def test_unknown_job_is_404(server):
    with pytest.raises(ServiceError) as exc:
        client(server).job("jdeadbeef")
    assert exc.value.status == 404


def test_unknown_route_is_404(server):
    with pytest.raises(ServiceError) as exc:
        client(server)._request("GET", "/v2/nope")
    assert exc.value.status == 404


def _raw_reply(server, data: bytes) -> bytes:
    """The server's whole reply to ``data`` sent on a fresh connection."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def test_oversized_lines_and_deep_json_are_400(server):
    """A request line or header line longer than asyncio's 64 KiB stream
    limit, and a body nested too deeply for ``json``, are malformed
    requests: each gets a 400, and the server keeps serving."""
    requests = [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        % (len(NESTED_JSON), NESTED_JSON),
    ]
    for data in requests:
        reply = _raw_reply(server, data)
        assert reply.startswith(b"HTTP/1.1 400 "), (data[:40], reply[:80])
    assert client(server).health()["ok"] is True


# -- byte identity with the direct runner ------------------------------------


def test_sweep_results_byte_identical_to_direct_runner(
    server, cache_dir, tmp_path
):
    """The acceptance bar: HTTP results == direct ExperimentRunner results.

    The direct path runs the same sweep serially into its own cache dir;
    every cache file the service produced must be byte-for-byte equal,
    and the HTTP result document must contain exactly those records.
    """
    body = sweep_body(iq=32)
    c = client(server, tenant="ident")
    job = c.submit_sweep(body)
    done = c.wait(job["id"], timeout=600)
    assert done["state"] == "done"
    assert done["total"] == done["done"] == 6

    spec = JobSpec.from_json("sweep", body)
    direct_dir = tmp_path / "direct-cache"
    runner = ExperimentRunner("smoke", cache_dir=direct_dir)
    config = spec.config()
    for wl in spec.workloads(runner.pool):
        for policy in spec.policies:
            runner.run(config, policy, wl)

    direct_files = sorted(p.name for p in direct_dir.glob("*.json"))
    assert len(direct_files) == 6
    for name in direct_files:
        assert (cache_dir / name).read_bytes() == (
            direct_dir / name
        ).read_bytes(), name

    # and the HTTP result is exactly those files, parsed
    records = done["result"]["records"]
    assert len(records) == 6
    for wl in spec.workloads(runner.pool):
        for policy in spec.policies:
            key = runner.key_for(config, policy, wl)
            assert records[f"{policy}|{wl.category}|{wl.name}"] == json.loads(
                (direct_dir / key.filename()).read_text()
            )


def test_resubmit_is_all_cache_hits(server):
    c = client(server, tenant="ident")
    done = c.wait(c.submit_sweep(sweep_body(iq=32))["id"], timeout=600)
    assert done["executed"] == 0
    assert done["hits"] == 6


def test_run_job_matches_direct_run_single_workload(server, cache_dir):
    c = client(server)
    body = {
        "scale": "smoke",
        "policy": "icount",
        "category": "ISPEC00",
        "index": 0,
        "iq_entries": 36,
        "unbounded_regs": True,
        "unbounded_rob": True,
    }
    done = c.wait(c.submit_run(body)["id"], timeout=600)
    assert done["total"] == 1
    (record,) = done["result"]["records"].values()
    spec = JobSpec.from_json("run", body)
    runner = ExperimentRunner("smoke")
    (wl,) = spec.workloads(runner.pool)
    direct = runner.run(spec.config(), "icount", wl)
    assert record == {
        key: (list(val) if isinstance(val, tuple) else val)
        for key, val in dataclasses.asdict(direct).items()
    }


# -- dedup -------------------------------------------------------------------


def test_identical_sweeps_from_two_tenants_run_once(server, cache_dir):
    """The dedup acceptance test: N identical jobs, each item runs once."""
    body = sweep_body(iq=48, policies=("stall", "cdprf"))
    alice, bob = client(server, "alice"), client(server, "bob")
    job_a = alice.submit_sweep(body)
    job_b = bob.submit_sweep(body)

    assert job_b["deduped"] is True
    assert job_b["primary"] == job_a["id"]

    done_a = alice.wait(job_a["id"], timeout=600)
    done_b = bob.wait(job_b["id"], timeout=600)
    assert done_a["executed"] == 6
    assert done_b["deduped"] is True
    # the follower reports the primary's execution and the same records
    assert done_b["result"]["records"] == done_a["result"]["records"]

    # exactly-once at the pool: sweep_trace has each (policy, workload)
    # of this sweep exactly once
    rows = [
        json.loads(line)
        for line in (cache_dir / "sweep_trace.jsonl").read_text().splitlines()
    ]
    mine = [
        (r["policy"], r["workload"])
        for r in rows
        if r["policy"] in ("stall", "cdprf")
    ]
    assert len(mine) == 6
    assert len(set(mine)) == 6

    assert client(server).stats()["jobs_deduped"] >= 1


# -- streaming ---------------------------------------------------------------


def test_event_stream_orders_and_terminates(server):
    c = client(server, tenant="stream")
    job = c.submit_sweep(sweep_body(iq=40))
    events = list(c.stream(job["id"], timeout=600))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "queued"
    assert "prepared" in kinds and "start" in kinds
    assert kinds[-1] == "done"
    items = [e for e in events if e["event"] == "item"]
    assert len(items) == 6
    dones = [e["done"] for e in items]
    assert dones == sorted(dones) and dones[-1] == 6
    # a late subscriber replays the full history identically
    assert [e["event"] for e in c.stream(job["id"], timeout=60)] == kinds


# -- admission control over HTTP ---------------------------------------------


def test_rate_limit_answers_429_with_retry_after(tmp_path):
    settings = ServiceSettings(
        port=0, cache_dir=tmp_path, slots=1, executor="thread",
        default_scale="smoke", rate=1.0, burst=1.0,
    )
    with BackgroundService(settings) as bg:
        c = ServiceClient(port=bg.port, tenant="bursty")
        c.submit_sweep(sweep_body(iq=60))
        with pytest.raises(ServiceError) as exc:
            c.submit_sweep(sweep_body(iq=61))
        assert exc.value.status == 429
        assert exc.value.retry_after is not None
        assert exc.value.retry_after > 0
        # identical resubmission coalesces instead of rate-limiting
        again = c.submit_sweep(sweep_body(iq=60))
        assert again["deduped"] is True


# -- cancellation ------------------------------------------------------------


def test_cancel_stops_unlaunched_work(tmp_path):
    settings = ServiceSettings(
        port=0, cache_dir=tmp_path, slots=1, executor="thread",
        default_scale="smoke", rate=None,
    )
    body = sweep_body(
        iq=52, policies=("icount", "cssp", "stall", "cdprf")
    )  # 12 items through 1 slot
    with BackgroundService(settings) as bg:
        c = ServiceClient(port=bg.port, tenant="quitter")
        job = c.submit_sweep(body)
        cancelled = c.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError, match="cancelled"):
            c.wait(job["id"], timeout=60)
        assert c.stats()["executed_items"] < 12
        # the server stays healthy for later jobs
        done = c.wait(
            c.submit_sweep(sweep_body(iq=52, policies=("icount",)))["id"],
            timeout=600,
        )
        assert done["state"] == "done"


# -- failure paths -----------------------------------------------------------


def test_failed_result_write_fails_the_job_and_frees_its_slot(
    tmp_path, monkeypatch
):
    """A cache write that raises (a full disk) fails every job waiting on
    the item and gives its tenant's slot back; the server stays healthy."""
    real_put = ExperimentRunner._cache_put

    def put(runner, key, rec):
        # only the service's runner writes to disk; the worker's in-memory
        # put (thread executor, same process) must still succeed
        if runner.cache_dir is not None:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_put(runner, key, rec)

    monkeypatch.setattr(ExperimentRunner, "_cache_put", put)
    settings = ServiceSettings(
        port=0, cache_dir=tmp_path, slots=1, executor="thread",
        default_scale="smoke", rate=None,
    )
    body = {
        "scale": "smoke",
        "policy": "icount",
        "category": "ISPEC00",
        "index": 0,
        "iq_entries": 44,
        "unbounded_regs": True,
        "unbounded_rob": True,
    }
    with BackgroundService(settings) as bg:
        c = ServiceClient(port=bg.port, tenant="full-disk")
        job = c.submit_run(body)
        with pytest.raises(ServiceError, match="No space left on device"):
            c.wait(job["id"], timeout=60)
        doc = c.job(job["id"])
        assert doc["state"] == "failed"
        assert "storing the result failed" in doc["error"]
        assert c.stats()["scheduler"]["in_use"] == 0

        monkeypatch.undo()
        done = c.wait(c.submit_run(body)["id"], timeout=600)
        assert done["state"] == "done"
        assert done["executed"] == 1
