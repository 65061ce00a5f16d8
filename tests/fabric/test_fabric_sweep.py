"""Coordinator/worker behaviour: dispatch, liveness, exactly-once.

These tests run real sockets on loopback with workers in threads (the
subprocess + SIGKILL variant lives in ``scripts/fabric_smoke.py``).  The
load-bearing assertions are the failure-path ones: a dead or silent
worker loses its leases to the survivors, duplicate results are
discarded, and the finished cache tree is byte-identical to a serial
run's.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
from collections import Counter

import pytest

import repro.fabric as fabric
from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.fabric import protocol
from repro.fabric.coordinator import FabricHub, FabricSettings
from repro.fabric.worker import Worker
from repro.trace.workloads import build_pool
from tests.conftest import NESTED_JSON

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)
POLICIES = ["icount", "cssp"]


@pytest.fixture(scope="module")
def pool():
    return build_pool(**POOL_KW)


@pytest.fixture(scope="module", autouse=True)
def _teardown():
    yield
    fabric.shutdown()
    parallel.shutdown()


def _worker_thread(port: int, **kw) -> tuple[Worker, threading.Thread]:
    worker = Worker("127.0.0.1", port, heartbeat=0.1, **kw)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _serial_reference(pool, tmp_path):
    ref_dir = tmp_path / "serial"
    ref = ExperimentRunner("smoke", pool=pool, cache_dir=ref_dir, jobs=1)
    records = ref.sweep(figure2_config(32), POLICIES)
    return ref_dir, records


def _cache_tree(cache_dir):
    return {
        p.name: p.read_bytes()
        for p in cache_dir.glob("*.json")
        if p.name != "sweep_trace.jsonl"
    }


def _assert_completed_once(cache_dir, pairs):
    """Each ``(policy, workload)`` of ``pairs`` has exactly one
    ``sweep_trace.jsonl`` row: ``complete_item`` writes one per call."""
    rows = (cache_dir / "sweep_trace.jsonl").read_text().splitlines()
    counts = Counter((r["policy"], r["workload"]) for r in map(json.loads, rows))
    assert counts == Counter(pairs)


def _item_pairs(items):
    return [(item.key.policy, item.key.workload) for item in items]


# -- executor resolution --------------------------------------------------------


def test_resolve_executor_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    assert fabric.resolve_executor(None) == "local"
    monkeypatch.setenv("REPRO_EXECUTOR", "tcp")
    assert fabric.resolve_executor(None) == "tcp"
    assert fabric.resolve_executor("local") == "local"  # arg wins


def test_resolve_executor_rejects_unknown(monkeypatch):
    with pytest.raises(ValueError, match="known executors"):
        fabric.resolve_executor("mpi")
    monkeypatch.setenv("REPRO_EXECUTOR", "carrier-pigeon")
    with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
        fabric.resolve_executor(None)


def test_runner_rejects_unknown_executor(pool):
    with pytest.raises(ValueError):
        ExperimentRunner("smoke", pool=pool, executor="nope")


# -- end to end ------------------------------------------------------------------


def test_tcp_sweep_is_byte_identical_to_serial(pool, tmp_path):
    serial_dir, expected = _serial_reference(pool, tmp_path)

    settings = FabricSettings(port=0, lease_timeout=30.0)
    tcp_dir = tmp_path / "tcp"
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=tcp_dir, executor="tcp", fabric=settings
    )
    try:
        hub = fabric.get_hub(settings)
        _worker_thread(hub.port)
        _worker_thread(hub.port)
        got = runner.sweep(figure2_config(32), POLICIES)
    finally:
        fabric.shutdown()

    assert got.keys() == expected.keys()
    for key in expected:
        assert dataclasses.asdict(got[key]) == dataclasses.asdict(
            expected[key]
        ), key
    assert _cache_tree(tcp_dir) == _cache_tree(serial_dir)
    _assert_completed_once(
        tcp_dir, [(policy, f"{cat}/{name}") for policy, cat, name in expected]
    )


# -- failure paths ---------------------------------------------------------------


class _SilentLeech(threading.Thread):
    """Registers with a big window, hoards leases, never speaks again."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.leased = 0
        self._done = threading.Event()

    def run(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port))
        try:
            protocol.send_msg(sock, protocol.hello(0, "leech", 8))
            sock.settimeout(0.2)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not self._done.is_set():
                try:
                    msg = protocol.recv_msg(sock)
                except (TimeoutError, socket.timeout):
                    continue
                except OSError:
                    return  # coordinator dropped us: mission accomplished
                if msg is None:
                    return
                if msg["type"] == "item":
                    self.leased += 1
        finally:
            self._done.set()
            sock.close()


def test_silent_worker_leases_expire_and_requeue(pool, tmp_path):
    """A worker that hoards items and goes silent loses them after
    lease_timeout; the survivor finishes the whole sweep."""
    hub = FabricHub(FabricSettings(port=0, lease_timeout=0.6))
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=tmp_path / "cache"
    )
    items = parallel.sweep_items(
        runner, figure2_config(32), POLICIES, list(pool)
    )
    leech = _SilentLeech(hub.port)
    leech.start()

    def _late_worker():
        # join only after the leech has hoarded, so the requeue matters
        deadline = time.monotonic() + 5
        while leech.leased == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        _worker_thread(hub.port)

    threading.Thread(target=_late_worker, daemon=True).start()
    try:
        executed = parallel.run_items(runner, items, hub, label="expiry")
    finally:
        hub.close()
    assert executed == len(items)
    assert leech.leased > 0
    assert hub.drops >= 1
    assert hub.requeued >= leech.leased
    _assert_completed_once(tmp_path / "cache", _item_pairs(items))


def test_worker_death_requeues_to_survivor(pool, tmp_path):
    """An abruptly-closed connection (worker crash) re-queues its leases
    immediately — no need to wait for the lease timeout."""
    hub = FabricHub(FabricSettings(port=0, lease_timeout=30.0))
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=tmp_path / "cache"
    )
    items = parallel.sweep_items(
        runner, figure2_config(32), POLICIES, list(pool)
    )
    leech = _SilentLeech(hub.port)  # long timeout: only EOF can free these

    def _kill_leech_then_help():
        deadline = time.monotonic() + 5
        while leech.leased == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        leech._done.set()  # closes the socket = crash
        _worker_thread(hub.port)

    leech.start()
    threading.Thread(target=_kill_leech_then_help, daemon=True).start()
    try:
        executed = parallel.run_items(runner, items, hub, label="crash")
    finally:
        hub.close()
    assert executed == len(items)
    assert hub.drops >= 1
    assert runner.sims_run == len(items)


class _DoubleSender(threading.Thread):
    """A worker that sends every result twice (died-after-compute replay)."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.sent = 0

    def run(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port))
        try:
            protocol.send_msg(sock, protocol.hello(0, "double", 1))
            while True:
                msg = protocol.recv_msg(sock)
                if msg is None or msg["type"] == "shutdown":
                    return
                if msg["type"] != "item":
                    continue
                item = protocol.decode_item(msg["item"])
                key, rec, seconds, worker = parallel.run_item(item)
                reply = protocol.result_msg(
                    key, rec, seconds, worker["worker_pid"]
                )
                protocol.send_msg(sock, reply)
                protocol.send_msg(sock, reply)
                self.sent += 2
        except OSError:
            return
        finally:
            sock.close()


def test_duplicate_results_are_discarded(pool, tmp_path):
    hub = FabricHub(FabricSettings(port=0, lease_timeout=30.0))
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=tmp_path / "cache"
    )
    items = parallel.sweep_items(
        runner, figure2_config(32), POLICIES, list(pool)
    )
    doubler = _DoubleSender(hub.port)
    doubler.start()
    try:
        executed = parallel.run_items(runner, items, hub, label="dupes")
    finally:
        hub.close()
    assert doubler.sent == 2 * len(items)
    assert executed == len(items)  # every duplicate discarded
    assert runner.sims_run == len(items)
    _assert_completed_once(tmp_path / "cache", _item_pairs(items))


def test_version_mismatch_is_refused(pool, tmp_path):
    hub = FabricHub(FabricSettings(port=0))
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=tmp_path / "cache"
    )
    items = parallel.sweep_items(
        runner, figure2_config(32), POLICIES[:1], list(pool)[:1]
    )
    refused = {}

    def _old_worker():
        sock = socket.create_connection(("127.0.0.1", hub.port))
        try:
            bad = dict(protocol.hello(0, "old", 1), version=999)
            protocol.send_msg(sock, bad)
            refused["reply"] = protocol.recv_msg(sock)
        except OSError:
            pass
        finally:
            sock.close()
            _worker_thread(hub.port)  # a good worker finishes the sweep

    threading.Thread(target=_old_worker, daemon=True).start()
    try:
        executed = parallel.run_items(runner, items, hub, label="version")
    finally:
        hub.close()
    assert executed == len(items)
    reply = refused.get("reply")
    assert reply is not None and reply["type"] == "error"
    assert "version" in reply["error"]


def test_malformed_frames_do_not_kill_the_hub(pool, tmp_path):
    """A frame whose number overflows ``int`` or whose body nests too
    deeply for ``json`` drops only its own connection, whether or not it
    said ``hello`` first: the hub's I/O thread lives on and a good worker
    still completes the sweep."""
    hub = FabricHub(FabricSettings(port=0))
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=tmp_path / "cache"
    )
    items = parallel.sweep_items(
        runner, figure2_config(32), POLICIES[:1], list(pool)[:1]
    )
    hello = b'{"type":"hello","version":%d,"pid":%s,"host":"x","window":%s}'
    bodies = [
        hello % (protocol.VERSION, b"0", b"1e400"),
        hello % (protocol.VERSION, b"1e400", b"1"),
        NESTED_JSON,
    ]
    try:
        for body in bodies:
            with socket.create_connection(("127.0.0.1", hub.port)) as sock:
                sock.settimeout(10)
                sock.sendall(protocol._HEADER.pack(len(body)) + body)
                try:
                    while sock.recv(4096):
                        pass  # until the hub closes the connection
                except ConnectionResetError:
                    pass
            assert hub._thread.is_alive(), body[:60]
        _worker_thread(hub.port)
        executed = parallel.run_items(runner, items, hub, label="malformed")
    finally:
        hub.close()
    assert executed == len(items)
    assert hub.drops >= len(bodies)


def test_worker_error_fails_the_sweep(pool, tmp_path):
    hub = FabricHub(FabricSettings(port=0))
    runner = ExperimentRunner(
        "smoke", pool=pool, cache_dir=tmp_path / "cache"
    )
    items = parallel.sweep_items(
        runner, figure2_config(32), POLICIES[:1], list(pool)[:1]
    )

    def _broken_worker():
        sock = socket.create_connection(("127.0.0.1", hub.port))
        try:
            protocol.send_msg(sock, protocol.hello(0, "broken", 1))
            while True:
                msg = protocol.recv_msg(sock)
                if msg is None or msg["type"] == "shutdown":
                    return
                if msg["type"] == "item":
                    item = protocol.decode_item(msg["item"])
                    protocol.send_msg(
                        sock, protocol.error_msg(item.key, "boom")
                    )
        except OSError:
            return
        finally:
            sock.close()

    threading.Thread(target=_broken_worker, daemon=True).start()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            parallel.run_items(runner, items, hub, label="boom")
    finally:
        hub.close()
