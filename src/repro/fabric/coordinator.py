"""Fabric coordinator: an Executor whose workers dial in over TCP.

:class:`FabricHub` is the multi-host counterpart of the persistent local
pool in :mod:`repro.experiments.parallel`, behind the same seam — the
stdlib :class:`concurrent.futures.Executor` interface.
``submit(run_item, item)`` queues a :class:`WorkItem` and returns a future
of ``(key, record, seconds, worker)``; whichever worker dials in
(``repro-sim worker --connect``) runs it.  The dispatch loop, the result
cache and progress all stay with the caller
(:func:`repro.experiments.parallel.run_items`): the hub owns only the
transport.  Workers are stateless — each item carries everything needed
to rebuild its traces from seeds (hitting the worker's local trace
cache), so the only bytes on the wire are specs out and records back.

One I/O thread serves every socket:

* it accepts connections and refuses a ``hello`` that speaks another
  protocol version;
* it leases queued items in submission order, never more to a worker than
  the in-flight **window** that worker advertised — a fast worker streams
  items back-to-back while a slow one is never buried;
* it reads heartbeats: a worker is alive while its socket speaks.

Failure model: a closed socket, a protocol error or ``lease_timeout``
seconds of silence drops the worker and **re-queues its leased items**
ahead of later submissions.  Items are idempotent (a pure function of
the item, cached under its key), so a lease that was actually completed
twice (worker died after computing, before the result landed) is
byte-identical both times — the first result resolves the future and
duplicates are discarded, so a sweep completes each key exactly once (``scripts/fabric_smoke.py``
SIGKILLs a worker mid-sweep and byte-diffs the final cache tree against a
local run).  A worker's ``error`` reply becomes that item's exception.

One hub persists across sweeps, exactly like the local pool: workers
connect once and serve every sweep of the process (a figure driver's
sweep + singles phases, a benchmark's rounds) until the coordinator exits
or sends ``shutdown``.
"""

from __future__ import annotations

import atexit
import selectors
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.experiments.parallel import run_item
from repro.fabric import protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import WorkItem
    from repro.experiments.runner import RunKey


@dataclass(frozen=True)
class FabricSettings:
    """How a coordinator listens and when it gives up on a worker."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (announced on stderr)
    #: drop a worker whose socket has been silent this long (heartbeats
    #: arrive every few seconds, so this tolerates several missed beacons)
    lease_timeout: float = 30.0
    #: cap any worker's advertised in-flight window
    max_window: int = 8


class _Conn:
    """One worker connection and its lease table."""

    __slots__ = (
        "sock", "addr", "decoder", "outbox", "registered",
        "pid", "host", "window", "last_seen", "leases",
    )

    def __init__(self, sock: socket.socket, addr: Any) -> None:
        self.sock = sock
        self.addr = addr
        self.decoder = protocol.FrameDecoder()
        self.outbox = bytearray()
        self.registered = False
        self.pid = 0
        self.host = ""
        self.window = 1
        self.last_seen = time.monotonic()
        #: key -> (future, item), in lease order
        self.leases: dict["RunKey", tuple[Future, "WorkItem"]] = {}

    @property
    def name(self) -> str:
        return f"{self.host or self.addr[0]}:{self.pid or '?'}"


class FabricHub(Executor):
    """Listening socket, worker connections and the lease queue, served
    by one I/O thread; persistent across sweeps."""

    def __init__(self, settings: FabricSettings) -> None:
        self.settings = settings
        self.selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((settings.host, settings.port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.selector.register(self._listener, selectors.EVENT_READ, None)
        # submit() and close() wake the I/O thread through this pair
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, self._wake_r)
        self.host, self.port = self._listener.getsockname()[:2]
        self.conns: list[_Conn] = []
        self.workers_seen = 0
        self.drops = 0
        self.requeued = 0
        #: items not leased yet, in submission order (requeues go first)
        self._queue: deque[tuple[Future, "WorkItem"]] = deque()
        self._lock = threading.Lock()  # guards _queue and _closed
        self._closed = False
        print(
            f"[repro] fabric: coordinator listening on "
            f"{self.host}:{self.port}",
            file=sys.stderr,
            flush=True,
        )
        self._thread = threading.Thread(
            target=self._serve, name="repro-fabric-hub", daemon=True
        )
        self._thread.start()

    # -- the Executor seam ------------------------------------------------------

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Queue ``run_item(item)`` for the next worker with a free slot.

        ``fn`` must be :func:`~repro.experiments.parallel.run_item`: a
        work item is the only thing the protocol carries.
        """
        if fn is not run_item or len(args) != 1 or kwargs:
            raise TypeError("a FabricHub runs only parallel.run_item(item)")
        fut: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed FabricHub")
            self._queue.append((fut, args[0]))
        self._wake()
        return fut

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self.close()

    def close(self) -> None:
        """Send ``shutdown`` to every worker and tear the hub down; items
        still queued are cancelled and leased ones fail."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake()
        if threading.current_thread() is not self._thread:
            self._thread.join()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # buffer full (a wakeup is already pending) or torn down

    # -- the I/O thread ---------------------------------------------------------

    def _serve(self) -> None:
        try:
            while not self._closed:
                for sel_key, mask in self.selector.select(timeout=0.25):
                    if sel_key.data is None:
                        self._accept()
                    elif sel_key.data is self._wake_r:
                        self._drain_wake()
                    else:
                        self._service(sel_key.data, mask)
                for conn in list(self.conns):
                    self._fill(conn)
                # liveness scan: silent workers lose their leases
                deadline = time.monotonic() - self.settings.lease_timeout
                for conn in [c for c in self.conns if c.last_seen < deadline]:
                    self._drop(conn, "lease timeout")
        finally:
            self._teardown()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, addr)
        self.conns.append(conn)
        self.selector.register(sock, selectors.EVENT_READ, conn)

    def _service(self, conn: _Conn, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush(conn)
        if not mask & selectors.EVENT_READ:
            return
        try:
            data = conn.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._drop(conn, f"socket error: {exc}")
            return
        if not data:
            self._drop(conn, "connection closed")
            return
        try:
            for msg in conn.decoder.feed(data):
                self._on_message(conn, msg)
                if conn not in self.conns:
                    return  # dropped by that message
        except (
            protocol.ProtocolError, KeyError, TypeError, ValueError, OverflowError
        ) as exc:
            self._drop(conn, f"protocol error: {exc}")

    def _on_message(self, conn: _Conn, msg: dict[str, Any]) -> None:
        conn.last_seen = time.monotonic()
        kind = msg.get("type")
        if kind == "heartbeat":
            return
        if kind == "hello":
            if msg.get("version") != protocol.VERSION:
                self._send(
                    conn,
                    protocol.error_msg(
                        None,
                        f"protocol version {msg.get('version')} != "
                        f"{protocol.VERSION}",
                    ),
                )
                self._drop(conn, "version mismatch")
                return
            conn.registered = True
            conn.pid = int(msg.get("pid", 0))
            conn.host = str(msg.get("host", conn.addr[0]))
            conn.window = max(
                1, min(int(msg.get("window", 1)), self.settings.max_window)
            )
            self.workers_seen += 1
            return
        if kind not in ("result", "error"):
            raise protocol.ProtocolError(f"unknown message type {kind!r}")
        # decode in full before touching the lease: a malformed reply
        # drops the worker with this item still leased, so it is re-queued
        key = protocol.decode_key(msg["key"])
        if kind == "result":
            result = (
                key,
                protocol.decode_record(msg["record"]),
                float(msg["seconds"]),
                {"worker_pid": int(msg.get("pid", conn.pid)), "worker": conn.name},
            )
        lease = conn.leases.pop(key, None)
        if lease is None or lease[0].done():
            return  # a duplicate after a re-queue: the first result won
        if kind == "error":
            lease[0].set_exception(
                RuntimeError(
                    f"fabric worker {conn.name} failed on "
                    f"{key.policy}/{key.workload}: {msg.get('error')}"
                )
            )
        else:
            lease[0].set_result(result)

    def _fill(self, conn: _Conn) -> None:
        """Lease queued items to ``conn`` up to its window."""
        while conn.registered and len(conn.leases) < conn.window:
            with self._lock:
                if not self._queue:
                    return
                fut, item = self._queue.popleft()
                # a re-queued item is running already; a fresh one starts
                # now, unless the caller cancelled it while it waited
                if not (fut.running() or fut.set_running_or_notify_cancel()):
                    continue
            conn.leases[item.key] = (fut, item)
            self._send(conn, protocol.item_msg(item))

    def _events_for(self, conn: _Conn) -> int:
        return selectors.EVENT_READ | (
            selectors.EVENT_WRITE if conn.outbox else 0
        )

    def _send(self, conn: _Conn, msg: dict[str, Any]) -> None:
        conn.outbox.extend(protocol.pack(msg))
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            while conn.outbox:
                sent = conn.sock.send(conn.outbox)
                if sent <= 0:
                    break
                del conn.outbox[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            # detected on the next read event / expiry scan as well; the
            # read path owns dropping so leases are re-queued exactly once
            return
        try:
            self.selector.modify(conn.sock, self._events_for(conn), conn)
        except (KeyError, ValueError, OSError):
            pass

    def _drop(self, conn: _Conn, reason: str) -> None:
        """Close a connection and re-queue its leased items first in line."""
        try:
            self.selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn in self.conns:
            self.conns.remove(conn)
        self.drops += 1
        lost = list(conn.leases.values())
        conn.leases.clear()
        if conn.registered:
            print(
                f"[repro] fabric: worker {conn.name} dropped ({reason}); "
                f"re-queuing {len(lost)} leased items",
                file=sys.stderr,
                flush=True,
            )
        self.requeued += len(lost)
        with self._lock:
            self._queue.extendleft(reversed(lost))

    def _teardown(self) -> None:
        """(I/O thread, last) shut workers down, settle every future."""
        with self._lock:
            self._closed = True
        lost = list(self._queue)
        self._queue.clear()
        for conn in list(self.conns):
            lost.extend(conn.leases.values())
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(2.0)
                conn.sock.sendall(
                    bytes(conn.outbox) + protocol.pack(protocol.SHUTDOWN)
                )
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self.conns.clear()
        for fut, _item in lost:
            if not fut.cancel() and not fut.done():
                fut.set_exception(
                    RuntimeError("fabric hub closed before the item completed")
                )
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self.selector.close()


# --------------------------------------------------------------------------- #
# Module-level persistent hub (mirrors parallel's persistent pool)             #
# --------------------------------------------------------------------------- #

_hub: FabricHub | None = None
_atexit_registered = False


def get_hub(settings: FabricSettings | None = None) -> FabricHub:
    """The process-wide hub, created on first use (grown never — a new
    endpoint tears the old hub down first, like the local pool's resize)."""
    global _hub, _atexit_registered
    settings = settings or FabricSettings()
    if _hub is not None and (
        (_hub.settings.host, _hub.settings.port) != (settings.host, settings.port)
        and not (settings.port == 0 and _hub.settings.host == settings.host)
    ):
        shutdown()
    if _hub is None:
        _hub = FabricHub(settings)
        if not _atexit_registered:
            atexit.register(shutdown)
            _atexit_registered = True
    return _hub


def shutdown() -> None:
    """Close the hub; connected workers receive ``shutdown`` and exit."""
    global _hub
    if _hub is not None:
        _hub.close()
        _hub = None
