"""Fabric worker: pull work items from a coordinator and run them.

``repro-sim worker --connect host:port`` runs one of these.  The worker
is deliberately dumb: it owns no cache directory and no scheduling
state — it decodes each leased :class:`WorkItem`, rebuilds the traces
from their seed-level specs (served by the shared on-disk
trace-synthesis cache, so repeated sweeps pay synthesis once per host),
runs the simulation through the exact same
:func:`repro.experiments.parallel.run_item` entry point the local pool's
workers use, and streams the :class:`RunRecord` back.  Bit-identity is
therefore inherited, not re-proven: a remote worker runs the same code on
the same regenerated bytes as a local one.

A daemon **heartbeat thread** beacons every ``heartbeat`` seconds so the
coordinator can tell "slow simulation" from "dead worker" — the socket
stays chatty even while the main thread is deep in a cycle loop.  All
socket writes (results and beacons) share one lock.

The worker exits cleanly when the coordinator sends ``shutdown`` or
closes the connection (coordinator process exited); an item that raises
is reported with an ``error`` message, which the coordinator raises as
that item's exception, mirroring how a local worker's exception
propagates.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import traceback
from typing import Any

from repro.fabric import protocol


class Worker:
    """One connection's pull-run-reply loop."""

    def __init__(
        self,
        host: str,
        port: int,
        window: int = 2,
        heartbeat: float = 5.0,
        connect_timeout: float = 30.0,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if heartbeat <= 0:
            raise ValueError(f"heartbeat must be > 0, got {heartbeat}")
        self.host = host
        self.port = port
        self.window = window
        self.heartbeat = heartbeat
        self.connect_timeout = connect_timeout
        self.executed = 0
        self.failed = 0
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()

    # -- plumbing ---------------------------------------------------------------

    def _connect(self) -> socket.socket:
        """Dial the coordinator, retrying until ``connect_timeout``."""
        deadline = time.monotonic() + self.connect_timeout
        delay = 0.05
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=10.0
                )
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _send(self, msg: dict[str, Any]) -> None:
        assert self._sock is not None
        protocol.send_msg(self._sock, msg, lock=self._send_lock)

    def _beacon(self) -> None:
        while not self._stop.wait(self.heartbeat):
            try:
                self._send(protocol.HEARTBEAT)
            except OSError:
                return  # socket gone; the main loop is exiting too

    # -- main loop ----------------------------------------------------------------

    def run(self) -> int:
        """Serve until the coordinator says ``shutdown`` (or disappears).

        Returns the number of simulations executed.
        """
        from repro.experiments.parallel import run_item

        self._sock = self._connect()
        beat = threading.Thread(
            target=self._beacon, name="repro-fabric-heartbeat", daemon=True
        )
        try:
            self._send(
                protocol.hello(
                    pid=os.getpid(),
                    host=socket.gethostname(),
                    window=self.window,
                )
            )
            beat.start()
            while True:
                try:
                    msg = protocol.recv_msg(self._sock)
                except OSError:
                    msg = None
                if msg is None:
                    # coordinator went away; nothing left to serve
                    return self.executed
                kind = msg.get("type")
                if kind == "shutdown":
                    return self.executed
                if kind == "error":
                    raise RuntimeError(
                        f"coordinator refused this worker: {msg.get('error')}"
                    )
                if kind != "item":
                    continue  # future message kinds are ignorable
                item = protocol.decode_item(msg["item"])
                try:
                    key, rec, seconds, worker = run_item(item)
                except Exception:  # noqa: BLE001 - report, don't die
                    self.failed += 1
                    self._send(
                        protocol.error_msg(item.key, traceback.format_exc())
                    )
                    continue
                self.executed += 1
                self._send(
                    protocol.result_msg(key, rec, seconds, worker["worker_pid"])
                )
        finally:
            self._stop.set()
            try:
                self._sock.close()
            except OSError:
                pass


def run_worker(
    host: str,
    port: int,
    window: int = 2,
    heartbeat: float = 5.0,
    connect_timeout: float = 30.0,
) -> int:
    """CLI entry: run one worker, print a summary line, return exit code."""
    worker = Worker(
        host, port,
        window=window, heartbeat=heartbeat, connect_timeout=connect_timeout,
    )
    try:
        executed = worker.run()
    except OSError as exc:
        print(
            f"[repro] worker: cannot reach coordinator at {host}:{port}: {exc}",
            file=sys.stderr,
        )
        return 1
    except RuntimeError as exc:
        print(f"[repro] worker: {exc}", file=sys.stderr)
        return 1
    print(
        f"[repro] worker: done ({executed} simulations, "
        f"{worker.failed} failed)",
        file=sys.stderr,
        flush=True,
    )
    return 0
