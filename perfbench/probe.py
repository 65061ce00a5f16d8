"""Host-speed probes used to calibrate every host time the benchmark reports.

On a shared VM a fixed amount of pure-Python work can run up to 1.7x
slower for several seconds at a time.  The benchmark therefore times a
probe (a fixed ~3 ms loop, importing nothing from ``repro``) right before
every job and scales the job's time by ``REFERENCE_PROBE_S / probe_s``:
a calibrated second is a second on a host whose probe takes exactly
``REFERENCE_PROBE_S``.  Probe time itself is never inside a job's time.

Jobs that run no simulation, only HTTP on loopback, thread hand-offs and
small file reads, slow more than the Python loop when the host is busy
(1.7x against 1.45x in one measured slow phase).  They are calibrated by
:func:`io_probe` instead, which does the same kinds of system calls and
slowed by the same 1.7x.
"""

from __future__ import annotations

import socket
import threading
import time

#: probe time that defines a calibrated second (the probe's typical time
#: on an x86-64 KVM guest with CPython 3.11); a constant, so calibrated
#: figures from different runs and commits share one unit
REFERENCE_PROBE_S = 3.0e-3
#: the I/O probe's time on that guest, between service jobs, while
#: :func:`probe` took ``REFERENCE_PROBE_S``: both probes define one second
REFERENCE_IO_PROBE_S = 1.35e-3

_PROBE_ITERATIONS = 14_000
_IO_TRIPS = 40


def _probe_work(n: int) -> int:
    # integer arithmetic, list and dict indexing and branches: the same
    # interpreter operations the simulator's Python layers spend time in
    table = [0] * 64
    seen = {}
    acc = 0
    for i in range(n):
        j = (i * 7) & 63
        acc = (acc + table[j] + i) & 0xFFFF
        table[j] = acc
        if acc & 1:
            seen[j] = acc
    return acc + len(seen)


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _probe_work(_PROBE_ITERATIONS)
    return time.perf_counter() - t0


def calibrate(raw_s: float, probe_s: float) -> float:
    """``raw_s`` expressed in calibrated seconds, given the probe before it."""
    return raw_s * REFERENCE_PROBE_S / probe_s


class _Echo:
    """A loopback TCP connection to a thread that echoes what it reads."""

    def __init__(self) -> None:
        with socket.create_server(("127.0.0.1", 0)) as server:
            self.client = socket.create_connection(server.getsockname())
            peer, _ = server.accept()
        for sock in (self.client, peer):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._thread = threading.Thread(target=self._serve, args=(peer,), daemon=True)
        self._thread.start()

    @staticmethod
    def _serve(peer: socket.socket) -> None:
        with peer:
            while data := peer.recv(4096):
                peer.sendall(data)

    def close(self) -> None:
        self.client.close()
        self._thread.join()


_echo: _Echo | None = None


def io_probe() -> float:
    """Run the I/O probe once; return its wall time in seconds.

    Each trip sends 200 bytes to the echo thread, reads them back and
    reads this file: socket calls, a thread hand-off and a file open."""
    global _echo
    if _echo is None:
        _echo = _Echo()
    message = b"p" * 200
    t0 = time.perf_counter()
    for _ in range(_IO_TRIPS):
        _echo.client.sendall(message)
        got = 0
        while got < len(message):
            got += len(_echo.client.recv(4096))
        with open(__file__, "rb") as fh:
            fh.read()
    return time.perf_counter() - t0


def close() -> None:
    """Stop the I/O probe's echo thread, if it was started."""
    global _echo
    if _echo is not None:
        _echo.close()
        _echo = None
