"""Wire protocol of the sweep fabric: length-prefixed JSON frames.

Everything that crosses the coordinator/worker socket is one **frame**: a
4-byte big-endian unsigned length followed by that many bytes of UTF-8
JSON.  JSON (not pickle) keeps the protocol inspectable, versionable and
safe to expose on a port; the stdlib :mod:`struct`/:mod:`socket` pair is
the whole transport dependency.

The payloads are small dict messages (``type`` field selects the kind):

========== =========== ====================================================
type       direction   meaning
========== =========== ====================================================
hello      w -> c      worker registration: pid, host, in-flight window
item       c -> w      one :class:`~repro.experiments.parallel.WorkItem`
result     w -> c      completed item: key, record, seconds, worker pid
error      w -> c      an item raised; carries the key and the traceback
heartbeat  w -> c      liveness beacon (every few seconds, from a thread)
shutdown   c -> w      no more work ever; disconnect and exit
========== =========== ====================================================

The codecs below translate the engine's frozen dataclasses
(:class:`WorkItem` and everything it nests — :class:`RunKey`,
:class:`Scale`, :class:`ProcessorConfig`, trace/workload specs,
:class:`TelemetryConfig` — plus the :class:`RunRecord` coming back) to and
from JSON-safe dicts.  A decoded item is *equal* to the encoded one
(frozen dataclasses compare by value), so cache identity cannot drift
across the wire; ``tests/fabric/test_protocol.py`` asserts round-trips
including config digests.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import threading
from typing import Any

from repro.config import (
    CacheConfig,
    ClusterConfig,
    FrontEndConfig,
    MemoryConfig,
    ProcessorConfig,
    TLBConfig,
)
from repro.experiments.parallel import TraceSpec, WorkItem, WorkloadSpec
from repro.experiments.runner import RunKey, RunRecord, Scale
from repro.telemetry import TelemetryConfig

#: Protocol version; a coordinator refuses a worker with a different one
#: (fail loud at connect, not subtly mid-sweep).
VERSION = 1

_HEADER = struct.Struct(">I")

#: Upper bound on one frame; anything larger is a framing error, not work.
MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed or oversized frame, or a version mismatch."""


# --------------------------------------------------------------------------- #
# Framing                                                                      #
# --------------------------------------------------------------------------- #

def pack(msg: dict[str, Any]) -> bytes:
    """One wire frame for ``msg``."""
    body = json.dumps(msg, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def send_msg(
    sock: socket.socket,
    msg: dict[str, Any],
    lock: threading.Lock | None = None,
) -> None:
    """Blocking send of one frame (``lock`` serializes concurrent senders,
    e.g. the worker's heartbeat thread against its result path)."""
    frame = pack(msg)
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)


def _parse(buf: bytes | bytearray) -> tuple[int, dict[str, Any] | None]:
    """The one frame parser, for a buffer that starts at a frame boundary.

    Returns ``(end, message)``.  Until ``buf`` holds the whole frame,
    ``message`` is None and ``end`` is how many bytes it needs so far (the
    header, then header plus body); after that ``end`` is where the frame
    ends.  Raises :class:`ProtocolError` on an oversized length, a body
    that is not JSON or nests too deeply to parse, or a message without a
    ``type``.
    """
    if len(buf) < _HEADER.size:
        return _HEADER.size, None
    (length,) = _HEADER.unpack_from(buf)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    end = _HEADER.size + length
    if len(buf) < end:
        return end, None
    try:
        msg = json.loads(buf[_HEADER.size:end])
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from None
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError("frame is not a typed message object")
    return end, msg


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes, or None on a clean EOF before the first byte."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking receive of one frame; None when the peer closed cleanly."""
    buf = b""
    while True:
        end, msg = _parse(buf)
        if msg is not None:
            return msg
        chunk = _recv_exact(sock, end - len(buf))
        if chunk is None:
            if buf:
                raise ProtocolError("connection closed between header and body")
            return None
        buf += chunk


class FrameDecoder:
    """Incremental decoder for the coordinator's non-blocking sockets.

    Feed it whatever ``recv`` returned; it yields every complete message
    and buffers the rest.  Raises :class:`ProtocolError` on garbage, which
    the coordinator answers by dropping the connection (and re-queuing the
    worker's leased items).
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        self._buf.extend(data)
        out: list[dict[str, Any]] = []
        while True:
            end, msg = _parse(self._buf)
            if msg is None:
                return out
            del self._buf[:end]
            out.append(msg)


# --------------------------------------------------------------------------- #
# Dataclass codecs                                                             #
# --------------------------------------------------------------------------- #

def encode_key(key: RunKey) -> dict[str, Any]:
    return dataclasses.asdict(key)


def decode_key(data: dict[str, Any]) -> RunKey:
    return RunKey(**data)


def encode_config(config: ProcessorConfig) -> dict[str, Any]:
    return dataclasses.asdict(config)


def decode_config(data: dict[str, Any]) -> ProcessorConfig:
    mem = data["memory"]
    return ProcessorConfig(
        **{
            **data,
            "front_end": FrontEndConfig(**data["front_end"]),
            "cluster": ClusterConfig(**data["cluster"]),
            "memory": MemoryConfig(
                **{
                    **mem,
                    "l1": CacheConfig(**mem["l1"]),
                    "l2": CacheConfig(**mem["l2"]),
                    "dtlb": TLBConfig(**mem["dtlb"]),
                    "itlb": TLBConfig(**mem["itlb"]),
                }
            ),
        }
    )


def encode_item(item: WorkItem) -> dict[str, Any]:
    return {
        "key": encode_key(item.key),
        "scale": dataclasses.asdict(item.scale),
        "config": encode_config(item.config),
        "policy": item.policy,
        "stop": item.stop,
        "workload": (
            dataclasses.asdict(item.workload) if item.workload else None
        ),
        "single": dataclasses.asdict(item.single) if item.single else None,
        "telemetry": (
            dataclasses.asdict(item.telemetry) if item.telemetry else None
        ),
        "telemetry_dir": item.telemetry_dir,
        "backend": item.backend,
    }


def decode_item(data: dict[str, Any]) -> WorkItem:
    workload = None
    if data.get("workload") is not None:
        wl = data["workload"]
        workload = WorkloadSpec(
            name=wl["name"],
            category=wl["category"],
            wtype=wl["wtype"],
            traces=tuple(TraceSpec(**tr) for tr in wl["traces"]),
        )
    single = TraceSpec(**data["single"]) if data.get("single") else None
    telemetry = (
        TelemetryConfig(**data["telemetry"]) if data.get("telemetry") else None
    )
    return WorkItem(
        key=decode_key(data["key"]),
        scale=Scale(**data["scale"]),
        config=decode_config(data["config"]),
        policy=data["policy"],
        stop=data["stop"],
        workload=workload,
        single=single,
        telemetry=telemetry,
        telemetry_dir=data.get("telemetry_dir"),
        backend=data.get("backend"),
    )


def encode_record(rec: RunRecord) -> dict[str, Any]:
    return dataclasses.asdict(rec)


def decode_record(data: dict[str, Any]) -> RunRecord:
    return RunRecord(
        **{
            **data,
            "committed_per_thread": tuple(data["committed_per_thread"]),
        }
    )


# --------------------------------------------------------------------------- #
# Message constructors                                                         #
# --------------------------------------------------------------------------- #

def hello(pid: int, host: str, window: int) -> dict[str, Any]:
    return {
        "type": "hello",
        "version": VERSION,
        "pid": pid,
        "host": host,
        "window": window,
    }


def item_msg(item: WorkItem) -> dict[str, Any]:
    return {"type": "item", "item": encode_item(item)}


def result_msg(
    key: RunKey, rec: RunRecord, seconds: float, pid: int
) -> dict[str, Any]:
    return {
        "type": "result",
        "key": encode_key(key),
        "record": encode_record(rec),
        "seconds": seconds,
        "pid": pid,
    }


def error_msg(key: RunKey | None, error: str) -> dict[str, Any]:
    return {
        "type": "error",
        "key": encode_key(key) if key is not None else None,
        "error": error,
    }


HEARTBEAT: dict[str, Any] = {"type": "heartbeat"}
SHUTDOWN: dict[str, Any] = {"type": "shutdown"}
