"""Wire-protocol round-trips: framing and the dataclass codecs.

Cache identity must not drift across the wire — a decoded
:class:`WorkItem` has to *equal* the encoded one (frozen dataclasses
compare by value) and its config digest has to match, or a remote result
would land under a different key than a local one.
"""

from __future__ import annotations

import re
import socket
import threading

import pytest

from repro.experiments.parallel import sweep_items
from repro.experiments.runner import ExperimentRunner, figure2_config
from repro.fabric import protocol
from repro.trace.workloads import build_pool
from tests.conftest import NESTED_JSON

POOL_KW = dict(
    n_uops=2500, n_ilp=1, n_mem=1, n_mix=0, n_mixes_category=0,
    categories=("ISPEC00",),
)


@pytest.fixture(scope="module")
def items():
    pool = build_pool(**POOL_KW)
    runner = ExperimentRunner("smoke", pool=pool)
    return sweep_items(
        runner, figure2_config(32), ["icount", "cdprf"], list(pool)
    )


# -- framing ------------------------------------------------------------------


def test_pack_feed_roundtrip():
    msgs = [
        protocol.hello(pid=7, host="box", window=2),
        protocol.HEARTBEAT,
        {"type": "x", "payload": ["ünïcode", 1.5, None, {"k": "v"}]},
    ]
    decoder = protocol.FrameDecoder()
    out = decoder.feed(b"".join(protocol.pack(m) for m in msgs))
    assert out == msgs


def test_feed_handles_arbitrary_byte_splits():
    msgs = [{"type": "t", "n": i, "pad": "x" * i} for i in range(20)]
    stream = b"".join(protocol.pack(m) for m in msgs)
    for chunk in (1, 2, 3, 5, 7, 64):
        decoder = protocol.FrameDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[i:i + chunk]))
        assert out == msgs, f"chunk size {chunk}"


def _feed(data: bytes):
    return protocol.FrameDecoder().feed(data)


def _recv(data: bytes):
    """``recv_msg`` reading ``data`` from a socketpair whose writer then
    closes (the writer is a thread, so ``data`` may exceed the socket
    buffer)."""
    a, b = socket.socketpair()

    def _write():
        try:
            a.sendall(data)
        except OSError:
            pass  # the reader gave up first
        finally:
            a.close()

    writer = threading.Thread(target=_write, daemon=True)
    writer.start()
    try:
        return protocol.recv_msg(b)
    finally:
        b.close()
        writer.join(timeout=10)
        assert not writer.is_alive()


def _rejects(data: bytes, match: str) -> None:
    """Both entry points of the one frame parser — the coordinator's
    incremental decoder and the worker's blocking read — raise a
    :class:`ProtocolError` matching ``match`` on ``data``."""
    for name, decode in (("feed", _feed), ("recv_msg", _recv)):
        try:
            decode(data)
        except protocol.ProtocolError as exc:
            assert re.search(match, str(exc)), (name, exc)
        else:
            pytest.fail(f"{name} accepted {data!r}")


def test_feed_rejects_garbage_and_untyped_frames():
    _rejects(protocol._HEADER.pack(5) + b"{!!!}", "not JSON")
    _rejects(protocol._HEADER.pack(2) + b"[]", "typed")
    _rejects(protocol._HEADER.pack(len(NESTED_JSON)) + NESTED_JSON, "not JSON")


def test_feed_rejects_oversized_frame_header():
    _rejects(protocol._HEADER.pack(protocol.MAX_FRAME + 1), "exceeds")


def test_blocking_send_recv_over_socketpair():
    a, b = socket.socketpair()
    try:
        msgs = [protocol.hello(1, "h", 1), {"type": "z", "big": "y" * 10000}]
        for m in msgs:
            protocol.send_msg(a, m)
        got = [protocol.recv_msg(b) for _ in msgs]
        assert got == msgs
        a.close()
        assert protocol.recv_msg(b) is None  # clean EOF -> None
    finally:
        b.close()


def test_recv_raises_on_mid_frame_eof():
    a, b = socket.socketpair()
    try:
        a.sendall(protocol.pack({"type": "t"})[:-2])
        a.close()
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_msg(b)
    finally:
        b.close()


# -- dataclass codecs ----------------------------------------------------------


def test_work_item_roundtrip_is_equal(items):
    assert items  # 2 policies x 2 workloads
    for item in items:
        decoded = protocol.decode_item(protocol.encode_item(item))
        assert decoded == item
        assert decoded.key == item.key
        assert decoded.config.digest() == item.config.digest()


def test_item_survives_json_wire_format(items):
    decoder = protocol.FrameDecoder()
    (msg,) = decoder.feed(protocol.pack(protocol.item_msg(items[0])))
    assert protocol.decode_item(msg["item"]) == items[0]


def test_record_roundtrip(items):
    from repro.experiments.parallel import run_item

    key, rec, seconds, worker = run_item(items[0])
    msg = protocol.result_msg(key, rec, seconds, worker["worker_pid"])
    decoder = protocol.FrameDecoder()
    (wire,) = decoder.feed(protocol.pack(msg))
    assert protocol.decode_key(wire["key"]) == key
    decoded = protocol.decode_record(wire["record"])
    assert decoded == rec
    assert isinstance(decoded.committed_per_thread, tuple)
