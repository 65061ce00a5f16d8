"""Minimal asyncio HTTP/1.1 plumbing — zero dependencies by design.

The service speaks just enough HTTP for a JSON API: request-line +
headers + Content-Length bodies in, fixed responses or chunked NDJSON
streams out.  Every exchange is ``Connection: close`` (one request per
connection), which keeps the parser ~60 lines and sidesteps pipelining
and keep-alive timeout corners entirely; the thin client opens a fresh
connection per call, and progress streaming holds its single connection
open for the life of the job.

Anything malformed raises :class:`ProtocolError`, which the server maps
to a 400 and a closed connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qs, unquote

MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 4 << 20

STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A request this server cannot or will not parse (HTTP 400)."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name.lower(), default)

    def json(self) -> Any:
        if not self.body:
            raise ProtocolError("empty body; expected a JSON object")
        try:
            return json.loads(self.body)
        except (ValueError, RecursionError):
            raise ProtocolError("request body is not valid JSON") from None


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One line; ``readline`` reports a line longer than the stream's
    limit as a plain ValueError, which is a malformed request here."""
    try:
        return await reader.readline()
    except ValueError:
        raise ProtocolError("request line or header too long") from None


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; None on a cleanly closed connection."""
    try:
        line = await _readline(reader)
    except ConnectionError:
        return None
    if not line or line in (b"\r\n", b"\n"):
        return None
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
        raise ProtocolError("malformed request line")
    method, target = parts[0].decode("latin-1"), parts[1].decode("latin-1")

    headers: dict[str, str] = {}
    total = len(line)
    while True:
        raw = await _readline(reader)
        total += len(raw)
        if total > MAX_HEADER_BYTES:
            raise ProtocolError("request headers too large")
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()

    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise ProtocolError(
            f"bad Content-Length {raw_length!r}"
        ) from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length {length}")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise ProtocolError("request body shorter than Content-Length") from None

    path, _, query_string = target.partition("?")
    return Request(
        method=method.upper(),
        path=unquote(path),
        query=parse_qs(query_string),
        headers=headers,
        body=body,
    )


def response(
    status: int,
    payload: Mapping[str, Any] | list | str | bytes | None = None,
    headers: Mapping[str, str] | None = None,
) -> bytes:
    """A complete ``Connection: close`` response as bytes."""
    if payload is None:
        body = b""
        ctype = None
    elif isinstance(payload, bytes):
        body = payload
        ctype = "application/octet-stream"
    elif isinstance(payload, str):
        body = payload.encode()
        ctype = "text/plain; charset=utf-8"
    else:
        body = (json.dumps(payload) + "\n").encode()
        ctype = "application/json"
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    if ctype is not None:
        lines.append(f"Content-Type: {ctype}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: close")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class NDJSONStream:
    """Chunked ``application/x-ndjson`` response: one JSON object per line."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._open = False

    async def start(
        self, status: int = 200, headers: Mapping[str, str] | None = None
    ) -> None:
        phrase = STATUS_PHRASES.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {phrase}",
            "Content-Type: application/x-ndjson",
            "Transfer-Encoding: chunked",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
        await self._writer.drain()
        self._open = True

    async def send(self, event: Mapping[str, Any]) -> None:
        data = (json.dumps(event) + "\n").encode()
        self._writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
        await self._writer.drain()

    async def close(self) -> None:
        if self._open:
            self._writer.write(b"0\r\n\r\n")
            await self._writer.drain()
            self._open = False
