"""Length-prefixed JSON framing for the serving daemon.

One frame = a 4-byte big-endian payload length followed by a UTF-8
JSON object.  Explicit framing (instead of newline-delimited JSON)
keeps the reader trivial under pipelining: the open-loop load generator
writes many request frames before reading any response, and the daemon
answers each connection's frames strictly in order, so a frame boundary
error can never smear across requests.

Message vocabulary (``op`` field):

=============  =========================================================
``hello``      open a session; reply carries ``client_id`` and the
               session's query count
``query``      advance the connection's session one query; reply carries
               the query's accounting (or ``shed: true`` under admission
               control)
``stats``      current interval/total latency summaries and queue depth
``shutdown``   graceful drain: stop accepting, finish queued requests,
               then exit
``bye``        close this connection
=============  =========================================================

Every reply carries ``ok`` (bool); error replies add ``error`` (str).
"""

from __future__ import annotations

import asyncio
import json
import struct

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "write_frame",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; a peer announcing more is broken
#: (or hostile) and gets disconnected instead of an unbounded read.
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A malformed frame: oversized, truncated, or not a JSON object."""


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its wire form (header + JSON payload)."""
    payload = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload of {len(payload)} bytes exceeds the limit")
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Parse one frame's payload; raises :class:`ProtocolError` when bad."""
    try:
        message = json.loads(payload.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and CPython's integer-digit
    # limit; deep nesting overflows the parser's stack instead.
    except (ValueError, RecursionError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload must be a JSON object, got {type(message).__name__}")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one message; ``None`` on clean EOF at a frame boundary."""
    try:
        # readexactly, not read: TCP may deliver the header in pieces,
        # and a short read on a live connection is not an EOF.
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as eof:
        if not eof.partial:
            return None
        raise ProtocolError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_frame(payload)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one message and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()
