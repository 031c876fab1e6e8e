"""Length-prefixed JSON framing for the serving daemon.

One frame = a 4-byte big-endian payload length followed by a UTF-8
JSON object.  Explicit framing (instead of newline-delimited JSON)
keeps the reader trivial under pipelining: the open-loop load generator
writes many request frames before reading any response, and the daemon
answers each connection's frames strictly in order, so a frame boundary
error can never smear across requests.  A client reads one frame at a
time (:func:`read_frame`); the daemon reads whatever the socket holds
and cuts every complete frame off it (:class:`FrameSplitter`) under the
same header, size-limit and truncation rules.

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
from collections.abc import Iterator

__all__ = [
    "FrameSplitter",
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

#: The two ways a stream can end inside a frame.
_MID_HEADER = "connection closed mid-header"
_MID_FRAME = "connection closed mid-frame"


class ProtocolError(ValueError):
    """A malformed frame: oversized, truncated, or not a JSON object."""


def _announced(header: bytes, offset: int = 0) -> int:
    """The payload length a header announces; oversized is an error."""
    (length,) = _HEADER.unpack_from(header, offset)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})")
    return length


#: Built once: ``json.dumps`` with these arguments constructs a fresh
#: encoder per call, about a quarter of the time a reply takes to encode.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its wire form (header + JSON payload)."""
    payload = _ENCODER.encode(message).encode("utf-8")
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
        raise ProtocolError(_MID_HEADER) from None
    length = _announced(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError(_MID_FRAME) from None
    return decode_frame(payload)


class FrameSplitter:
    """Cuts the messages out of a byte stream that arrives in arbitrary chunks.

    ``feed`` yields, in order, every message the chunk completes, and
    keeps a trailing partial frame for the next chunk; ``eof`` says
    whether the stream may end where it is.  The rules are
    :func:`read_frame`'s: an oversized announcement raises as soon as
    its header is complete, before any of its payload is kept; an end
    of stream inside a header or a payload raises the same two errors.
    """

    def __init__(self) -> None:
        self._pending = b""

    @property
    def partial(self) -> bool:
        """Whether a frame has begun and not yet completed."""
        return bool(self._pending)

    def feed(self, chunk: bytes) -> Iterator[dict]:
        """Yield each message completed by ``chunk``; raise at the first bad frame.

        Every good frame ahead of a bad one is yielded first.  A consumer
        that stops iterating early abandons the rest of the stream.
        """
        data = self._pending + chunk
        end = len(data)
        offset = 0
        while end - offset >= _HEADER.size:
            start = offset + _HEADER.size
            stop = start + _announced(data, offset)
            if stop > end:
                break
            offset = stop
            yield decode_frame(data[start:stop])
        self._pending = data[offset:]

    def eof(self) -> None:
        """The stream ended: fine at a frame boundary, a :class:`ProtocolError` inside one."""
        if self._pending:
            raise ProtocolError(_MID_HEADER if len(self._pending) < _HEADER.size else _MID_FRAME)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one message and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()
