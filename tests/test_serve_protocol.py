"""Wire framing for the serving daemon: length-prefixed JSON frames.

Framing is the one layer where a single bad byte can smear across every
later request on the connection, so the contract is pinned tightly:
exact roundtrips under pipelining, hard rejection of oversized and
malformed frames, and a clean ``None`` only at a true frame boundary --
an EOF mid-header or mid-payload is a :class:`ProtocolError`, never a
silent truncation.
"""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_frame,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=10,
)
messages = st.dictionaries(st.text(max_size=10), json_values, max_size=6)

#: Two payloads well inside the frame cap that ``json.loads`` refuses
#: with something other than a ``JSONDecodeError``: nesting deep enough
#: to overflow the parser's stack, and an integer past CPython's
#: 4,300-digit conversion limit (a plain ``ValueError``).
NESTED_PAYLOAD = b"[" * 200_000
LONG_INTEGER_PAYLOAD = b'{"a":' + b"9" * 5000 + b"}"


def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def _read_all(data: bytes) -> list[dict]:
    async def drain():
        reader = _reader_for(data)
        frames = []
        while (frame := await read_frame(reader)) is not None:
            frames.append(frame)
        return frames

    return asyncio.run(drain())


class TestEncodeDecode:
    def test_roundtrip(self):
        message = {"op": "query", "client_id": 3, "nested": {"a": [1, 2]}}
        wire = encode_frame(message)
        (length,) = struct.unpack(">I", wire[:4])
        assert length == len(wire) - 4
        assert decode_frame(wire[4:]) == message

    @given(messages)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_arbitrary_messages(self, message):
        wire = encode_frame(message)
        assert decode_frame(wire[4:]) == message

    @given(
        st.binary(max_size=200)
        | st.integers(1, 200_000).map(lambda depth: b"[" * depth)
        | st.integers(1, 6000).map(lambda digits: b'{"a":' + b"9" * digits + b"}")
    )
    @settings(max_examples=200, deadline=None)
    def test_decode_returns_a_dict_or_raises_protocol_error(self, payload):
        """Whatever the peer sends, the daemon's only ``except`` is enough."""
        try:
            message = decode_frame(payload)
        except ProtocolError:
            return
        assert isinstance(message, dict)

    def test_oversized_payload_rejected_on_encode(self):
        huge = {"blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError):
            encode_frame(huge)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_frame(b'"just a string"')

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"{not json")
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe")
        with pytest.raises(ProtocolError):
            decode_frame(NESTED_PAYLOAD)
        with pytest.raises(ProtocolError):
            decode_frame(LONG_INTEGER_PAYLOAD)


class TestReadFrame:
    def test_pipelined_frames_stay_separate(self):
        wire = b"".join(encode_frame({"op": "query", "i": i}) for i in range(5))
        frames = _read_all(wire)
        assert [f["i"] for f in frames] == [0, 1, 2, 3, 4]

    def test_clean_eof_at_boundary_is_none(self):
        assert _read_all(b"") == []

    def test_eof_mid_header_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="mid-header"):
            _read_all(b"\x00\x00")

    def test_header_split_across_reads_is_not_an_eof(self):
        """TCP may deliver the 4-byte header in pieces on a live connection."""
        wire = encode_frame({"op": "query", "i": 7})

        async def trickle():
            reader = asyncio.StreamReader()
            pending = asyncio.ensure_future(read_frame(reader))
            for byte in wire:
                await asyncio.sleep(0)  # let the reader consume what has arrived
                reader.feed_data(bytes([byte]))
            return await pending

        assert asyncio.run(trickle()) == {"op": "query", "i": 7}

    def test_eof_mid_frame_is_protocol_error(self):
        wire = encode_frame({"op": "hello"})
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_all(wire[:-1])

    def test_oversized_announcement_rejected_before_reading(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="announced"):
            _read_all(header)
