"""The record codec behind the WAL and the wire: a compact JSON header plus
little-endian 8-byte array blocks.

Pinned here: every message comes back bit for bit (``-0.0``, subnormals,
infinities, large ids, float64 and int64 arrays of any length); user data
cannot pass for a block reference; blocks start 8-byte aligned; and hostile
bytes — every single-byte flip and every truncation of a valid frame or log,
with the checksum left as it is or recomputed so that the codec itself has to
refuse them — end as a ``ProtocolError``, a ``StorageError`` or a clean prefix,
never as any other exception.
"""

from __future__ import annotations

import math
import socket
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import random_walk_collection
from repro.core.errors import ProtocolError, StorageError
from repro.core.objects import GenericObject
from repro.server.protocol import (
    ObjectRef,
    decode_answers,
    encode_answers,
    encode_frame,
    encode_param,
    recv_frame,
)
from repro.storage import codec
from repro.storage.durable import WriteAheadLog
from repro.storage.durable.segments import decode_object, encode_object

_FRAME = struct.Struct("<II")


def same(left, right) -> bool:
    """Equal bit for bit: arrays by dtype and bytes, floats by their bits."""
    if isinstance(left, np.ndarray):
        return (
            isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and left.tobytes() == right.tobytes()
        )
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and list(left) == list(right)
            and all(same(left[key], right[key]) for key in left)
        )
    if isinstance(left, list):
        return isinstance(right, list) and len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, float):
        return type(right) is float and struct.pack("<d", left) == struct.pack("<d", right)
    return type(left) is type(right) and left == right


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
)
arrays = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 40)),
    hnp.arrays(np.int64, st.integers(0, 40)),
)
keys = st.text().filter(lambda key: "\x00" not in key)
messages = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=5), st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=30,
)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(messages)
    def test_every_message_comes_back_bit_for_bit(self, message):
        assert same(codec.decode(codec.encode(message)), message)

    @pytest.mark.parametrize(
        "value",
        [-0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, 0.1 + 0.2, 1e308],
    )
    def test_edge_floats_in_the_header_and_in_a_block(self, value):
        message = {"d": value, "v": np.array([value, -value])}
        decoded = codec.decode(codec.encode(message))
        assert same(decoded, message)

    def test_large_ids_and_answer_columns(self):
        answers = [
            (ObjectRef(2**62 + 1, "a"), -0.0),
            (ObjectRef(2**64 + 3, None), 5e-324),
            (ObjectRef(7, "c"), math.inf),
        ]
        decoded = decode_answers(codec.decode(codec.encode(encode_answers(answers))))
        assert decoded == answers
        assert [struct.pack("<d", d) for _, d in decoded] == [
            struct.pack("<d", d) for _, d in answers
        ]
        joins = [(ObjectRef(1, "x"), ObjectRef(2, "y"), 0.5)]
        assert decode_answers(codec.decode(codec.encode(encode_answers(joins)))) == joins
        assert decode_answers(codec.decode(codec.encode(encode_answers([])))) == []

    def test_objects_keep_their_values_as_arrays(self):
        series = random_walk_collection(1, 32, seed=5)[0]
        generic = GenericObject([1.5, -0.0, 5e-324], name="g")
        for obj in (series, generic):
            record = codec.decode(codec.encode(encode_object(obj)))
            back = decode_object(record)
            assert back.object_id == obj.object_id and back.name == obj.name
        assert decode_object(codec.decode(codec.encode(encode_object(series)))) == series
        features = decode_object(codec.decode(codec.encode(encode_object(generic))))
        assert features.feature_vector().values.tobytes() == np.array([1.5, -0.0, 5e-324]).tobytes()

    def test_an_array_in_metadata_is_refused_naming_the_object(self):
        """The codec would carry it as a block and bring back another type."""
        generic = GenericObject([1.0], name="g", payload={"k": np.arange(2.0)})
        with pytest.raises(StorageError, match=f"payload of object {generic.object_id}"):
            encode_object(generic)

    def test_blocks_start_eight_byte_aligned(self):
        for name in ("", "a", "ab", "abc", "abcdefg"):
            payload = codec.encode({"n": name, "v": np.arange(3.0), "w": np.arange(2)})
            _, length = struct.unpack_from("<BI", payload)
            start = -(-(5 + length) // 8) * 8
            assert (len(payload) - start) == 8 * 5 and start % 8 == 0

    def test_arrays_other_than_float64_and_int64_are_refused(self):
        for bad in (
            np.zeros(3, np.float32),
            np.zeros(3, np.uint64),
            np.zeros((2, 2)),
            np.zeros(2, complex),
        ):
            with pytest.raises(codec.CodecError, match="float64 or int64"):
                codec.encode({"v": bad})


class TestForgery:
    """The reserved key ``"\\x00"`` marks a block reference; user data that
    uses it is refused at encode, wherever it sits."""

    @pytest.mark.parametrize(
        "forged",
        [
            {"\x00": [0, 1, "f8"]},
            {"payload": {"\x00": [0, 0, "f8"]}, "v": np.arange(2.0)},
            {"rows": [{"attributes": {"\x00": 1}}]},
        ],
    )
    def test_a_reference_shaped_dict_is_refused(self, forged):
        with pytest.raises(codec.CodecError, match="reserved"):
            codec.encode(forged)

    def test_the_key_inside_strings_is_ordinary_data(self):
        message = {"text": '"\x00":', "k\x01": ["\x00"], "v": np.arange(2.0)}
        assert same(codec.decode(codec.encode(message)), message)

    def test_refused_on_the_wire_and_in_the_log(self, tmp_path):
        with pytest.raises(ProtocolError):
            encode_frame({"op": "x", "p": {"\x00": [0, 0, "f8"]}})
        with WriteAheadLog(str(tmp_path / "wal.log"), sync="off") as wal:
            with pytest.raises(StorageError):
                wal.append({"op": "x", "p": {"\x00": [0, 0, "f8"]}})

    @pytest.mark.parametrize(
        "header",
        [
            b'{"v":{"\\u0000":[8,1,"f8"]}}',  # past the block area
            b'{"v":{"\\u0000":[4,1,"f8"]}}',  # unaligned
            b'{"v":{"\\u0000":[0,1,"c16"]}}',  # no such dtype
            b'{"v":{"\\u0000":[0,1,"f8"],"x":1}}',  # not a one-key reference
            b'{"v":{"\\u0000":[0,1]}}',  # short
            b'{"v":{"\\u0000":[0,1,["f8"]]}}',  # unhashable dtype code
            b'{"v":{"\\u0000":[0,1,"f8"]},"w":{"\\u0000":[0,1,"f8"]}}',  # block used twice
            b'{"v":1}',  # a block no reference covers
            b'{"v":',  # not JSON
            b"[" * 100000,  # too deep
        ],
    )
    def test_a_malformed_payload_is_a_codec_error(self, header):
        payload = struct.pack("<BI", codec.CODEC_VERSION, len(header)) + header
        payload += b" " * (-len(payload) % 8) + struct.pack("<d", 1.0)
        with pytest.raises(codec.CodecError):
            codec.decode(payload)

    @pytest.mark.parametrize(
        "header",
        [
            b'{"v":{"\\u0000":[0,1,"f8"]},"w":{"\\u0000":[0,1,"f8"]}}',  # overlap
            b'{"v":{"\\u0000":[8,1,"f8"]},"w":{"\\u0000":[0,1,"f8"]}}',  # out of order
        ],
    )
    def test_references_cover_the_blocks_in_order(self, header):
        """Both headers cover 16 bytes in sum over a 16-byte block area; only
        the encoder's layout (each block where the last one ended) decodes."""
        payload = struct.pack("<BI", codec.CODEC_VERSION, len(header)) + header
        payload += b" " * (-len(payload) % 8) + struct.pack("<2d", 1.0, 2.0)
        with pytest.raises(codec.CodecError):
            codec.decode(payload)

    def test_an_unknown_version_is_a_codec_error(self):
        payload = bytearray(codec.encode({"op": "x"}))
        payload[0] = codec.CODEC_VERSION + 1
        with pytest.raises(codec.CodecError, match="version"):
            codec.decode(bytes(payload))


# ---------------------------------------------------------------------------
# hostile bytes
# ---------------------------------------------------------------------------
def _series_message() -> dict:
    walks = random_walk_collection(2, 8, seed=3)
    return {
        "id": 3,
        "op": "insert_many",
        "relation": "walks",
        "rows": [encode_param(walk) for walk in walks],
        "answers": encode_answers([(ObjectRef(1, "w"), 0.25)]),
    }


def _receive(raw: bytes):
    left, right = socket.socketpair()
    try:
        left.sendall(raw)
        left.shutdown(socket.SHUT_WR)
        right.settimeout(2.0)
        return recv_frame(right)
    finally:
        left.close()
        right.close()


def _recrc(frame: bytes) -> bytes:
    """The frame with its length and checksum rewritten to fit its payload."""
    payload = frame[_FRAME.size :]
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _damages(valid: bytes):
    """Every single-byte flip and every truncation of ``valid``."""
    for position in range(len(valid)):
        flipped = bytearray(valid)
        flipped[position] ^= 0xFF
        yield bytes(flipped)
    for stop in range(len(valid)):
        yield valid[:stop]


class TestHostileFrames:
    def test_every_flip_and_truncation_is_a_protocol_error(self):
        message = _series_message()
        valid = encode_frame(message)
        assert same(_receive(valid), message)
        for damaged in _damages(valid):
            with pytest.raises(ProtocolError):
                _receive(damaged)

    def test_with_the_checksum_recomputed_the_codec_refuses_or_decodes(self):
        """A flipped or cut payload under a valid checksum reaches the codec:
        it decodes to some message or is refused, typed."""
        valid = encode_frame(_series_message())
        for damaged in _damages(valid[_FRAME.size :]):
            try:
                message = _receive(_recrc(_FRAME.pack(0, 0) + damaged))
            except ProtocolError:
                continue
            assert isinstance(message, dict)


class TestHostileLogs:
    @staticmethod
    def _log(tmp_path) -> tuple[str, list[dict], list[int]]:
        path = str(tmp_path / "wal.log")
        records = [_series_message(), {"op": "drop_index", "relation": "w"}, _series_message()]
        with WriteAheadLog(path, sync="off") as wal:
            for record in records:
                wal.append(record)
        data = Path(path).read_bytes()
        starts, offset = [], 0
        while offset < len(data):
            starts.append(offset)
            offset += _FRAME.size + _FRAME.unpack_from(data, offset)[0]
        return path, records, starts

    def test_every_flip_and_truncation_leaves_a_clean_prefix(self, tmp_path):
        path, records, _ = self._log(tmp_path)
        valid = Path(path).read_bytes()
        assert same(WriteAheadLog.replay(path), records)
        for damaged in _damages(valid):
            with open(path, "wb") as handle:
                handle.write(damaged)
            replayed = WriteAheadLog.replay(path)
            assert len(replayed) < len(records)
            assert same(replayed, records[: len(replayed)])

    def test_with_the_checksum_recomputed_replay_refuses_or_decodes(self, tmp_path):
        path, records, starts = self._log(tmp_path)
        valid = Path(path).read_bytes()
        first = valid[: starts[1]]
        for damaged in _damages(first[_FRAME.size :]):
            with open(path, "wb") as handle:
                handle.write(_recrc(_FRAME.pack(0, 0) + damaged) + valid[starts[1] :])
            try:
                replayed = WriteAheadLog.replay(path)
            except StorageError as error:
                assert "offset 0" in str(error)
                continue
            assert all(isinstance(record, dict) for record in replayed)


class TestReplayNeverDropsAVerifiedRecord:
    """A frame whose checksum verifies was written whole: if it does not
    decode, replay says so, naming the record's offset, instead of ending the
    log there and dropping every acknowledged record after it."""

    @staticmethod
    def _write(path: str, payloads: list[bytes]) -> list[int]:
        offsets = []
        with open(path, "wb") as handle:
            for payload in payloads:
                offsets.append(handle.tell())
                handle.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        return offsets

    def test_a_verified_record_that_does_not_decode_is_a_storage_error(self, tmp_path):
        path = str(tmp_path / "wal.log")
        unknown = bytearray(codec.encode({"op": "insert"}))
        unknown[0] = codec.CODEC_VERSION + 1  # another codec version
        payloads = [codec.encode({"op": "a"}), bytes(unknown), codec.encode({"op": "b"})]
        offsets = self._write(path, payloads)
        with pytest.raises(StorageError, match=f"offset {offsets[1]} .*version"):
            WriteAheadLog.replay(path)
        self._write(path, [codec.encode({"op": "a"}), codec.encode(["not", "a", "record"])])
        with pytest.raises(StorageError, match="not a record"):
            WriteAheadLog.replay(path)

    @pytest.mark.parametrize("tear", ["short-header", "overrun", "checksum", "zeros"])
    def test_a_torn_tail_still_ends_the_log_quietly(self, tmp_path, tear):
        path = str(tmp_path / "wal.log")
        payloads = [codec.encode({"op": "a"}), codec.encode({"op": "b"})]
        self._write(path, payloads)
        data = Path(path).read_bytes()
        tail = codec.encode({"op": "c"})
        if tear == "short-header":
            data += _FRAME.pack(len(tail), zlib.crc32(tail))[:5]
        elif tear == "overrun":
            data += _FRAME.pack(len(tail) + 1, zlib.crc32(tail)) + tail
        elif tear == "checksum":
            data += _FRAME.pack(len(tail), zlib.crc32(tail) ^ 1) + tail
        else:
            # Length 0 and crc 0 verify an empty payload: crc32(b"") == 0.
            data += bytes(_FRAME.size + len(tail))
        with open(path, "wb") as handle:
            handle.write(data)
        assert WriteAheadLog.replay(path) == [{"op": "a"}, {"op": "b"}]
