"""The record codec: one compact JSON header plus little-endian array blocks.

Every payload the system frames — a write-ahead log record, a wire message,
an object segment — is one encoded message::

    [u8 version][u32 header length][header: compact JSON][pad to 8][blocks]

Each numpy array in the message leaves the JSON: its items go to the block
area as little-endian 8-byte values (``float64`` or ``int64``), and the header
holds a reference in its place, the one-key object
``{"\\u0000": [offset, count, dtype]}`` (``offset`` in bytes from the start of
the block area, which begins 8-byte aligned; blocks follow one another in the
order the header names them, with no gap or overlap).  Everything else — dicts with
string keys, lists, strings, ints, floats, booleans, ``None`` — stays JSON.
JSON writes a float through ``repr``, which round-trips it exactly, and a block
holds the float's own eight bytes, so every float comes back with the same
bits on either side of the split: the no-false-dismissal, bit-identical
recovery and bit-identical serving contracts all rest on that.

The key ``"\\x00"`` is reserved for references: a message in which user data
(a payload, an attribute dict) uses it is refused at encode, so a decoder
never takes user data for a block.  Decoded arrays are read-only views of the
payload they came from.
"""

from __future__ import annotations

import json
import struct
from typing import Any

import numpy as np

__all__ = ["CODEC_VERSION", "MIN_PAYLOAD", "CodecError", "encode", "decode"]

#: The payload layout version (the first byte of every payload).
CODEC_VERSION = 1

#: Payload prefix: little-endian (codec version, header length).
_PREFIX = struct.Struct("<BI")

#: The shortest payload :func:`encode` writes: the prefix and a header of at
#: least one byte, padded to 8.
MIN_PAYLOAD = 8

#: The reserved key of a block reference, and how JSON spells it as a key.
_REFERENCE = "\x00"
_REFERENCE_TEXT = b'"\\u0000":'

#: Block dtypes by the code a reference names them with.
_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8")}


class CodecError(ValueError):
    """A message that cannot be encoded, or a payload that does not decode."""


def _block_start(header_length: int) -> int:
    """Where the block area begins: the header's end, rounded up to 8."""
    return -(-(_PREFIX.size + header_length) // 8) * 8


def encode(message: Any) -> bytes:
    """One message as a payload (see the module docstring for the layout)."""
    blocks: list[np.ndarray] = []
    size = 0

    def reference(value: Any) -> dict[str, list]:
        nonlocal size
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        code = {"f": "f8", "i": "i8"}.get(value.dtype.kind)
        if code is None or value.dtype.itemsize != 8 or value.ndim != 1:
            raise TypeError(
                f"an array block holds one-dimensional float64 or int64 items, "
                f"not {value.dtype} of shape {value.shape}"
            )
        blocks.append(np.ascontiguousarray(value, dtype=_DTYPES[code]))
        placed = [size, len(value), code]
        size += 8 * len(value)
        return {_REFERENCE: placed}

    try:
        header = json.dumps(message, separators=(",", ":"), default=reference).encode("ascii")
    except (TypeError, ValueError, RecursionError) as error:
        raise CodecError(str(error)) from error
    # Every reference the encoder wrote spells the reserved key once; one
    # more means user data used it (or a key ends in '"\x00' — refused too).
    if header.count(_REFERENCE_TEXT) != len(blocks):
        raise CodecError("the dict key '\\x00' is reserved for array blocks")
    padding = _block_start(len(header)) - _PREFIX.size - len(header)
    return b"".join([_PREFIX.pack(CODEC_VERSION, len(header)), header, b" " * padding, *blocks])


def decode(payload: bytes | memoryview) -> Any:
    """Invert :func:`encode`.  Anything malformed is a :class:`CodecError`."""
    view = memoryview(payload)
    if len(view) < _PREFIX.size:
        raise CodecError(f"payload of {len(view)} bytes is shorter than its prefix")
    version, length = _PREFIX.unpack_from(view)
    if version != CODEC_VERSION:
        raise CodecError(f"unknown codec version {version}; this build reads {CODEC_VERSION}")
    start = _block_start(length)
    if start > len(view):
        raise CodecError(f"header of {length} bytes overruns a {len(view)}-byte payload")
    area = len(view) - start
    # The encoder lays blocks out in the order the header names them, so each
    # reference starts where the previous one ended: no overlap, no gap.
    cursor = 0

    def resolve(obj: dict[str, Any]) -> Any:
        nonlocal cursor
        if _REFERENCE not in obj:
            return obj
        placed = obj[_REFERENCE]
        if len(obj) != 1 or not isinstance(placed, list) or len(placed) != 3:
            raise CodecError(f"malformed block reference {obj!r}")
        offset, count, code = placed
        if (
            type(code) is not str
            or code not in _DTYPES
            or type(offset) is not int
            or type(count) is not int
            or offset != cursor
            or count < 0
            or offset + 8 * count > area
        ):
            raise CodecError(
                f"block reference {placed!r} does not continue at byte {cursor} "
                f"of a {area}-byte block area"
            )
        cursor += 8 * count
        return np.frombuffer(view, _DTYPES[code], count, start + offset)

    header = bytes(view[_PREFIX.size : _PREFIX.size + length])
    try:
        # A header naming no block needs no hook: one C-speed parse.
        message = json.loads(header, object_hook=resolve if _REFERENCE_TEXT in header else None)
    except CodecError:
        raise
    except (ValueError, RecursionError) as error:  # bad UTF-8 or JSON, too deep
        raise CodecError(f"header does not decode: {error}") from error
    if cursor != area:
        raise CodecError(f"references cover {cursor} of {area} block bytes")
    return message
