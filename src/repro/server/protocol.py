"""The wire protocol: length-prefixed, CRC-framed codec messages.

Framing is the same shape the write-ahead log uses (deliberately — one
torn-frame discipline across the system)::

    [u32 payload length][u32 crc32(payload)][payload: one codec message]

Little-endian header; the payload is :mod:`repro.storage.codec`'s compact
JSON header with every array moved out into a little-endian 8-byte block.
A series sent as a query parameter or an inserted row, and the distances
of an answer list, cross as their own float64 bytes, which the
snapshot-read bit-identity guarantee leans on: a distance that crosses the
wire decodes to the very float the executor computed.  The CRC makes torn
and corrupted frames *detectable* instead of silently poisonous: a frame
whose checksum does not verify raises
:class:`~repro.core.errors.ProtocolError` at the receiving end, never
yields a half-decoded message.

Both transport ends live here, each on a blocking socket: the server's
reader (:func:`recv_request`: a clean hangup is not an error, and a frame
that has started must finish in time) and the client's (:func:`recv_frame`).
Object payloads (query parameters, inserted rows) reuse the durable layer's
object codec, so a series means the same bytes in the WAL, in a segment,
and on the wire.  Answer lists travel as columns (:func:`encode_answers`):
ids and names as JSON lists, distances as one block.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.errors import ProtocolError
from ..core.objects import DataObject
from ..storage import codec
from ..storage.durable.segments import decode_object, encode_object

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_frame",
    "recv_frame",
    "recv_request",
    "send_frame",
    "encode_param",
    "decode_param",
    "encode_answer",
    "encode_answers",
    "decode_answers",
    "ObjectRef",
]

#: Frame header: little-endian (payload length, crc32 of payload).
_HEADER = struct.Struct("<II")

#: Default upper bound on one frame's payload — a malformed or hostile
#: length prefix must not make the receiver allocate unbounded memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(message: Mapping[str, Any]) -> bytes:
    """One message as a complete wire frame (header + codec payload)."""
    try:
        payload = codec.encode(message)
    except codec.CodecError as error:
        raise ProtocolError(
            f"message is not encodable as a JSON header plus array blocks: {error}") from error
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(header: bytes, payload: bytes) -> dict[str, Any]:
    length, checksum = _HEADER.unpack(header)
    if zlib.crc32(payload) != checksum:
        raise ProtocolError("frame checksum mismatch (corrupt or torn frame)")
    try:
        message = codec.decode(payload)
    except codec.CodecError as error:
        raise ProtocolError(f"frame payload does not decode: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a message object")
    return message


def _recv_exactly(sock: socket.socket, count: int, deadline: float | None) -> bytes:
    """``count`` more bytes of a frame that has started.  ``deadline`` (a
    :func:`time.monotonic` instant) bounds the whole read, however the peer
    slices it; without one each ``recv`` waits the socket's own timeout."""
    chunks = []
    remaining = count
    while remaining:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("peer stalled mid-frame")
            sock.settimeout(left)
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _finish_frame(sock: socket.socket, header: bytes, max_bytes: int,
                  deadline: float | None) -> dict[str, Any]:
    """The rest of a frame whose first bytes are ``header``."""
    if len(header) < _HEADER.size:
        header += _recv_exactly(sock, _HEADER.size - len(header), deadline)
    length, _ = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"frame length {length} exceeds the {max_bytes}-byte limit")
    return _decode_payload(header, _recv_exactly(sock, length, deadline))


def recv_frame(sock: socket.socket, *,
               max_bytes: int = MAX_FRAME_BYTES) -> dict[str, Any]:
    """Read one frame from a blocking socket (the client side).

    A clean EOF before any header byte raises
    :class:`~repro.core.errors.ProtocolError` too: the synchronous client
    only reads when it expects a response, so *any* hangup there is a lost
    reply, never a normal shutdown.
    """
    header = sock.recv(_HEADER.size)
    if not header:
        raise ProtocolError("connection closed before a response arrived")
    return _finish_frame(sock, header, max_bytes, None)


def recv_request(sock: socket.socket, *, max_bytes: int = MAX_FRAME_BYTES,
                 idle_timeout: float | None = None,
                 frame_timeout: float | None = None) -> dict[str, Any] | None:
    """Read one frame from a blocking socket (the server side).

    Returns ``None`` on a clean EOF *between* frames (the peer hung up at a
    message boundary).  EOF inside a frame, a length overrunning
    ``max_bytes`` (refused before a byte of the payload is read), a
    checksum mismatch or a payload that does not decode raise
    :class:`ProtocolError`.
    ``idle_timeout`` bounds the wait for the frame's first byte (an idle
    connection); ``frame_timeout`` bounds the rest of the frame once it has
    started (a stalled or torn send) — both surface as :class:`TimeoutError`
    for the caller to map to its close policy.
    """
    sock.settimeout(idle_timeout)
    header = sock.recv(_HEADER.size)
    if not header:
        return None  # clean EOF at a frame boundary
    sock.settimeout(frame_timeout)
    deadline = None if frame_timeout is None else time.monotonic() + frame_timeout
    return _finish_frame(sock, header, max_bytes, deadline)


def send_frame(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Encode and send one message over a blocking socket."""
    sock.sendall(encode_frame(message))


# ----------------------------------------------------------------------
# object payloads
# ----------------------------------------------------------------------
class ObjectRef(tuple):
    """A lightweight (object_id, name) reference to a stored object.

    Answers cross the wire as references, not full objects — the caller
    already knows (or can fetch) the data; what a query result identifies
    is *which* rows matched and how far they were.
    """

    __slots__ = ()

    def __new__(cls, object_id: int, name: str | None) -> "ObjectRef":
        return tuple.__new__(cls, (object_id, name))

    @property
    def object_id(self) -> int:
        return self[0]

    @property
    def name(self) -> str | None:
        return self[1]

    def __repr__(self) -> str:
        return f"ObjectRef(id={self[0]}, name={self[1]!r})"


def encode_param(value: Any) -> Any:
    """A query parameter (or inserted row) as a codec-ready payload.

    Data objects go through the durable layer's object codec (a series'
    values stay a float64 array, sent as a block); JSON scalars pass
    through untouched (wrapped so a dict-valued scalar cannot be mistaken
    for an encoded object).
    """
    if isinstance(value, DataObject):
        return {"_obj": encode_object(value)}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ProtocolError(
        f"cannot send a {type(value).__name__} as a query parameter; "
        "supported: data objects and JSON scalars")


def decode_param(payload: Any, *, fresh_id: bool = False) -> Any:
    """Invert :func:`encode_param`.

    ``fresh_id=True`` drops the sender's object id so the receiving
    catalog allocates its own — inserted rows must never collide with ids
    the server already handed out, while query parameters keep theirs
    (they are transient and never stored).
    """
    if isinstance(payload, dict) and "_obj" in payload:
        try:
            record = dict(payload["_obj"])
            if fresh_id:
                record["id"] = None
            return decode_object(record)
        except (KeyError, TypeError, ValueError) as error:
            # A record no object can be built from — a field missing, a
            # series holding nan — is the sender's fault, not the server's.
            raise ProtocolError(f"malformed object payload: {error!r}") from error
    return payload


def encode_answer(answer: tuple) -> dict[str, Any]:
    """One answer tuple — (object, distance) or (left, right, distance) —
    as a self-describing record of references plus the exact distance.
    Whole answer lists go as columns instead (:func:`encode_answers`)."""
    if len(answer) == 3:
        left, right, distance = answer
        return {"l": [left.object_id, left.name],
                "r": [right.object_id, right.name], "d": float(distance)}
    obj, distance = answer
    return {"o": [obj.object_id, obj.name], "d": float(distance)}


def encode_answers(answers: Sequence[tuple]) -> dict[str, Any]:
    """An answer list as columns: ``ids`` and ``names`` lists and the
    distances ``d`` as one float64 array; a join's answers add the right
    side's ``right_ids`` and ``right_names``."""
    columns: dict[str, Any] = {
        "ids": [answer[0].object_id for answer in answers],
        "names": [answer[0].name for answer in answers],
        "d": np.array([answer[-1] for answer in answers], dtype=np.float64),
    }
    if answers and len(answers[0]) == 3:
        columns["right_ids"] = [answer[1].object_id for answer in answers]
        columns["right_names"] = [answer[1].name for answer in answers]
    return columns


def decode_answers(columns: Mapping[str, Any]) -> list[tuple]:
    """Invert :func:`encode_answers` into (:class:`ObjectRef`, distance)
    tuples, or (left, right, distance) for a join."""
    try:
        names = ("ids", "names", "right_ids", "right_names") if "right_ids" in columns \
            else ("ids", "names")
        distances = columns["d"].tolist()
        lists = [columns[name] for name in names]
    except (KeyError, TypeError, AttributeError) as error:
        raise ProtocolError(f"malformed answer columns: {error!r}") from error
    if not all(isinstance(column, list) and len(column) == len(distances)
               for column in lists):
        raise ProtocolError("answer columns are not lists of one length")
    sides = [map(ObjectRef, lists[i], lists[i + 1]) for i in range(0, len(lists), 2)]
    return list(zip(*sides, distances))
