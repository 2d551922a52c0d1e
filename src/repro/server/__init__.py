"""The serving layer: a fault-hardened wire front door over a session.

Four modules, one promise each:

:mod:`~repro.server.protocol`
    Length-prefixed, CRC-framed codec messages (the WAL's framing and
    record codec, on a socket) plus the object and answer encodings.
:mod:`~repro.server.service`
    The server, one thread per connection — snapshot reads under a
    readers-writer lock, admission control with explicit ``RETRY_LATER``
    backpressure, cooperative per-request deadlines, connection timeouts.
:mod:`~repro.server.client`
    The synchronous client mirroring the Session API, with capped
    jittered backoff and idempotency-aware automatic retry.
:mod:`~repro.server.faults`
    Deterministic fault injection (frame drop/corrupt/truncate/delay/
    stall, kill points between WAL commit and acknowledgement) threaded
    through both transport ends.
"""

from .client import BackoffPolicy, RemoteCursor, RemoteOutcome, \
    RemoteStatement, ServerClient
from .faults import FaultPlan, FrameFaults, ServerKilled
from .protocol import ObjectRef
from .service import QueryServer, ServerConfig, ServerHandle, serve

__all__ = [
    "serve",
    "ServerConfig",
    "QueryServer",
    "ServerHandle",
    "ServerClient",
    "BackoffPolicy",
    "RemoteOutcome",
    "RemoteStatement",
    "RemoteCursor",
    "ObjectRef",
    "FaultPlan",
    "FrameFaults",
    "ServerKilled",
]
