"""The synchronous client: the Session API over a socket, retry-aware.

``repro.client.connect(address)`` mirrors the :class:`~repro.core.session.Session`
surface — ``sql`` / ``sql_many`` / ``prepare`` / ``explain`` /
``insert_many`` / ``checkpoint`` — over the framed wire protocol, with a
retry discipline that is deliberately asymmetric:

* ``RETRY_LATER`` (admission backpressure) is **always** retried, with
  capped exponential backoff plus deterministic jitter: the server said
  nothing ran, so retrying is free of semantic risk.
* A lost connection or corrupt response frame is retried **only for
  idempotent reads** (``sql`` / ``sql_many`` / ``execute`` / ``explain`` /
  ``fetch`` — every query in this engine is read-only).  The client
  transparently reconnects and re-prepares its statements first.
* The same failure on a **write** (``insert_many`` / ``checkpoint``)
  raises :class:`~repro.core.errors.ConnectionLostError` instead: the
  server may or may not have committed before the line went dead, and
  silently retrying would risk applying the write twice.  The ambiguity
  is the caller's to resolve (re-read, or re-send knowingly).
* Typed server errors — ``DEADLINE_EXCEEDED``, ``QUERY_ERROR``,
  ``PROTOCOL_ERROR``, ``CACHE_BUDGET`` — are never retried; retrying a
  request the server *rejected* would only reproduce the rejection.

Backoff is seeded (``BackoffPolicy(seed=...)``), so a test that exercises
the retry path replays the exact same sleep schedule every run.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..core.errors import (ConnectionLostError, DeadlineExceededError,
                           ProtocolError, QueryCancelledError,
                           RetryExhaustedError, RetryLaterError, ServerError)
from ..core.objects import DataObject
from .faults import FaultPlan, FrameFaults, corrupt_frame
from .protocol import decode_answers, encode_frame, encode_param, recv_frame

__all__ = ["BackoffPolicy", "RemoteOutcome", "RemoteStatement",
           "RemoteCursor", "ServerClient", "connect"]


@dataclass
class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    Sleep before attempt *k* (0-based) is ``base_ms * multiplier**k``
    capped at ``cap_ms``, scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1]`` — backing *off* the full wait, never beyond it,
    so the cap is a real upper bound.  ``seed`` pins the jitter sequence;
    ``attempts`` bounds the total tries (first attempt included).
    """

    base_ms: float = 25.0
    multiplier: float = 2.0
    cap_ms: float = 1000.0
    jitter: float = 0.5
    attempts: int = 5
    seed: int | None = None

    def __post_init__(self) -> None:
        self._random = random.Random(self.seed)

    def delay_s(self, attempt: int) -> float:
        """The sleep (seconds) before retry number ``attempt`` (0-based)."""
        raw = min(self.cap_ms, self.base_ms * (self.multiplier ** attempt))
        scale = 1.0 - self.jitter * self._random.random()
        return (raw * scale) / 1000.0


@dataclass
class RemoteOutcome:
    """What one remote query returned: answers (as
    :class:`~repro.server.protocol.ObjectRef` tuples), the pinned snapshot
    epoch, and the server-side timing/caching facts."""

    answers: list[tuple]
    epoch: list
    elapsed_ms: float = 0.0
    from_cache: bool = False

    def __len__(self) -> int:
        return len(self.answers)


class RemoteStatement:
    """A server-side prepared statement, resilient to reconnects.

    The client remembers the *text*; the server-side id is per-connection
    state.  After a reconnect the statement re-prepares itself lazily (the
    generation counter detects staleness), so a retry loop never executes
    against a dead id.
    """

    def __init__(self, client: "ServerClient", text: str) -> None:
        self._client = client
        self.text = text
        self._statement_id: int | None = None
        self._generation = -1

    def _ensure_prepared(self) -> int:
        if self._statement_id is None \
                or self._generation != self._client._generation:
            response = self._client._request(
                {"op": "prepare", "query": self.text}, idempotent=True)
            self._statement_id = response["statement"]
            self._generation = self._client._generation
        return self._statement_id

    def _revalidate(self, message: dict[str, Any]) -> None:
        """Retry hook: after a reconnect the server-side id is dead —
        re-prepare and rewrite the outgoing request in place."""
        message["statement"] = self._ensure_prepared()

    def run(self, parameters: Mapping[str, Any] | None = None,
            *, deadline_ms: float | None = None,
            **keyword_parameters: Any) -> RemoteOutcome:
        merged = dict(parameters or {})
        merged.update(keyword_parameters)
        request = {"op": "execute", "statement": self._ensure_prepared(),
                   "params": _encode_params(merged)}
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        response = self._client._request(request, idempotent=True,
                                         revalidate=self._revalidate)
        return _decode_outcome(response)

    def run_many(self, bindings: Sequence[Mapping[str, Any] | None],
                 *, deadline_ms: float | None = None) -> list[RemoteOutcome]:
        request = {"op": "execute", "statement": self._ensure_prepared(),
                   "bindings": [_encode_params(b or {}) for b in bindings]}
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        response = self._client._request(request, idempotent=True,
                                         revalidate=self._revalidate)
        return [_decode_outcome(result) for result in response["results"]]

    def explain(self) -> str:
        response = self._client._request(
            {"op": "explain", "statement": self._ensure_prepared()},
            idempotent=True, revalidate=self._revalidate)
        return response["plan"]

    def close(self) -> None:
        if self._statement_id is not None \
                and self._generation == self._client._generation:
            try:
                self._client._request({"op": "close_statement",
                                       "statement": self._statement_id},
                                      idempotent=True)
            except ServerError:
                pass  # connection already gone: server-side state died too
        self._statement_id = None

    def __repr__(self) -> str:
        return f"RemoteStatement({self.text!r})"


class RemoteCursor:
    """A server-held result set, fetched in pages.

    Iterating yields answer tuples; the server frees the cursor when the
    last page is fetched (or when its byte budget evicts it — a stale
    fetch then fails loudly with ``PROTOCOL_ERROR``, never silently
    returns a truncated set).
    """

    def __init__(self, client: "ServerClient", cursor_id: int,
                 count: int, epoch: list) -> None:
        self._client = client
        self._cursor_id = cursor_id
        self.count = count
        self.epoch = epoch
        self._done = False

    def fetch(self, count: int = 128) -> list[tuple]:
        if self._done:
            return []
        response = self._client._request(
            {"op": "fetch", "cursor": self._cursor_id, "count": count},
            idempotent=False)  # a fetch advances server state: not replayable
        self._done = bool(response["done"])
        return decode_answers(response["answers"])

    def __iter__(self):
        while not self._done:
            page = self.fetch()
            if not page:
                return
            yield from page

    def close(self) -> None:
        if not self._done:
            self._done = True
            try:
                self._client._request({"op": "close_cursor",
                                       "cursor": self._cursor_id},
                                      idempotent=True)
            except ServerError:
                pass


def _encode_params(parameters: Mapping[str, Any]) -> dict[str, Any]:
    return {name: encode_param(value) for name, value in parameters.items()}


def _decode_outcome(payload: Mapping[str, Any]) -> RemoteOutcome:
    return RemoteOutcome(
        answers=decode_answers(payload["answers"]),
        epoch=payload.get("epoch", []),
        elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
        from_cache=bool(payload.get("from_cache", False)))


class ServerClient:
    """A synchronous connection to a :class:`~repro.server.service.QueryServer`.

    Parameters
    ----------
    address:
        ``(host, port)`` tuple or ``"host:port"`` string.
    timeout_s:
        Socket timeout for connect and for each response wait.  A server
        that drops or stalls a response surfaces here as a timeout, which
        the retry discipline then classifies like a lost connection.
    backoff:
        The :class:`BackoffPolicy` for ``RETRY_LATER`` and idempotent-read
        retries (default policy if ``None``).
    deadline_ms:
        Default per-request deadline forwarded to the server (``None`` =
        server default).
    fault_plan:
        Optional :class:`~repro.server.faults.FaultPlan` applied to the
        client's *outgoing* frames — the other half of the fault harness.
    """

    def __init__(self, address: tuple[str, int] | str, *,
                 timeout_s: float = 10.0,
                 backoff: BackoffPolicy | None = None,
                 deadline_ms: float | None = None,
                 fault_plan: FaultPlan | None = None) -> None:
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise ProtocolError(
                    f"address {address!r} is not 'host:port' or (host, port)")
            address = (host, int(port))
        self.address: tuple[str, int] = (address[0], int(address[1]))
        self.timeout_s = timeout_s
        self.backoff = backoff or BackoffPolicy()
        self.deadline_ms = deadline_ms
        self._fault_plan = fault_plan
        self._faults: FrameFaults | None = None
        self._socket: socket.socket | None = None
        self._next_id = 1
        #: Bumped on every (re)connect; statements compare against it to
        #: detect that their server-side ids died with the old connection.
        self._generation = 0
        self._closed = False
        self.retries = 0  # observability: total retry sleeps taken

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _ensure_connected(self) -> socket.socket:
        if self._closed:
            raise ConnectionLostError("client is closed")
        if self._socket is None:
            sock = socket.create_connection(self.address,
                                            timeout=self.timeout_s)
            sock.settimeout(self.timeout_s)
            self._socket = sock
            self._generation += 1
            if self._fault_plan is not None \
                    and self._fault_plan.touches_frames:
                self._faults = self._fault_plan.frame_faults()
            else:
                self._faults = None
        return self._socket

    def _drop_connection(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def _send_request(self, sock: socket.socket,
                      message: Mapping[str, Any]) -> bool:
        """Send one frame through the client-side fault schedule; returns
        whether the frame actually went out (a dropped/stalled frame did
        not, and the response wait will time out as intended)."""
        frame = encode_frame(message)
        if self._faults is None:
            sock.sendall(frame)
            return True
        action, delay = self._faults.next_action()
        if delay:
            time.sleep(delay)
        if action in (FrameFaults.DROP, FrameFaults.STALL):
            return False
        if action == FrameFaults.CORRUPT:
            sock.sendall(corrupt_frame(frame))
            return True
        if action == FrameFaults.TRUNCATE:
            sock.sendall(frame[:max(1, len(frame) // 2)])
            self._drop_connection()
            return False
        sock.sendall(frame)
        return True

    # ------------------------------------------------------------------
    # request/response with the retry discipline
    # ------------------------------------------------------------------
    def _request(self, message: dict[str, Any], *, idempotent: bool,
                 revalidate: Any = None) -> dict[str, Any]:
        if self.deadline_ms is not None:
            message.setdefault("deadline_ms", self.deadline_ms)
        last_error: Exception | None = None
        for attempt in range(self.backoff.attempts):
            if attempt:
                self.retries += 1
                time.sleep(self.backoff.delay_s(attempt - 1))
                if revalidate is not None:
                    # Reconnects invalidate per-connection server state
                    # (statement ids); reconnect first so the generation
                    # bump is visible, then let the caller rewrite the
                    # stale parts of the request.
                    self._ensure_connected()
                    revalidate(message)
            request_id = self._next_id
            self._next_id += 1
            message["id"] = request_id
            try:
                sock = self._ensure_connected()
                self._send_request(sock, message)
                response = recv_frame(sock)
            except (OSError, ProtocolError) as error:
                # Lost/garbled transport: nothing trustworthy came back.
                self._drop_connection()
                if not idempotent:
                    raise ConnectionLostError(
                        f"connection lost with a non-idempotent request in "
                        f"flight ({message.get('op')}); the server may or "
                        f"may not have applied it — not retrying "
                        f"automatically ({error})") from error
                last_error = error
                continue
            if response.get("id") != request_id:
                # A frame from a previous life of this connection: the
                # stream is out of step and nothing on it can be trusted.
                self._drop_connection()
                error = ProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id!r}")
                if not idempotent:
                    raise ConnectionLostError(str(error)) from error
                last_error = error
                continue
            if response.get("ok"):
                return response
            code = response.get("code", "INTERNAL")
            text = response.get("error", "server error")
            if code == "RETRY_LATER":
                # The server refused before running anything: always safe
                # to retry, whatever the op.
                last_error = RetryLaterError(
                    text, retry_after_ms=float(
                        response.get("retry_after_ms", 50.0)))
                continue
            if code == "DEADLINE_EXCEEDED":
                raise DeadlineExceededError(text)
            if code == "CANCELLED":
                raise QueryCancelledError(text)
            if code == "PROTOCOL_ERROR":
                raise ProtocolError(text)
            raise ServerError(text, code=code)
        raise RetryExhaustedError(
            f"request {message.get('op')!r} failed after "
            f"{self.backoff.attempts} attempts; last error: {last_error}",
            attempts=self.backoff.attempts, last_error=last_error)

    # ------------------------------------------------------------------
    # the Session-shaped surface
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}, idempotent=True)["pong"])

    def sql(self, query: str, parameters: Mapping[str, Any] | None = None,
            *, deadline_ms: float | None = None,
            **keyword_parameters: Any) -> RemoteOutcome:
        """Run one read-only query; answers come back as
        (:class:`ObjectRef`, distance) tuples plus the pinned epoch."""
        merged = dict(parameters or {})
        merged.update(keyword_parameters)
        request: dict[str, Any] = {"op": "sql", "query": str(query),
                                   "params": _encode_params(merged)}
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        return _decode_outcome(self._request(request, idempotent=True))

    def sql_cursor(self, query: str,
                   parameters: Mapping[str, Any] | None = None,
                   *, deadline_ms: float | None = None,
                   **keyword_parameters: Any) -> RemoteCursor:
        """Run a query but leave the answers server-side, paged through a
        :class:`RemoteCursor` (held against the connection's byte budget)."""
        merged = dict(parameters or {})
        merged.update(keyword_parameters)
        request: dict[str, Any] = {"op": "sql", "query": str(query),
                                   "params": _encode_params(merged),
                                   "cursor": True}
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        response = self._request(request, idempotent=True)
        return RemoteCursor(self, response["cursor"], response["count"],
                            response.get("epoch", []))

    def sql_many(self, queries: Sequence[str],
                 parameters: Sequence[Mapping[str, Any] | None] | None = None,
                 *, deadline_ms: float | None = None) -> list[RemoteOutcome]:
        """Run a batch in one round trip (the server executes it through
        the engine's batched executor, sharing traversals)."""
        request: dict[str, Any] = {"op": "sql_many",
                                   "queries": [str(q) for q in queries]}
        if parameters is not None:
            request["params"] = [_encode_params(p or {}) for p in parameters]
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        response = self._request(request, idempotent=True)
        return [_decode_outcome(result) for result in response["results"]]

    def prepare(self, query: str) -> RemoteStatement:
        """A reconnect-resilient server-side prepared statement."""
        statement = RemoteStatement(self, str(query))
        statement._ensure_prepared()
        return statement

    def explain(self, query: str) -> str:
        return self._request({"op": "explain", "query": str(query)},
                             idempotent=True)["plan"]

    def insert_many(self, relation: str,
                    objects: Iterable[DataObject]) -> dict[str, Any]:
        """Insert a batch of objects.  NOT auto-retried on connection loss
        (the commit may have landed); returns ``{"count", "ids", "epoch"}``
        — the acknowledgement that the write is applied (and, on a durable
        server, in the write-ahead log)."""
        rows = [encode_param(obj) for obj in objects]
        response = self._request({"op": "insert_many",
                                  "relation": str(relation), "rows": rows},
                                 idempotent=False)
        return {"count": response["count"], "ids": response["ids"],
                "epoch": response.get("epoch", [])}

    def checkpoint(self) -> None:
        """Checkpoint a durable server.  NOT auto-retried (a lost ack does
        not say whether the manifest swap happened)."""
        self._request({"op": "checkpoint"}, idempotent=False)

    def stats(self) -> dict[str, Any]:
        """The server's observability counters (admission, completion)."""
        return self._request({"op": "stats"}, idempotent=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        self._drop_connection()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "connected" if self._socket is not None else "idle")
        return f"ServerClient(address={self.address}, {state})"


def connect(address: tuple[str, int] | str, **kwargs: Any) -> ServerClient:
    """Open a client connection to a running query server::

        handle = repro.serve(path="walks.db")
        client = repro.client.connect(handle.address)
        client.sql("SELECT FROM walks WHERE dist(series, $q) < 2.0", q=series)
    """
    client = ServerClient(address, **kwargs)
    client.ping()
    return client
