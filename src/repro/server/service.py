"""The query server: a thread per connection over a :class:`Session`.

The engine is synchronous Python under one interpreter lock, so the server
is synchronous too.  An accept thread gives every connection a daemon thread
of its own, which loops *read a frame → dispatch → send the response* on a
blocking socket and runs each query inline: no event loop, no executor hop,
and a connection's requests always land on the same warm thread (and its
malloc arena).  The price is that an idle connection holds a parked thread
rather than a descriptor in a selector.

Robustness is the design center, and every mechanism here exists to keep
one of four promises:

**Snapshot reads.**  Queries run under the read side of a
readers-writer lock and pin the relation's ``state_token`` epoch before
executing, so every answer a client receives is consistent with exactly
one quiesced catalog state — bit-identical to what a standalone session
at that state would compute — even while writers commit between reads.
Writers take the lock's write side, so no query ever observes a
half-applied batch.

**Admission control.**  In-flight queries are bounded
(``max_in_flight``); excess requests queue up to ``max_queue_depth`` and
beyond that are refused *immediately* with ``RETRY_LATER`` — explicit
backpressure the client can act on, instead of an ever-growing queue that
converts overload into timeouts.  Per-connection cursor results are held
against a byte budget with oldest-first eviction.

**Bounded waiting.**  A request's ``deadline_ms`` becomes a
:class:`~repro.core.cancel.CancellationToken` that bounds the wait for an
execution slot and is installed on the connection's thread around the
engine call; the engine's scan and index fan-out loops poll it at their
checkpoints, so a query that outlives its deadline stops *cooperatively*
— mid-fan-out, with pool slots released and caches untouched — rather
than running to completion for a client that stopped listening.  Idle
connections and half-sent frames are bounded by their own timeouts.

**Honest failure.**  Every failure mode has one wire shape (an ``ok:
false`` response with a typed ``code``), and the deterministic
:class:`~repro.server.faults.FaultPlan` hooks — frame drop/corrupt/
truncate/delay/stall on the response stream, kill points between WAL
commit and acknowledgement — exist so the failure paths are *tested*, not
just written down.
"""

from __future__ import annotations

import collections
import ctypes
import socket
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from ..core.cancel import CancellationToken, cancel_scope
from ..core.errors import (
    DeadlineExceededError,
    ProtocolError,
    QueryCancelledError,
    ReproError,
    RetryLaterError,
    ServerError,
)
from ..core.query.ast import Query
from ..core.session import Session, connect
from ..storage import codec
from .faults import FaultPlan, FrameFaults, ServerKilled, corrupt_frame
from .protocol import MAX_FRAME_BYTES, decode_param, encode_answers, encode_frame, recv_request

__all__ = ["ServerConfig", "QueryServer", "ServerHandle", "serve"]

#: How long ``stop`` / ``kill`` wait for the server's threads to notice their
#: sockets are shut.  A request still executing past it is abandoned to its
#: daemon thread: stopping is bounded even when a query is not.
_STOP_GRACE_S = 1.0


@dataclass
class ServerConfig:
    """Knobs of one :class:`QueryServer`, grouped by the promise they keep.

    Addressing: ``host``/``port`` (port ``0`` picks a free one —
    the bound address is on :attr:`QueryServer.address`).

    Admission: at most ``max_in_flight`` requests execute concurrently;
    up to ``max_queue_depth`` more wait; beyond that ``RETRY_LATER`` with
    the advisory ``retry_after_ms``.  A request runs on its connection's
    thread — the server never borrows the engine's partition-scan workers,
    so a saturated server cannot deadlock a parallel scan (or vice versa).

    Budgets: ``client_cache_bytes`` bounds one connection's open cursor
    results (oldest cursors are evicted first); ``max_frame_bytes``
    bounds one request frame.

    Deadlines and timeouts: ``default_deadline_ms`` applies when a request
    carries none (``None`` = unbounded); ``idle_timeout_s`` closes
    connections with no traffic; ``frame_timeout_s`` closes connections
    that started a frame and stalled (a torn or wedged peer must not hold
    a connection thread forever).

    Faults: an optional :class:`FaultPlan` threaded through the response
    stream and the commit path — production servers leave it ``None``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_in_flight: int = 8
    max_queue_depth: int = 16
    retry_after_ms: float = 50.0
    client_cache_bytes: int = 1 << 20
    max_frame_bytes: int = MAX_FRAME_BYTES
    default_deadline_ms: float | None = None
    idle_timeout_s: float | None = 300.0
    frame_timeout_s: float | None = 10.0
    fault_plan: FaultPlan | None = None


class _ReadWriteLock:
    """A readers-writer lock with writer preference.

    Many readers share it; one writer excludes everyone.  Readers arriving
    while a writer waits are held back, so a steady stream of queries
    cannot starve commits — the exact workload a query server sees.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def reading(self) -> Iterator[None]:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def writing(self) -> Iterator[None]:
        with self._condition:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._condition:
                self._writer_active = False
                self._condition.notify_all()


class _Admission:
    """Bounded in-flight slots with a bounded FIFO of waiters.

    A request past both bounds is refused without waiting — backpressure
    must cost nothing to apply — and ``rejected`` counts those refusals
    under the same lock that decides them, so the count is exact however
    many connection threads are refused at once.  A finishing request hands
    its slot to the longest waiter; a waiter gives up when its request's
    deadline passes, so queue time can never outlast the deadline.
    """

    def __init__(self, max_in_flight: int, max_queue_depth: int, retry_after_ms: float) -> None:
        self.max_in_flight = max(1, int(max_in_flight))
        self.max_queue_depth = max(0, int(max_queue_depth))
        self.retry_after_ms = retry_after_ms
        self.in_flight = 0
        self.rejected = 0
        self._condition = threading.Condition()
        self._queue: collections.deque[object] = collections.deque()

    @property
    def queued(self) -> int:
        return len(self._queue)

    @contextmanager
    def slot(self, token: CancellationToken) -> Iterator[None]:
        self._acquire(token)
        try:
            yield
        finally:
            with self._condition:
                if self._queue:
                    # The slot transfers: leaving the queue is being admitted.
                    self._queue.popleft()
                    self._condition.notify_all()
                else:
                    self.in_flight -= 1

    def _acquire(self, token: CancellationToken) -> None:
        with self._condition:
            if self.in_flight < self.max_in_flight:
                self.in_flight += 1
                return
            if len(self._queue) >= self.max_queue_depth:
                self.rejected += 1
                raise RetryLaterError(
                    f"server saturated: {self.in_flight} in flight, "
                    f"{len(self._queue)} queued; retry after "
                    f"{self.retry_after_ms:g} ms",
                    retry_after_ms=self.retry_after_ms,
                )
            ticket = object()
            self._queue.append(ticket)
            while ticket in self._queue:
                remaining = token.remaining()
                if remaining is not None and remaining <= 0:
                    self._queue.remove(ticket)
                    raise DeadlineExceededError(
                        "request spent its whole deadline queued for an execution slot"
                    )
                self._condition.wait(remaining)


def _failure(request_id: Any, code: str, error: str, **extra: Any) -> dict[str, Any]:
    """The one wire shape of every failure."""
    return {"id": request_id, "ok": False, "code": code, "error": error, **extra}


class _Cursor:
    """A result set held for paging: its answer columns, how many rows are
    fetched, and its encoded size (what it counts against the budget)."""

    __slots__ = ("columns", "count", "position", "size_bytes", "epoch")

    def __init__(self, columns: dict[str, Any], size_bytes: int, epoch: Any) -> None:
        self.columns = columns
        self.count = len(columns["ids"])
        self.position = 0
        self.size_bytes = size_bytes
        self.epoch = epoch


class _Connection:
    """Per-connection state: socket, statements, cursors, fault schedule.

    Touched only by the connection's own thread, but for :meth:`shut`.
    """

    def __init__(self, sock: socket.socket, faults: FrameFaults | None, cache_budget: int) -> None:
        self.sock = sock
        self.faults = faults
        self.cache_budget = cache_budget
        self.statements: dict[int, Any] = {}
        self.cursors: collections.OrderedDict[int, _Cursor] = collections.OrderedDict()
        self.cache_bytes = 0
        self._next_statement = 1
        self._next_cursor = 1

    def register_statement(self, prepared: Any) -> int:
        statement_id = self._next_statement
        self._next_statement += 1
        self.statements[statement_id] = prepared
        return statement_id

    def register_cursor(self, cursor: _Cursor) -> int:
        """Admit a result set under the byte budget, evicting the oldest
        open cursors to make room; refuse a set that cannot fit alone."""
        if cursor.size_bytes > self.cache_budget:
            raise ServerError(
                f"result set of {cursor.size_bytes} bytes exceeds this "
                f"connection's {self.cache_budget}-byte cursor budget; "
                "narrow the query or raise client_cache_bytes",
                code="CACHE_BUDGET",
            )
        while self.cursors and self.cache_bytes + cursor.size_bytes > self.cache_budget:
            _, evicted = self.cursors.popitem(last=False)
            self.cache_bytes -= evicted.size_bytes
        cursor_id = self._next_cursor
        self._next_cursor += 1
        self.cursors[cursor_id] = cursor
        self.cache_bytes += cursor.size_bytes
        return cursor_id

    def drop_cursor(self, cursor_id: int) -> None:
        cursor = self.cursors.pop(cursor_id, None)
        if cursor is not None:
            self.cache_bytes -= cursor.size_bytes

    def send(self, message: Mapping[str, Any]) -> None:
        """Send one response frame through the fault schedule (which sends
        nothing for a dropped frame, or for any frame once it has stalled)."""
        frame = encode_frame(message)
        if self.faults is None:
            self.sock.sendall(frame)
            return
        action, delay = self.faults.next_action()
        if delay:
            time.sleep(delay)
        if action == FrameFaults.PASS:
            self.sock.sendall(frame)
        elif action == FrameFaults.CORRUPT:
            self.sock.sendall(corrupt_frame(frame))
        elif action == FrameFaults.TRUNCATE:
            self.sock.sendall(frame[: max(1, len(frame) // 2)])
            self.shut()

    def shut(self) -> None:
        """Shut the socket down (any thread may): a ``recv`` blocked on it
        returns, and the connection's own thread then closes it."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer, or the connection's thread, got there first


class QueryServer:
    """The server proper: accepts framed requests, dispatches ops.

    ``start()`` binds the listening socket and starts the accept thread;
    ``stop()`` and ``kill()`` shut every socket down, which is what ends the
    threads blocked on them.  :func:`serve` wraps one in a
    :class:`ServerHandle` that also knows who owns the session.
    """

    def __init__(self, session: Session, config: ServerConfig | None = None) -> None:
        self.session = session
        self.config = config or ServerConfig()
        self.address: tuple[str, int] | None = None
        self.killed = False
        self._lock = _ReadWriteLock()
        self._admission = _Admission(
            self.config.max_in_flight, self.config.max_queue_depth, self.config.retry_after_ms
        )
        self._kill_event = threading.Event()
        #: Guards the counters, the connection registry and ``_closing``.
        self._state_lock = threading.Lock()
        self._closing = False
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._connections: dict[_Connection, threading.Thread] = {}
        self._counters = dict.fromkeys(
            ("accepted", "completed", "cancelled", "protocol_errors", "commits"), 0
        )

    @property
    def stats(self) -> dict[str, int]:
        """Observability counters, as of one instant.  ``rejected`` is the
        admission gate's own count: one refusal, one place that counts it."""
        with self._state_lock:
            return {**self._counters, "rejected": self._admission.rejected}

    def _count(self, counter: str) -> None:
        with self._state_lock:
            self._counters[counter] += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        listener = socket.create_server((self.config.host, self.config.port))
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept, args=(listener,), name="repro-server-accept", daemon=True
        )
        self._acceptor.start()
        return self.address

    def stop(self) -> None:
        """Graceful stop: refuse new connections, close existing ones and
        give their threads a moment to end.  The session is left to its
        owner."""
        self._shut_sockets()
        self.join(_STOP_GRACE_S)

    def kill(self) -> None:
        """Die abruptly: shut every socket, stop accepting, leave the
        session un-checkpointed and un-closed — exactly what a process
        crash leaves behind.  Durability then rests on what the WAL policy
        already made persistent, which is the point of the fault tests."""
        self.killed = True
        self._shut_sockets()
        self._kill_event.set()

    def wait_killed(self, timeout: float | None = None) -> bool:
        return self._kill_event.wait(timeout)

    def join(self, timeout: float) -> None:
        """Wait — ``timeout`` seconds in all — for the accept thread and the
        connection threads to end (the calling thread excepted: a kill point
        fires on a connection's own thread)."""
        deadline = time.monotonic() + timeout
        with self._state_lock:
            threads = [self._acceptor, *self._connections.values()]
        for thread in threads:
            if thread is not None and thread is not threading.current_thread():
                thread.join(max(0.0, deadline - time.monotonic()))

    def _shut_sockets(self) -> None:
        with self._state_lock:
            self._closing = True
            listener, self._listener = self._listener, None
            connections = list(self._connections)
        if listener is not None:
            try:
                # Wakes the accept thread; while it is blocked in accept(),
                # close() alone would leave the port listening.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # platforms that refuse to shut a listener wake on close
            listener.close()
        for connection in connections:
            connection.shut()

    # ------------------------------------------------------------------
    # accept and connection loops
    # ------------------------------------------------------------------
    def _accept(self, listener: socket.socket) -> None:
        plan = self.config.fault_plan
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                if self._closing:
                    return
                time.sleep(0.05)  # a peer reset in the backlog, or no descriptors left
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            faults = plan.frame_faults() if plan is not None and plan.touches_frames else None
            connection = _Connection(sock, faults, self.config.client_cache_bytes)
            thread = threading.Thread(
                target=self._serve, args=(connection,), name="repro-server-connection", daemon=True
            )
            with self._state_lock:
                if self._closing:
                    sock.close()
                    return
                self._connections[connection] = thread
                thread.start()

    def _serve(self, connection: _Connection) -> None:
        config = self.config
        try:
            while not self.killed:
                try:
                    request = recv_request(
                        connection.sock,
                        max_bytes=config.max_frame_bytes,
                        idle_timeout=config.idle_timeout_s,
                        frame_timeout=config.frame_timeout_s,
                    )
                except TimeoutError:
                    break  # idle or stalled peer: reclaim the connection
                except ProtocolError as error:
                    # One best-effort diagnostic, then drop: after a torn
                    # or corrupt request frame the stream offset is
                    # untrustworthy, so resynchronising is impossible.
                    self._count("protocol_errors")
                    connection.send(_failure(None, "PROTOCOL_ERROR", str(error)))
                    break
                if request is None:
                    break  # clean EOF
                try:
                    response = self._dispatch(connection, request)
                except ServerKilled:
                    self.kill()
                    break
                connection.send(response)
        except OSError:
            pass  # the peer went away, or stop()/kill() shut the socket
        finally:
            with self._state_lock:
                self._connections.pop(connection, None)
            connection.statements.clear()
            connection.cursors.clear()
            connection.sock.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, connection: _Connection, request: Mapping[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            return _failure(request_id, "PROTOCOL_ERROR", f"unknown op {op!r}")
        try:
            body = handler(self, connection, request)
        except RetryLaterError as error:
            return _failure(request_id, error.code, str(error), retry_after_ms=error.retry_after_ms)
        except QueryCancelledError as error:
            self._count("cancelled")
            code = "DEADLINE_EXCEEDED" if isinstance(error, DeadlineExceededError) else "CANCELLED"
            return _failure(request_id, code, str(error))
        except ServerError as error:  # a ProtocolError's code is PROTOCOL_ERROR
            return _failure(request_id, error.code, str(error))
        except ReproError as error:
            return _failure(request_id, "QUERY_ERROR", f"{type(error).__name__}: {error}")
        except Exception as error:  # noqa: BLE001 — one wire shape for all
            return _failure(request_id, "INTERNAL", f"{type(error).__name__}: {error}")
        body["id"] = request_id
        body.setdefault("ok", True)
        return body

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _deadline_token(self, request: Mapping[str, Any]) -> CancellationToken:
        deadline_ms = request.get("deadline_ms", self.config.default_deadline_ms)
        if deadline_ms is None:
            return CancellationToken()
        return CancellationToken.after(float(deadline_ms) / 1000.0)

    def _run_read(self, work: Callable[[], Any], token: CancellationToken) -> Any:
        """Admission → read lock → ``work()`` on this thread, with the token
        installed so engine checkpoints observe it."""
        with self._admission.slot(token):
            token.check()  # queue time counts against the deadline
            with self._lock.reading():
                self._count("accepted")
                with cancel_scope(token):
                    result = work()
                self._count("completed")
                return result

    def _run_write(self, work: Callable[[], Any]) -> Any:
        """Admission → write lock → ``work()`` on this thread.  Writes carry
        no deadline: cancelling a half-applied commit would be the one thing
        worse than a slow one."""
        with self._admission.slot(CancellationToken()), self._lock.writing():
            self._count("accepted")
            result = work()
            self._count("completed")
            return result

    def _parse(self, source: Any) -> Query:
        """The request's query as its AST — parsed here, once, for the epoch
        pin and the engine alike.  A syntax error is the caller's typed
        ``QUERY_ERROR``: every op handler runs inside ``_dispatch``'s guard."""
        return self.session.engine._coerce_query(source)

    def _epoch(self, relation_name: str) -> tuple:
        """The relation's snapshot token (JSON makes its tuples lists)."""
        return self.session.database.state_token(relation_name)

    @staticmethod
    def _decode_params(payload: Mapping[str, Any] | None) -> dict[str, Any]:
        if not payload:
            return {}
        return {name: decode_param(value) for name, value in payload.items()}

    @staticmethod
    def _encode_outcome(outcome: Any, epoch: tuple) -> dict[str, Any]:
        return {
            "answers": encode_answers(outcome.answers),
            "epoch": epoch,
            "elapsed_ms": outcome.elapsed_seconds * 1000.0,
            "from_cache": outcome.from_cache,
        }

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _op_ping(self, connection, request) -> dict[str, Any]:
        return {"pong": True}

    def _op_stats(self, connection, request) -> dict[str, Any]:
        stats = self.stats
        return {
            "stats": stats,
            "in_flight": self._admission.in_flight,
            "queued": self._admission.queued,
            "rejected": stats["rejected"],
        }

    def _op_sql(self, connection, request) -> dict[str, Any]:
        token = self._deadline_token(request)
        query = self._parse(request.get("query"))
        parameters = self._decode_params(request.get("params"))

        def work():
            epoch = self._epoch(query.relation)
            return self.session.engine.execute(query, parameters), epoch

        outcome, epoch = self._run_read(work, token)
        if request.get("cursor"):
            columns = encode_answers(outcome.answers)
            cursor = _Cursor(columns, len(codec.encode(columns)), epoch)
            cursor_id = connection.register_cursor(cursor)
            return {
                "cursor": cursor_id,
                "count": cursor.count,
                "epoch": epoch,
                "from_cache": outcome.from_cache,
            }
        return self._encode_outcome(outcome, epoch)

    def _op_sql_many(self, connection, request) -> dict[str, Any]:
        token = self._deadline_token(request)
        queries = [self._parse(source) for source in request.get("queries") or []]
        bindings = request.get("params")
        if bindings is not None:
            bindings = [self._decode_params(binding) for binding in bindings]

        def work():
            epochs = [self._epoch(query.relation) for query in queries]
            return self.session.engine.execute_many(queries, bindings), epochs

        outcomes, epochs = self._run_read(work, token)
        return {"results": [self._encode_outcome(*pair) for pair in zip(outcomes, epochs)]}

    def _op_prepare(self, connection, request) -> dict[str, Any]:
        prepared = self.session.prepare(request.get("query"))
        statement_id = connection.register_statement(prepared)
        return {
            "statement": statement_id,
            "text": prepared.text,
            "relation": prepared.query.relation,
        }

    def _statement(self, connection: _Connection, request) -> Any:
        statement_id = request.get("statement")
        prepared = connection.statements.get(statement_id)
        if prepared is None:
            raise ProtocolError(
                f"unknown statement id {statement_id!r} on this connection "
                "(statements do not survive reconnects; prepare again)"
            )
        return prepared

    def _op_execute(self, connection, request) -> dict[str, Any]:
        token = self._deadline_token(request)
        prepared = self._statement(connection, request)
        many = request.get("bindings")
        if many is not None:
            decoded = [self._decode_params(binding) for binding in many]
        else:
            decoded = self._decode_params(request.get("params"))

        def work():
            epoch = self._epoch(prepared.query.relation)
            run = prepared.run if many is None else prepared.run_many
            return run(decoded), epoch

        result, epoch = self._run_read(work, token)
        if many is None:
            return self._encode_outcome(result, epoch)
        return {"results": [self._encode_outcome(outcome, epoch) for outcome in result]}

    def _op_close_statement(self, connection, request) -> dict[str, Any]:
        connection.statements.pop(request.get("statement"), None)
        return {}

    def _op_explain(self, connection, request) -> dict[str, Any]:
        if "statement" in request:
            query = self._statement(connection, request).query
        else:
            query = self._parse(request.get("query"))
        token = self._deadline_token(request)
        return {"plan": self._run_read(lambda: self.session.explain(query), token)}

    def _op_fetch(self, connection, request) -> dict[str, Any]:
        cursor_id = request.get("cursor")
        cursor = connection.cursors.get(cursor_id)
        if cursor is None:
            raise ProtocolError(
                f"unknown cursor id {cursor_id!r} on this connection "
                "(closed, fully consumed, or evicted by the byte budget)"
            )
        start = cursor.position
        cursor.position = min(cursor.count, start + max(0, int(request.get("count", 128))))
        page = {name: column[start : cursor.position] for name, column in cursor.columns.items()}
        done = cursor.position >= cursor.count
        if done:
            connection.drop_cursor(cursor_id)
        return {"answers": page, "done": done, "epoch": cursor.epoch}

    def _op_close_cursor(self, connection, request) -> dict[str, Any]:
        connection.drop_cursor(request.get("cursor"))
        return {}

    def _op_insert_many(self, connection, request) -> dict[str, Any]:
        relation_name = request.get("relation")
        encoded_rows = request.get("rows") or []
        plan = self.config.fault_plan

        def work():
            objects = [decode_param(row, fresh_id=True) for row in encoded_rows]
            self.session.relation(relation_name).insert_many(objects)
            # The write (and its WAL append, for durable stores) has
            # committed; a scheduled kill point fires HERE — after the
            # commit, before the acknowledgement leaves the server.
            self._count("commits")
            if plan is not None:
                plan.commit_landed()
            return [obj.object_id for obj in objects]

        ids = self._run_write(work)
        return {"count": len(ids), "ids": ids, "epoch": self._epoch(relation_name)}

    def _op_checkpoint(self, connection, request) -> dict[str, Any]:
        self._run_write(self.session.checkpoint)
        return {}

    _OPS = {
        "ping": _op_ping,
        "stats": _op_stats,
        "sql": _op_sql,
        "sql_many": _op_sql_many,
        "prepare": _op_prepare,
        "execute": _op_execute,
        "close_statement": _op_close_statement,
        "explain": _op_explain,
        "fetch": _op_fetch,
        "close_cursor": _op_close_cursor,
        "insert_many": _op_insert_many,
        "checkpoint": _op_checkpoint,
    }


class ServerHandle:
    """A started server plus who owns its session, as :func:`serve` returns it.

    ``stop()`` shuts down gracefully; ``kill()`` simulates a crash (sockets
    shut, session left dirty); both are idempotent.  Usable as a context
    manager (stops on exit).
    """

    def __init__(self, server: QueryServer, *, owns_session: bool) -> None:
        self._server = server
        self._owns_session = owns_session
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        assert self._server.address is not None
        return self._server.address

    @property
    def session(self) -> Session:
        return self._server.session

    @property
    def server(self) -> QueryServer:
        return self._server

    @property
    def killed(self) -> bool:
        return self._server.killed

    def wait_killed(self, timeout: float | None = None) -> bool:
        """Block until a fault-plan kill point fires (or the timeout)."""
        return self._server.wait_killed(timeout)

    def stop(self) -> None:
        """Graceful shutdown; closes the session iff :func:`serve` opened
        it (a caller-provided session stays the caller's to close)."""
        if self._stopped:
            return
        self._stopped = True
        self._server.stop()
        session = self._server.session
        if self._owns_session and not session.closed and not self._server.killed:
            session.close()

    def kill(self) -> None:
        """Crash the server from outside (tests use scheduled kill points
        instead, but an explicit kill supports exploratory harnesses).
        The session is deliberately NOT closed — a crash would not have."""
        if self._stopped:
            return
        self._server.kill()
        self.join_after_kill(_STOP_GRACE_S)

    def join_after_kill(self, timeout: float = 10.0) -> None:
        """After a kill (scheduled or not), wait for the server's threads."""
        self._server.join(timeout)
        self._stopped = True

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "killed" if self.killed else ("stopped" if self._stopped else "running")
        return f"ServerHandle(address={self._server.address}, {state})"


#: glibc's ``mallopt`` parameters, and the ceiling of its own sliding
#: heuristic for the first (the second slides at twice the first).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_CEILING = 32 << 20


def _keep_request_memory() -> bool:
    """Stop glibc handing every request's temporaries back to the kernel.

    A query's temporaries are a few megabytes (the gathered candidate rows
    and what is computed from them), allocated and freed on a connection's
    thread.  Once more than the *trim threshold* is free at the top of a
    thread's heap glibc returns it, and the next request faults the same
    pages in again — about a thousand minor faults, a third of a range
    query's time.  The threshold starts at 128 KB and slides up only when
    the process happens to free a larger block, so whether a server was
    fast depended on whether loading had left such a block behind.  A
    serving process wants the memory of its last request for its next one:
    pin both sliding thresholds where glibc's own heuristic stops.  Returns
    whether the C library took the settings (``False`` off Linux, or where
    it has no ``mallopt``); nothing depends on the answer.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_CEILING)
        and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_CEILING)
    )


def serve(
    session: Session | None = None,
    *,
    config: ServerConfig | None = None,
    path: str | None = None,
    **connect_kwargs: Any,
) -> ServerHandle:
    """Start a query server on background threads; return its handle.

    Serve an existing session (``serve(session)``), or let the server open
    its own — in-memory by default, durable with ``path=...`` (extra
    keyword arguments go to :func:`repro.connect`).  A server-opened
    session is closed by ``handle.stop()``; a caller-provided one is not.

    ::

        handle = repro.serve(path="walks.db",
                             config=ServerConfig(max_in_flight=16))
        client = repro.client.connect(handle.address)
    """
    owns_session = session is None
    if owns_session:
        session = connect(path=path, **connect_kwargs)
    elif path is not None or connect_kwargs:
        raise ProtocolError(
            "pass either an existing session or connection arguments (path/...), not both"
        )
    _keep_request_memory()
    server = QueryServer(session, config)
    server.start()
    return ServerHandle(server, owns_session=owns_session)
