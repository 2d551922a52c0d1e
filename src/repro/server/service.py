"""The query server: an asyncio front door over a :class:`Session`.

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
:class:`~repro.core.cancel.CancellationToken` installed around the
executor call; the engine's scan and index fan-out loops poll it at their
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

import asyncio
import collections
import ctypes
import json
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.cancel import CancellationToken, cancel_scope
from ..core.errors import (DeadlineExceededError, ProtocolError,
                           QueryCancelledError, ReproError, RetryLaterError,
                           ServerError)
from ..core.session import Session, connect
from .faults import FaultPlan, FrameFaults, ServerKilled
from .protocol import (MAX_FRAME_BYTES, encode_answer, encode_frame,
                       decode_param, read_frame_async)

__all__ = ["ServerConfig", "QueryServer", "ServerHandle", "serve"]


@dataclass
class ServerConfig:
    """Knobs of one :class:`QueryServer`, grouped by the promise they keep.

    Addressing: ``host``/``port`` (port ``0`` picks a free one —
    the bound address is on :attr:`QueryServer.address`).

    Admission: at most ``max_in_flight`` requests execute concurrently;
    up to ``max_queue_depth`` more wait; beyond that ``RETRY_LATER`` with
    the advisory ``retry_after_ms``.  Executor threads are sized
    separately (``executor_threads``) and the server owns its pool — it
    never borrows the engine's partition-scan workers, so a saturated
    server cannot deadlock a parallel scan (or vice versa).

    Budgets: ``client_cache_bytes`` bounds one connection's open cursor
    results (oldest cursors are evicted first); ``max_frame_bytes``
    bounds one request frame.

    Deadlines and timeouts: ``default_deadline_ms`` applies when a request
    carries none (``None`` = unbounded); ``idle_timeout_s`` closes
    connections with no traffic; ``frame_timeout_s`` closes connections
    that started a frame and stalled (a torn or wedged peer must not hold
    a reader task forever).

    Faults: an optional :class:`FaultPlan` threaded through the response
    stream and the commit path — production servers leave it ``None``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_in_flight: int = 8
    max_queue_depth: int = 16
    retry_after_ms: float = 50.0
    executor_threads: int = 8
    client_cache_bytes: int = 1 << 20
    max_frame_bytes: int = MAX_FRAME_BYTES
    default_deadline_ms: float | None = None
    idle_timeout_s: float | None = 300.0
    frame_timeout_s: float | None = 10.0
    fault_plan: FaultPlan | None = None


class _ReadWriteLock:
    """An asyncio readers-writer lock with writer preference.

    Many readers share it; one writer excludes everyone.  Readers arriving
    while a writer waits are held back, so a steady stream of queries
    cannot starve commits — the exact workload a query server sees.
    """

    def __init__(self) -> None:
        self._condition = asyncio.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    async def acquire_read(self) -> None:
        async with self._condition:
            while self._writer_active or self._writers_waiting:
                await self._condition.wait()
            self._readers += 1

    async def release_read(self) -> None:
        async with self._condition:
            self._readers -= 1
            self._condition.notify_all()

    async def acquire_write(self) -> None:
        async with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    await self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    async def release_write(self) -> None:
        async with self._condition:
            self._writer_active = False
            self._condition.notify_all()


class _Admission:
    """Bounded in-flight slots with a bounded wait queue.

    Single-threaded by construction (all calls run on the event loop), so
    plain counters are race-free.  A request past both bounds is refused
    synchronously — backpressure must cost nothing to apply.
    """

    def __init__(self, max_in_flight: int, max_queue_depth: int,
                 retry_after_ms: float) -> None:
        self.max_in_flight = max(1, int(max_in_flight))
        self.max_queue_depth = max(0, int(max_queue_depth))
        self.retry_after_ms = retry_after_ms
        self.in_flight = 0
        self.rejected = 0
        self._queue: collections.deque[asyncio.Future] = collections.deque()

    @property
    def queued(self) -> int:
        return len(self._queue)

    async def acquire(self) -> None:
        if self.in_flight < self.max_in_flight:
            self.in_flight += 1
            return
        if len(self._queue) >= self.max_queue_depth:
            self.rejected += 1
            raise RetryLaterError(
                f"server saturated: {self.in_flight} in flight, "
                f"{len(self._queue)} queued; retry after "
                f"{self.retry_after_ms:g} ms",
                retry_after_ms=self.retry_after_ms)
        waiter = asyncio.get_running_loop().create_future()
        self._queue.append(waiter)
        try:
            await waiter  # the releasing request hands its slot over
        except asyncio.CancelledError:
            if waiter in self._queue:
                self._queue.remove(waiter)
            elif waiter.done() and not waiter.cancelled():
                self.release()  # slot was handed over mid-cancellation
            raise

    def release(self) -> None:
        while self._queue:
            waiter = self._queue.popleft()
            if not waiter.done():
                waiter.set_result(None)  # slot transfers, in_flight unchanged
                return
        self.in_flight -= 1


class _Cursor:
    __slots__ = ("rows", "position", "size_bytes", "epoch")

    def __init__(self, rows: list[dict], size_bytes: int, epoch: Any) -> None:
        self.rows = rows
        self.position = 0
        self.size_bytes = size_bytes
        self.epoch = epoch


class _Connection:
    """Per-connection state: stream, statements, cursors, fault schedule."""

    def __init__(self, writer: asyncio.StreamWriter,
                 faults: FrameFaults | None, cache_budget: int) -> None:
        self.writer = writer
        self.faults = faults
        self.cache_budget = cache_budget
        self.statements: dict[int, Any] = {}
        self.cursors: "collections.OrderedDict[int, _Cursor]" = \
            collections.OrderedDict()
        self.cache_bytes = 0
        self._next_statement = 1
        self._next_cursor = 1
        self.stalled = False

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
                code="CACHE_BUDGET")
        while self.cursors and \
                self.cache_bytes + cursor.size_bytes > self.cache_budget:
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

    async def send(self, message: Mapping[str, Any]) -> None:
        """Send one response frame through the fault schedule."""
        if self.stalled:
            return
        frame = encode_frame(message)
        if self.faults is None:
            self.writer.write(frame)
            await self.writer.drain()
            return
        action, delay = self.faults.next_action()
        if delay:
            await asyncio.sleep(delay)
        if action == FrameFaults.STALL:
            self.stalled = True
            return
        if action == FrameFaults.DROP:
            return
        if action == FrameFaults.CORRUPT:
            from .faults import corrupt_frame
            self.writer.write(corrupt_frame(frame))
            await self.writer.drain()
            return
        if action == FrameFaults.TRUNCATE:
            self.writer.write(frame[:max(1, len(frame) // 2)])
            await self.writer.drain()
            self.writer.transport.abort()
            return
        self.writer.write(frame)
        await self.writer.drain()


class QueryServer:
    """The asyncio server proper: accepts framed requests, dispatches ops.

    Run it inside an event loop (``await start()`` / ``await stop()``), or
    through :func:`serve`, which hosts the loop in a daemon thread and
    returns a synchronous :class:`ServerHandle`.
    """

    def __init__(self, session: Session,
                 config: ServerConfig | None = None) -> None:
        self.session = session
        self.config = config or ServerConfig()
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._lock = _ReadWriteLock()
        self._admission = _Admission(self.config.max_in_flight,
                                     self.config.max_queue_depth,
                                     self.config.retry_after_ms)
        from concurrent.futures import ThreadPoolExecutor
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.executor_threads),
            thread_name_prefix="repro-server")
        self._connections: set[_Connection] = set()
        self.killed = False
        self._kill_event: threading.Event = threading.Event()
        #: Observability counters (read by tests and the load benchmark).
        self.stats = {"accepted": 0, "completed": 0, "rejected": 0,
                      "cancelled": 0, "protocol_errors": 0, "commits": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        """Graceful stop: refuse new connections, close existing ones, shut
        the executor down.  The session is left to its owner."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections):
            try:
                connection.writer.close()
            except Exception:
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)

    def kill(self) -> None:
        """Die abruptly: abort every transport, stop accepting, leave the
        session un-checkpointed and un-closed — exactly what a process
        crash leaves behind.  Durability then rests on what the WAL policy
        already made persistent, which is the point of the fault tests."""
        self.killed = True
        if self._server is not None:
            self._server.close()
            self._server = None
        for connection in list(self._connections):
            try:
                connection.writer.transport.abort()
            except Exception:
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._kill_event.set()

    def wait_killed(self, timeout: float | None = None) -> bool:
        return self._kill_event.wait(timeout)

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        plan = self.config.fault_plan
        faults = plan.frame_faults() if plan is not None \
            and plan.touches_frames else None
        connection = _Connection(writer, faults, self.config.client_cache_bytes)
        self._connections.add(connection)
        try:
            while not self.killed:
                try:
                    request = await read_frame_async(
                        reader, max_bytes=self.config.max_frame_bytes,
                        idle_timeout=self.config.idle_timeout_s,
                        frame_timeout=self.config.frame_timeout_s)
                except asyncio.TimeoutError:
                    break  # idle or stalled peer: reclaim the connection
                except ProtocolError as error:
                    # One best-effort diagnostic, then drop: after a torn
                    # or corrupt request frame the stream offset is
                    # untrustworthy, so resynchronising is impossible.
                    self.stats["protocol_errors"] += 1
                    try:
                        await connection.send({"id": None, "ok": False,
                                               "code": "PROTOCOL_ERROR",
                                               "error": str(error)})
                    except Exception:
                        pass
                    break
                if request is None:
                    break  # clean EOF
                try:
                    response = await self._dispatch(connection, request)
                except ServerKilled:
                    self.kill()
                    break
                await connection.send(response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(connection)
            connection.statements.clear()
            connection.cursors.clear()
            try:
                writer.close()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, connection: _Connection,
                        request: Mapping[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        handler = self._OPS.get(op)
        if handler is None:
            return {"id": request_id, "ok": False, "code": "PROTOCOL_ERROR",
                    "error": f"unknown op {op!r}"}
        try:
            body = await handler(self, connection, request)
        except RetryLaterError as error:
            self.stats["rejected"] += 1
            return {"id": request_id, "ok": False, "code": error.code,
                    "error": str(error),
                    "retry_after_ms": error.retry_after_ms}
        except DeadlineExceededError as error:
            self.stats["cancelled"] += 1
            return {"id": request_id, "ok": False,
                    "code": "DEADLINE_EXCEEDED", "error": str(error)}
        except QueryCancelledError as error:
            self.stats["cancelled"] += 1
            return {"id": request_id, "ok": False, "code": "CANCELLED",
                    "error": str(error)}
        except ProtocolError as error:
            return {"id": request_id, "ok": False, "code": "PROTOCOL_ERROR",
                    "error": str(error)}
        except ServerError as error:
            return {"id": request_id, "ok": False, "code": error.code,
                    "error": str(error)}
        except ReproError as error:
            return {"id": request_id, "ok": False, "code": "QUERY_ERROR",
                    "error": f"{type(error).__name__}: {error}"}
        except ServerKilled:
            raise
        except Exception as error:  # noqa: BLE001 — one wire shape for all
            return {"id": request_id, "ok": False, "code": "INTERNAL",
                    "error": f"{type(error).__name__}: {error}"}
        body["id"] = request_id
        body.setdefault("ok", True)
        return body

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _deadline_token(self, request: Mapping[str, Any]) -> CancellationToken:
        deadline_ms = request.get("deadline_ms",
                                  self.config.default_deadline_ms)
        if deadline_ms is None:
            return CancellationToken()
        return CancellationToken.after(float(deadline_ms) / 1000.0)

    async def _run_read(self, work, token: CancellationToken):
        """Admission → read lock → executor, with the token installed in
        the worker thread so engine checkpoints observe it."""
        await self._admission.acquire()
        try:
            token.check()  # queue time counts against the deadline
            await self._lock.acquire_read()
            try:
                self.stats["accepted"] += 1

                def on_thread():
                    with cancel_scope(token):
                        return work()
                result = await asyncio.get_running_loop().run_in_executor(
                    self._executor, on_thread)
                self.stats["completed"] += 1
                return result
            finally:
                await self._lock.release_read()
        finally:
            self._admission.release()

    async def _run_write(self, work):
        """Admission → write lock → executor.  Writes carry no deadline:
        cancelling a half-applied commit would be the one thing worse than
        a slow one."""
        await self._admission.acquire()
        try:
            await self._lock.acquire_write()
            try:
                self.stats["accepted"] += 1
                result = await asyncio.get_running_loop().run_in_executor(
                    self._executor, work)
                self.stats["completed"] += 1
                return result
            finally:
                await self._lock.release_write()
        finally:
            self._admission.release()

    def _epoch(self, query: Any) -> list:
        """The pinned snapshot token of the query's relation, JSON-shaped."""
        node = self.session.engine._coerce_query(query)
        token = self.session.database.state_token(node.relation)
        return json.loads(json.dumps(token))

    @staticmethod
    def _decode_params(payload: Mapping[str, Any] | None) -> dict[str, Any]:
        if not payload:
            return {}
        return {name: decode_param(value) for name, value in payload.items()}

    @staticmethod
    def _encode_outcome(outcome: Any, epoch: list) -> dict[str, Any]:
        return {"answers": [encode_answer(answer)
                            for answer in outcome.answers],
                "epoch": epoch,
                "elapsed_ms": outcome.elapsed_seconds * 1000.0,
                "from_cache": outcome.from_cache}

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _op_ping(self, connection, request) -> dict[str, Any]:
        return {"pong": True}

    async def _op_stats(self, connection, request) -> dict[str, Any]:
        return {"stats": dict(self.stats),
                "in_flight": self._admission.in_flight,
                "queued": self._admission.queued,
                "rejected": self._admission.rejected}

    async def _op_sql(self, connection, request) -> dict[str, Any]:
        token = self._deadline_token(request)
        source = request.get("query")
        parameters = self._decode_params(request.get("params"))

        def work():
            epoch = self._epoch(source)
            outcome = self.session.engine.execute(source, parameters)
            return outcome, epoch
        outcome, epoch = await self._run_read(work, token)
        if request.get("cursor"):
            rows = [encode_answer(answer) for answer in outcome.answers]
            size = len(json.dumps(rows, separators=(",", ":")))
            cursor_id = connection.register_cursor(_Cursor(rows, size, epoch))
            return {"cursor": cursor_id, "count": len(rows), "epoch": epoch,
                    "from_cache": outcome.from_cache}
        return self._encode_outcome(outcome, epoch)

    async def _op_sql_many(self, connection, request) -> dict[str, Any]:
        token = self._deadline_token(request)
        sources = request.get("queries") or []
        bindings = request.get("params")
        if bindings is not None:
            bindings = [self._decode_params(binding) for binding in bindings]

        def work():
            epochs = [self._epoch(source) for source in sources]
            outcomes = self.session.engine.execute_many(sources, bindings)
            return outcomes, epochs
        outcomes, epochs = await self._run_read(work, token)
        return {"results": [self._encode_outcome(outcome, epoch)
                            for outcome, epoch in zip(outcomes, epochs)]}

    async def _op_prepare(self, connection, request) -> dict[str, Any]:
        prepared = self.session.prepare(request.get("query"))
        statement_id = connection.register_statement(prepared)
        return {"statement": statement_id, "text": prepared.text,
                "relation": prepared.query.relation}

    def _statement(self, connection: _Connection, request) -> Any:
        statement_id = request.get("statement")
        prepared = connection.statements.get(statement_id)
        if prepared is None:
            raise ProtocolError(
                f"unknown statement id {statement_id!r} on this connection "
                "(statements do not survive reconnects; prepare again)")
        return prepared

    async def _op_execute(self, connection, request) -> dict[str, Any]:
        token = self._deadline_token(request)
        prepared = self._statement(connection, request)
        bindings = request.get("bindings")
        if bindings is not None:
            decoded = [self._decode_params(binding) for binding in bindings]

            def work_many():
                epoch = self._epoch(prepared.query)
                return prepared.run_many(decoded), epoch
            outcomes, epoch = await self._run_read(work_many, token)
            return {"results": [self._encode_outcome(outcome, epoch)
                                for outcome in outcomes]}
        parameters = self._decode_params(request.get("params"))

        def work():
            epoch = self._epoch(prepared.query)
            return prepared.run(parameters), epoch
        outcome, epoch = await self._run_read(work, token)
        return self._encode_outcome(outcome, epoch)

    async def _op_close_statement(self, connection, request) -> dict[str, Any]:
        connection.statements.pop(request.get("statement"), None)
        return {}

    async def _op_explain(self, connection, request) -> dict[str, Any]:
        if "statement" in request:
            prepared = self._statement(connection, request)
            source: Any = prepared.query
        else:
            source = request.get("query")
        token = self._deadline_token(request)
        plan_text, = await self._run_read(
            lambda: (self.session.explain(source),), token)
        return {"plan": plan_text}

    async def _op_fetch(self, connection, request) -> dict[str, Any]:
        cursor_id = request.get("cursor")
        cursor = connection.cursors.get(cursor_id)
        if cursor is None:
            raise ProtocolError(
                f"unknown cursor id {cursor_id!r} on this connection "
                "(closed, fully consumed, or evicted by the byte budget)")
        count = int(request.get("count", 128))
        rows = cursor.rows[cursor.position:cursor.position + count]
        cursor.position += len(rows)
        done = cursor.position >= len(cursor.rows)
        if done:
            connection.drop_cursor(cursor_id)
        return {"answers": rows, "done": done, "epoch": cursor.epoch}

    async def _op_close_cursor(self, connection, request) -> dict[str, Any]:
        connection.drop_cursor(request.get("cursor"))
        return {}

    async def _op_insert_many(self, connection, request) -> dict[str, Any]:
        relation_name = request.get("relation")
        encoded_rows = request.get("rows") or []
        plan = self.config.fault_plan

        def work():
            objects = [decode_param(row, fresh_id=True)
                       for row in encoded_rows]
            self.session.relation(relation_name).insert_many(objects)
            # The write (and its WAL append, for durable stores) has
            # committed; a scheduled kill point fires HERE — after the
            # commit, before the acknowledgement leaves the server.
            self.stats["commits"] += 1
            if plan is not None:
                plan.commit_landed()
            return [obj.object_id for obj in objects]
        ids = await self._run_write(work)
        return {"count": len(ids), "ids": ids,
                "epoch": self._epoch_of_relation(relation_name)}

    async def _op_checkpoint(self, connection, request) -> dict[str, Any]:
        await self._run_write(self.session.checkpoint)
        return {}

    def _epoch_of_relation(self, relation_name: str) -> list:
        token = self.session.database.state_token(relation_name)
        return json.loads(json.dumps(token))

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
    """A running server hosted on a daemon thread, with a sync surface.

    Obtained from :func:`serve`.  ``stop()`` shuts down gracefully;
    ``kill()`` simulates a crash (transports aborted, session left dirty);
    both are idempotent.  Usable as a context manager (stops on exit).
    """

    def __init__(self, server: QueryServer, *, owns_session: bool) -> None:
        self._server = server
        self._owns_session = owns_session
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stopped = False

    # -- startup (called by serve) -------------------------------------
    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._server.start())
        except BaseException as error:  # noqa: BLE001 — report to starter
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def _start(self, timeout: float = 10.0) -> "ServerHandle":
        thread = threading.Thread(target=self._run, name="repro-server-loop",
                                  daemon=True)
        self._thread = thread
        thread.start()
        if not self._ready.wait(timeout):
            raise ProtocolError("server failed to start within "
                                f"{timeout:g} seconds")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    # -- surface --------------------------------------------------------
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
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._server.stop(), loop)
            try:
                future.result(timeout=10.0)
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self._owns_session and not self._server.session.closed \
                and not self._server.killed:
            self._server.session.close()

    def kill(self) -> None:
        """Crash the server from outside (tests use scheduled kill points
        instead, but an explicit kill supports exploratory harnesses).
        The session is deliberately NOT closed — a crash would not have."""
        if self._stopped:
            return
        self._stopped = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._server.kill)
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def join_after_kill(self, timeout: float = 10.0) -> None:
        """After a scheduled kill point fired, stop the loop thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self._stopped = True

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "killed" if self.killed else \
            ("stopped" if self._stopped else "running")
        return f"ServerHandle(address={self._server.address}, {state})"


#: glibc's ``mallopt`` parameters, and the ceiling of its own sliding
#: heuristic for the first (the second slides at twice the first).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_CEILING = 32 << 20


def _keep_request_memory() -> bool:
    """Stop glibc handing every request's temporaries back to the kernel.

    A query's temporaries are a few megabytes (the gathered candidate rows
    and what is computed from them), allocated and freed on an executor
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
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_CEILING)
                and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_CEILING))


def serve(session: Session | None = None, *,
          config: ServerConfig | None = None,
          path: str | None = None,
          **connect_kwargs: Any) -> ServerHandle:
    """Start a query server on a background thread; return its handle.

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
            "pass either an existing session or connection arguments "
            "(path/...), not both")
    _keep_request_memory()
    server = QueryServer(session, config)
    return ServerHandle(server, owns_session=owns_session)._start()
