"""The server's concurrency model, pinned: one thread per connection.

A connection's requests all run on that connection's own daemon thread — the
engine call included, inline — and the thread lives exactly as long as the
connection.  These tests hold the mechanism (which thread runs a read), its
lifecycle (threads come and go with connections; ``stop`` and ``kill`` are
bounded even when a query is not), the three bounds a connection thread
enforces on its socket (a stalled frame, an idle peer, an oversized length
prefix), and the two primitives the threads meet at: the admission gate, whose
wait is bounded by the request's deadline, and the readers-writer lock — under
whose *write* side, and nowhere else, optimizer statistics are re-collected.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

import repro
from repro import BackoffPolicy, KIndex, ServerConfig, random_walk_collection, serve
from repro.core import stats as stats_module
from repro.core.errors import DeadlineExceededError, ServerError
from repro.server.protocol import encode_frame, recv_frame
from repro.server.service import _ReadWriteLock

RANGE_SQL = "SELECT FROM walks WHERE dist(series, $q) < 5.0"
WORD_SQL = "SELECT FROM words WHERE dist(object, $q) < 99.0"


@pytest.fixture()
def data():
    return random_walk_collection(60, 32, seed=7)


@pytest.fixture()
def walks(data):
    session = repro.connect()
    session.relation("walks").insert_many(data).with_index(KIndex())
    yield session
    session.close()


class RecordingDistance:
    """Remembers which thread computed each distance."""

    def __init__(self) -> None:
        self.threads: list[int] = []

    def __call__(self, left, right) -> float:
        self.threads.append(threading.get_ident())
        return float(abs(len(left.text) - len(right.text)))


class GatedDistance:
    """Blocks every caller until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, left, right) -> float:
        self.entered.set()
        self.release.wait(timeout=10.0)
        return 0.0


def words_session(distance) -> repro.Session:
    session = repro.connect(answer_cache_size=0)
    words = [repro.StringObject("w" * (i + 1), name=f"w{i}") for i in range(8)]
    session.relation("words", words).with_distance(distance)
    return session


def blocked_reader(address) -> threading.Thread:
    """A daemon thread whose one query blocks in a :class:`GatedDistance`; it
    swallows the lost connection that stopping the server under it causes."""

    def read() -> None:
        client = repro.client.connect(
            address, timeout_s=5.0, backoff=BackoffPolicy(attempts=1, seed=1)
        )
        try:
            client.sql(WORD_SQL, q="w")
        except ServerError:
            pass
        finally:
            client.close()

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    return thread


# ---------------------------------------------------------------------------
# the mechanism: which thread runs a read
# ---------------------------------------------------------------------------
class TestOneThreadPerConnection:
    def test_a_connections_reads_share_one_thread_and_no_other_connections(self):
        recorder = RecordingDistance()
        session = words_session(recorder)
        with serve(session) as handle:
            first = repro.client.connect(handle.address, timeout_s=5.0)
            second = repro.client.connect(handle.address, timeout_s=5.0)
            seen = []
            for client in (first, second):
                recorder.threads.clear()
                for length in range(1, 6):
                    client.sql(WORD_SQL, q=repro.StringObject("q" * length))
                assert recorder.threads, "the engine never called the distance"
                seen.append(set(recorder.threads))
            first.close()
            second.close()
        session.close()
        assert len(seen[0]) == len(seen[1]) == 1  # every read inline, on one thread
        assert seen[0] != seen[1]
        assert threading.get_ident() not in seen[0] | seen[1]

    def test_threads_come_and_go_with_connections(self, walks, data, wait_until):
        with serve(walks) as handle:
            baseline = threading.active_count()
            client = repro.client.connect(handle.address, timeout_s=5.0)
            assert threading.active_count() == baseline + 1
            for i in range(200):
                client.sql(RANGE_SQL, q=data[i % len(data)])
                assert threading.active_count() == baseline + 1
            client.close()
            wait_until(lambda: threading.active_count() == baseline, timeout_s=2.0)

    def test_counters_are_exact_across_connection_threads(self, walks, data, short_gil_turns):
        clients, requests = 16, 25
        failures: list[Exception] = []
        with serve(walks, config=ServerConfig(max_in_flight=clients)) as handle:

            def run(slot: int) -> None:
                try:
                    with repro.client.connect(handle.address, timeout_s=30.0) as client:
                        for i in range(requests):
                            client.sql(RANGE_SQL, q=data[(slot + i) % len(data)])
                except Exception as error:  # noqa: BLE001 — asserted empty below
                    failures.append(error)

            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            stats = handle.server.stats
        assert not failures
        assert stats["accepted"] == stats["completed"] == clients * requests
        assert stats["rejected"] == 0


# ---------------------------------------------------------------------------
# lifecycle: stopping is bounded even when a query is not
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_stop_returns_while_a_read_is_still_blocked(self):
        gate = GatedDistance()
        session = words_session(gate)
        handle = serve(session)
        reader = blocked_reader(handle.address)
        try:
            assert gate.entered.wait(5.0), "query never started"
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 3.0
            with pytest.raises(OSError):
                socket.create_connection(handle.address, timeout=1.0)
        finally:
            gate.release.set()
            reader.join(timeout=10.0)
        assert not reader.is_alive()
        session.close()

    def test_kill_with_a_blocked_reader_leaves_no_non_daemon_thread(self):
        gate = GatedDistance()
        session = words_session(gate)
        before = {thread for thread in threading.enumerate() if not thread.daemon}
        handle = serve(session)
        reader = blocked_reader(handle.address)
        try:
            assert gate.entered.wait(5.0), "query never started"
            started = time.monotonic()
            handle.kill()
            assert time.monotonic() - started < 3.0
            assert handle.killed and not session.closed  # a crash closes nothing
            assert {thread for thread in threading.enumerate() if not thread.daemon} == before
        finally:
            gate.release.set()
            reader.join(timeout=10.0)
        assert not reader.is_alive()
        session.close()


# ---------------------------------------------------------------------------
# the three bounds a connection thread keeps on its socket
# ---------------------------------------------------------------------------
class TestConnectionBounds:
    @pytest.mark.parametrize("drip", [False, True], ids=["stalls", "drips"])
    def test_half_sent_frame_is_dropped_within_the_frame_timeout(self, walks, data, drip):
        """A peer that sends a header plus half a payload and then stalls —
        or keeps the frame alive a byte at a time — loses its connection
        ``frame_timeout_s`` after the frame started, and holds up nobody."""
        frame = encode_frame({"id": 1, "op": "ping", "pad": "x" * 256})
        config = ServerConfig(frame_timeout_s=0.4)
        with serve(walks, config=config) as handle:
            client = repro.client.connect(handle.address, timeout_s=5.0)
            with socket.create_connection(handle.address, timeout=5.0) as raw:
                started = time.monotonic()
                raw.sendall(frame[: len(frame) // 2])
                assert client.sql(RANGE_SQL, q=data[0]).answers  # others are served meanwhile
                raw.settimeout(0.1)
                rest = iter(frame[len(frame) // 2 : -1])
                # Dropped: no reply, just the hangup.  The hangup is a FIN, or
                # a reset when the server closed with a dripped byte unread or
                # a byte dripped onto the closed socket.
                while True:
                    try:
                        assert raw.recv(1) == b""
                        break
                    except ConnectionResetError:
                        break
                    except TimeoutError:
                        assert time.monotonic() - started < 3.0, "the stalled peer was kept"
                    if drip:
                        try:
                            raw.sendall(bytes([next(rest)]))
                        except (BrokenPipeError, ConnectionResetError):
                            break
                assert time.monotonic() - started >= config.frame_timeout_s
            assert client.ping()
            client.close()

    def test_idle_connection_is_reclaimed_and_the_next_read_reconnects(
        self, walks, data, wait_until
    ):
        with serve(walks, config=ServerConfig(idle_timeout_s=0.2)) as handle:
            baseline = threading.active_count()
            client = repro.client.connect(
                handle.address, timeout_s=5.0, backoff=BackoffPolicy(base_ms=5.0, seed=7)
            )
            assert threading.active_count() == baseline + 1
            wait_until(lambda: threading.active_count() == baseline, timeout_s=3.0)
            assert client.sql(RANGE_SQL, q=data[0]).answers
            assert client.retries == 1
            client.close()

    def test_oversized_length_prefix_gets_one_diagnostic_and_a_closed_socket(self, walks):
        with serve(walks, config=ServerConfig(max_frame_bytes=1024)) as handle:
            with socket.create_connection(handle.address, timeout=5.0) as raw:
                started = time.monotonic()
                raw.sendall(struct.pack("<II", 4096, 0))  # the header alone: no payload follows
                reply = recv_frame(raw)
                # Answered at once, not when frame_timeout_s gave up on the
                # payload: the length was refused before any of it was read.
                assert time.monotonic() - started < 2.0
                assert (reply["id"], reply["ok"], reply["code"]) == (None, False, "PROTOCOL_ERROR")
                assert "1024-byte limit" in reply["error"]
                assert raw.recv(1) == b""
            assert handle.server.stats["protocol_errors"] == 1


# ---------------------------------------------------------------------------
# the admission gate and the readers-writer lock
# ---------------------------------------------------------------------------
class TestAdmissionDeadline:
    def test_deadline_spent_in_the_queue_is_deadline_exceeded_not_a_hang(self):
        gate = GatedDistance()
        session = words_session(gate)
        config = ServerConfig(max_in_flight=1, max_queue_depth=4)
        with serve(session, config=config) as handle:
            occupant = blocked_reader(handle.address)
            try:
                assert gate.entered.wait(5.0), "query never started"
                waiter = repro.client.connect(handle.address, timeout_s=5.0)
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError, match="queued"):
                    waiter.sql(WORD_SQL, q="w", deadline_ms=150.0)
                assert 0.15 <= time.monotonic() - started < 3.0
                reply = waiter.stats()
                assert (reply["in_flight"], reply["queued"]) == (1, 0)  # the waiter left the queue
                assert reply["stats"]["cancelled"] == 1
            finally:
                gate.release.set()
                occupant.join(timeout=10.0)
            assert not occupant.is_alive()
            # The slot the occupant held came back: the next read is admitted.
            assert len(waiter.sql(WORD_SQL, q="w")) == 8
            assert waiter.stats()["in_flight"] == 0
            waiter.close()
        session.close()


class TestReadWriteLock:
    def test_a_waiting_writer_holds_back_later_readers(self, wait_until):
        lock = _ReadWriteLock()
        order: list[str] = []
        first_reader_in, let_first_reader_go = threading.Event(), threading.Event()

        def first_reader() -> None:
            with lock.reading():
                first_reader_in.set()
                let_first_reader_go.wait(timeout=5.0)
                order.append("first reader leaves")

        def writer() -> None:
            with lock.writing():
                order.append("writer")

        def late_reader() -> None:
            with lock.reading():
                order.append("late reader")

        threads = [threading.Thread(target=first_reader), threading.Thread(target=writer)]
        threads[0].start()
        assert first_reader_in.wait(5.0)
        threads[1].start()
        wait_until(lambda: lock._writers_waiting == 1)
        threads.append(threading.Thread(target=late_reader))
        threads[2].start()
        time.sleep(0.05)  # were the late reader let in beside the first, it would be by now
        assert order == []
        let_first_reader_go.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert order == ["first reader leaves", "writer", "late reader"]


# ---------------------------------------------------------------------------
# statistics are collected by the write that stales them, never by a read
# ---------------------------------------------------------------------------
class TestTheWriterKeepsStatisticsFresh:
    def test_reads_beside_an_insert_across_a_band_collect_nothing(
        self, monkeypatch, short_gil_turns
    ):
        """Eight connections read while a ninth grows the relation 100 → 140
        rows in five batches, across two cardinality bands (108.4, 135.5).
        Every collection happens under the write lock, inside the inserting
        request; the reads beside it leave what it installed in place, and
        each read's answers are those of a quiet session holding exactly the
        batches its snapshot epoch names."""
        rows = random_walk_collection(140, 32, seed=9)
        base, batches = rows[:100], [rows[100 + 8 * i : 108 + 8 * i] for i in range(5)]
        session = repro.connect(answer_cache_size=0)
        session.relation("walks").insert_many(base).with_index(KIndex())
        analyzed = session.analyze("walks")
        collect, collected = stats_module.collect_statistics, []
        reads: list[tuple[int, int, list]] = []
        failures: list[Exception] = []
        with serve(session, config=ServerConfig(max_in_flight=9)) as handle:
            lock = handle.server._lock

            def watched(database, relation_name, **options):
                fresh = collect(database, relation_name, **options)
                collected.append((fresh, lock._writer_active, lock._readers))
                return fresh

            monkeypatch.setattr(stats_module, "collect_statistics", watched)

            def read(slot: int) -> None:
                try:
                    with repro.client.connect(handle.address, timeout_s=30.0) as client:
                        for i in range(30):
                            query = (slot * 13 + i) % len(base)
                            outcome = client.sql(RANGE_SQL, q=base[query])
                            reads.append((query, outcome.epoch[1], outcome.answers))
                except Exception as error:  # noqa: BLE001 — asserted empty below
                    failures.append(error)

            def write() -> None:
                try:
                    with repro.client.connect(handle.address, timeout_s=30.0) as client:
                        for batch in batches:
                            time.sleep(0.01)  # let reads in between the commits
                            assert client.insert_many("walks", batch)["count"] == len(batch)
                except Exception as error:  # noqa: BLE001 — asserted empty below
                    failures.append(error)

            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            # One collection per band, each by the writer, alone under its lock.
            assert [(active, readers) for _, active, readers in collected] == [(True, 0)] * 2
            installed = session.database._statistics["walks"]
            assert installed is collected[-1][0] and installed is not analyzed
            with repro.client.connect(handle.address, timeout_s=30.0) as client:
                for series in base[::9]:
                    client.sql(RANGE_SQL, q=series)
            assert session.database._statistics["walks"] is installed  # reads replace nothing
            assert len(collected) == 2
        assert (installed.cardinality, installed.epoch) == (140, analyzed.epoch)
        session.close()
        # The quiesced twins: one per snapshot a read can have seen.
        assert len(reads) == 8 * 30 and {version for _, version, _ in reads} <= set(range(1, 7))
        twins = {}
        for query, version, answers in reads:
            if version not in twins:
                twins[version] = repro.connect(answer_cache_size=0)
                twins[version].relation("walks").insert_many(
                    base + [row for batch in batches[: version - 1] for row in batch]
                ).with_index(KIndex())
            expected = twins[version].sql(RANGE_SQL, q=base[query]).answers
            assert [(ref.name, distance) for ref, distance in answers] == [
                (series.name, distance) for series, distance in expected
            ]
