"""The query server: protocol framing, the Session-shaped wire surface,
snapshot-consistent reads under concurrent writes, admission control,
deadlines, and per-connection cursor budgets.

The serving contract under test: every answer a client receives is
bit-identical to what a quiesced local session at the pinned epoch would
compute; overload is refused explicitly (``RETRY_LATER``), never queued
without bound; a request that outlives its deadline is cancelled
cooperatively and leaves the engine state (caches, pools) as if it never
ran.
"""

from __future__ import annotations

import platform
import random
import socket
import threading
import time

import pytest

import repro
from repro import (
    BackoffPolicy,
    KIndex,
    Q,
    ServerConfig,
    random_walk,
    random_walk_collection,
    serve,
)
from repro.core.errors import (
    DeadlineExceededError,
    ProtocolError,
    RetryExhaustedError,
    RetryLaterError,
    ServerError,
)
from repro.server.protocol import (
    ObjectRef,
    decode_param,
    encode_frame,
    encode_param,
    recv_frame,
    send_frame,
)

RANGE_SQL = "SELECT FROM walks WHERE dist(object, $q) < 5.0"
WIDE_SQL = "SELECT FROM walks WHERE dist(object, $q) < 100.0"


def _fast_backoff(**overrides):
    defaults = dict(base_ms=5.0, cap_ms=40.0, attempts=4, seed=7)
    defaults.update(overrides)
    return BackoffPolicy(**defaults)


@pytest.fixture()
def data():
    return random_walk_collection(60, 32, seed=7)


@pytest.fixture()
def served(data):
    session = repro.connect()
    session.relation("walks").insert_many(data).with_index(KIndex())
    with serve(session) as handle:
        client = repro.client.connect(handle.address,
                                      timeout_s=5.0, backoff=_fast_backoff())
        try:
            yield handle, client, session, data
        finally:
            client.close()
    session.close()


# ---------------------------------------------------------------------------
# protocol framing
# ---------------------------------------------------------------------------
class TestFraming:
    def _roundtrip(self, raw: bytes) -> dict:
        left, right = socket.socketpair()
        try:
            left.sendall(raw)
            left.shutdown(socket.SHUT_WR)
            right.settimeout(2.0)
            return recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_roundtrip(self):
        message = {"op": "sql", "x": [1.5, -0.25], "nested": {"a": None}}
        assert self._roundtrip(encode_frame(message)) == message

    def test_float_bit_identity(self):
        # JSON serialises floats through repr: the decoded value is the
        # same double, bit for bit — the wire cannot blur a distance.
        value = 0.1 + 0.2
        assert self._roundtrip(encode_frame({"d": value}))["d"] == value

    def test_corrupt_payload_detected(self):
        frame = bytearray(encode_frame({"op": "ping"}))
        frame[-1] ^= 0x01
        with pytest.raises(ProtocolError, match="checksum"):
            self._roundtrip(bytes(frame))

    def test_torn_frame_detected(self):
        frame = encode_frame({"op": "ping", "pad": "x" * 100})
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._roundtrip(frame[: len(frame) // 2])

    def test_hostile_length_rejected(self):
        import struct
        raw = struct.pack("<II", 1 << 30, 0)
        left, right = socket.socketpair()
        try:
            left.sendall(raw)
            right.settimeout(2.0)
            with pytest.raises(ProtocolError, match="limit"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_unserialisable_message_rejected(self):
        with pytest.raises(ProtocolError, match="JSON"):
            encode_frame({"bad": object()})


class TestObjectCodec:
    def test_series_roundtrip(self):
        series = random_walk(16, seed=3, name="w")
        decoded = decode_param(encode_param(series))
        assert decoded.name == series.name
        assert decoded.object_id == series.object_id
        assert list(decoded.values) == list(series.values)

    def test_fresh_id_reallocates(self):
        series = random_walk(16, seed=3, name="w")
        decoded = decode_param(encode_param(series), fresh_id=True)
        assert decoded.object_id != series.object_id

    def test_scalars_pass_through(self):
        for value in (1, 2.5, "text", None, True):
            assert decode_param(encode_param(value)) == value

    def test_unsupported_param_rejected(self):
        with pytest.raises(ProtocolError, match="parameter"):
            encode_param(object())


# ---------------------------------------------------------------------------
# the Session-shaped surface over the wire
# ---------------------------------------------------------------------------
class TestServing:
    def test_remote_answers_bit_identical_to_local(self, served):
        _, client, session, data = served
        remote = client.sql(RANGE_SQL, q=data[0])
        local = session.sql(RANGE_SQL, q=data[0])
        assert {(ref.object_id, distance) for ref, distance in remote.answers} \
            == {(obj.object_id, distance) for obj, distance in local.answers}
        assert remote.epoch  # the pinned snapshot token came along

    def test_answers_are_object_refs(self, served):
        _, client, _, data = served
        remote = client.sql(RANGE_SQL, q=data[0])
        ref, distance = remote.answers[0]
        assert isinstance(ref, ObjectRef)
        assert ref.name == "walk-0"
        assert isinstance(distance, float)

    def test_allocator_setting_is_a_courtesy(self, data, monkeypatch):
        """``serve`` asks glibc to keep a request's memory for the next one;
        where there is no ``mallopt`` to ask, the server starts and answers
        all the same."""
        from repro.server import service

        def no_c_library(name):
            raise OSError("no C library")
        monkeypatch.setattr(service.ctypes, "CDLL", no_c_library)
        assert service._keep_request_memory() is False
        session = repro.connect()
        session.relation("walks").insert_many(data).with_index(KIndex())
        with serve(session) as handle:
            client = repro.client.connect(handle.address, timeout_s=5.0)
            assert len(client.sql(RANGE_SQL, q=data[0])) == len(session.sql(RANGE_SQL, q=data[0]))
            client.close()
        session.close()
        monkeypatch.undo()
        if platform.libc_ver()[0] == "glibc":
            assert service._keep_request_memory() is True

    def test_second_query_served_from_cache(self, served):
        _, client, _, data = served
        assert client.sql(RANGE_SQL, q=data[0]).from_cache is False
        assert client.sql(RANGE_SQL, q=data[0]).from_cache is True

    def test_builder_text_round_trips(self, served):
        _, client, session, data = served
        query = Q.from_("walks").within(5.0).of(Q.param("q"))
        remote = client.sql(query.build().describe(), q=data[0])
        local = session.sql(query, q=data[0])
        assert len(remote) == len(local)

    def test_prepared_statement(self, served):
        _, client, session, data = served
        statement = client.prepare(RANGE_SQL)
        outcomes = [statement.run(q=data[i]) for i in range(3)]
        locals_ = [session.sql(RANGE_SQL, q=data[i]) for i in range(3)]
        for remote, local in zip(outcomes, locals_):
            assert {(r.object_id, d) for r, d in remote.answers} \
                == {(o.object_id, d) for o, d in local.answers}
        statement.close()

    def test_prepared_run_many(self, served):
        _, client, _, data = served
        statement = client.prepare(RANGE_SQL)
        outcomes = statement.run_many([{"q": data[i]} for i in range(4)])
        assert len(outcomes) == 4
        assert all(len(outcome) >= 1 for outcome in outcomes)

    def test_sql_many_matches_singles(self, served):
        _, client, _, data = served
        batch = client.sql_many([RANGE_SQL] * 3,
                                [{"q": data[i]} for i in range(3)])
        singles = [client.sql(RANGE_SQL, q=data[i]) for i in range(3)]
        for many, single in zip(batch, singles):
            assert {a for a in many.answers} == {a for a in single.answers}

    def test_explain_matches_local(self, served):
        _, client, session, data = served
        assert client.explain(RANGE_SQL) == session.explain(RANGE_SQL)

    def test_query_error_is_typed_not_fatal(self, served):
        _, client, _, data = served
        with pytest.raises(ServerError) as excinfo:
            client.sql("SELECT FROM nowhere WHERE dist(object, $q) < 1.0",
                       q=data[0])
        assert excinfo.value.code == "QUERY_ERROR"
        # The connection survives a rejected query.
        assert client.sql(RANGE_SQL, q=data[0]).answers

    def test_non_finite_series_is_the_senders_fault(self, served):
        """A client can no longer build a series holding ``nan``, so the frame
        is written by hand (the record's values are the float64 array the
        codec sends as a block): the decoder's ``ValueError`` is answered as
        ``PROTOCOL_ERROR`` — not ``INTERNAL`` — for a query parameter and for
        an inserted row alike, nothing is stored, and the connection goes on
        serving."""
        handle, _, session, data = served
        record = encode_param(data[0])
        values = record["_obj"]["values"].copy()
        values[1] = float("nan")
        record["_obj"]["values"] = values
        rows = len(session.relation("walks"))
        with socket.create_connection(handle.address, timeout=5.0) as raw:
            for request in ({"op": "sql", "query": RANGE_SQL, "params": {"q": record}},
                            {"op": "insert_many", "relation": "walks", "rows": [record]}):
                send_frame(raw, {"id": 1, **request})
                reply = recv_frame(raw)
                assert (reply["ok"], reply["code"]) == (False, "PROTOCOL_ERROR")
                assert "finite" in reply["error"]
            send_frame(raw, {"id": 2, "op": "sql", "query": RANGE_SQL,
                             "params": {"q": encode_param(data[0])}})
            reply = recv_frame(raw)
            assert reply["ok"] and len(reply["answers"]["ids"]) > 0
        assert len(session.relation("walks")) == rows

    def test_insert_bumps_epoch_and_answers(self, served):
        _, client, session, data = served
        before = client.sql(RANGE_SQL, q=data[0])
        ack = client.insert_many(
            "walks", [repro.noisy_copy(data[0], seed=11)])
        assert ack["count"] == 1 and len(ack["ids"]) == 1
        after = client.sql(RANGE_SQL, q=data[0])
        assert after.epoch != before.epoch
        assert len(after) == len(before) + 1
        # The acked id is the server-side id: it answers queries.
        assert ack["ids"][0] in {ref.object_id for ref, _ in after.answers}

    def test_insert_into_an_unknown_relation_creates_nothing(self, tmp_path, data):
        """A served write goes into an existing relation: a misspelt name is
        the caller's typed ``QUERY_ERROR``, and no relation is created, no
        row stored and nothing logged."""
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        session.relation("walks").insert_many(data).with_index(KIndex())
        session.checkpoint()
        with serve(session) as handle:
            client = repro.client.connect(handle.address, timeout_s=5.0, backoff=_fast_backoff())
            try:
                with pytest.raises(ServerError) as excinfo:
                    client.insert_many("wlaks", [repro.noisy_copy(data[0], seed=11)])
                assert excinfo.value.code == "QUERY_ERROR"
                assert "wlaks" in str(excinfo.value)
                assert session.database.relations() == ["walks"]
                assert len(session.relation("walks")) == len(data)
                # The connection goes on serving writes to the real name.
                ack = client.insert_many("walks", [repro.noisy_copy(data[0], seed=12)])
                assert ack["count"] == 1
            finally:
                client.close()
        session.close()
        reopened = repro.connect(path=path)
        assert reopened.database.relations() == ["walks"]
        assert reopened.database.replayed_wal_records == 1
        reopened.close()

    def test_stats_surface(self, served):
        _, client, _, data = served
        client.sql(RANGE_SQL, q=data[0])
        stats = client.stats()
        assert stats["stats"]["accepted"] >= 1
        assert stats["stats"]["completed"] >= 1

    def test_string_address_form(self, served):
        handle, _, _, _ = served
        host, port = handle.address
        client = repro.client.connect(f"{host}:{port}")
        try:
            assert client.ping()
        finally:
            client.close()

    def test_serve_rejects_session_plus_path(self, served):
        _, _, session, _ = served
        with pytest.raises(ProtocolError, match="not both"):
            serve(session, path="somewhere.db")


# ---------------------------------------------------------------------------
# cursors and the per-connection byte budget
# ---------------------------------------------------------------------------
class TestCursors:
    def test_paging_covers_everything_in_order(self, served):
        _, client, session, data = served
        cursor = client.sql_cursor(WIDE_SQL, q=data[0])
        paged = []
        while True:
            page = cursor.fetch(7)
            if not page:
                break
            paged.extend(page)
        local = session.sql(WIDE_SQL, q=data[0])
        assert cursor.count == len(local)
        assert [(ref.object_id, d) for ref, d in paged] \
            == [(obj.object_id, d) for obj, d in local.answers]

    def test_iteration(self, served):
        _, client, _, data = served
        cursor = client.sql_cursor(WIDE_SQL, q=data[0])
        assert len(list(cursor)) == cursor.count

    def test_one_state_one_epoch_however_the_answers_travel(self, served):
        """A cursor, a plain outcome and a write's acknowledgement name the
        same catalog state with the same epoch — list-shaped, as JSON carries
        it, although the server pins the token as the tuple it is."""
        _, client, _, data = served
        ack = client.insert_many("walks", [repro.noisy_copy(data[0], seed=11)])
        outcome = client.sql(WIDE_SQL, q=data[0])
        cursor = client.sql_cursor(WIDE_SQL, q=data[0])
        assert isinstance(outcome.epoch, list) and outcome.epoch
        assert cursor.epoch == outcome.epoch == ack["epoch"]
        cursor.close()

    def test_budget_evicts_oldest(self, data):
        session = repro.connect()
        session.relation("walks").insert_many(data).with_index(KIndex())
        config = ServerConfig(client_cache_bytes=4096)
        with serve(session, config=config) as handle:
            client = repro.client.connect(handle.address,
                                          backoff=_fast_backoff())
            first = client.sql_cursor(WIDE_SQL, q=data[0])
            # Open enough sibling cursors to blow the 4 KiB budget.
            others = [client.sql_cursor(WIDE_SQL, q=data[i])
                      for i in range(1, 5)]
            with pytest.raises(ProtocolError, match="cursor"):
                first.fetch()  # evicted: fails loudly, never truncates
            assert list(others[-1])  # the newest cursor still serves
            client.close()
        session.close()

    def test_result_too_big_for_budget_is_typed(self, data):
        session = repro.connect()
        session.relation("walks").insert_many(data).with_index(KIndex())
        config = ServerConfig(client_cache_bytes=64)
        with serve(session, config=config) as handle:
            client = repro.client.connect(handle.address,
                                          backoff=_fast_backoff())
            with pytest.raises(ServerError) as excinfo:
                client.sql_cursor(WIDE_SQL, q=data[0])
            assert excinfo.value.code == "CACHE_BUDGET"
            client.close()
        session.close()


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
class _GatedDistance:
    """A distance that blocks until released — a query using it occupies
    its in-flight slot for exactly as long as the test dictates."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, left, right) -> float:
        self.entered.set()
        self.release.wait(timeout=10.0)
        return 0.0


class TestAdmission:
    def test_saturation_yields_retry_later(self):
        gate = _GatedDistance()
        session = repro.connect()
        session.relation("slow", [repro.StringObject("a", name="a")]) \
            .with_distance(gate)
        config = ServerConfig(max_in_flight=1, max_queue_depth=0)
        with serve(session, config=config) as handle:
            blocker = repro.client.connect(handle.address, timeout_s=20.0)
            result: dict = {}

            def occupy():
                result["outcome"] = blocker.sql(
                    "SELECT FROM slow WHERE dist(object, $q) < 1.0", q="a")
            thread = threading.Thread(target=occupy)
            thread.start()
            try:
                assert gate.entered.wait(5.0), "query never started"
                # The only slot is held and the queue is zero-depth: the
                # next request must be refused immediately and explicitly.
                probe = repro.client.connect(
                    handle.address,
                    backoff=BackoffPolicy(attempts=1, base_ms=1.0, seed=1))
                with pytest.raises(RetryExhaustedError) as excinfo:
                    probe.sql("SELECT FROM slow WHERE dist(object, $q) < 1.0",
                              q="a")
                assert isinstance(excinfo.value.last_error, RetryLaterError)
                assert excinfo.value.last_error.retry_after_ms > 0
                probe.close()
            finally:
                gate.release.set()
                thread.join(timeout=10.0)
            assert len(result["outcome"]) == 1  # the occupant completed
            assert blocker.stats()["rejected"] >= 1
            blocker.close()
        session.close()

    def test_backoff_retry_eventually_admitted(self):
        gate = _GatedDistance()
        session = repro.connect()
        session.relation("slow", [repro.StringObject("a", name="a")]) \
            .with_distance(gate)
        config = ServerConfig(max_in_flight=1, max_queue_depth=0)
        with serve(session, config=config) as handle:
            blocker = repro.client.connect(handle.address, timeout_s=20.0)
            thread = threading.Thread(target=lambda: blocker.sql(
                "SELECT FROM slow WHERE dist(object, $q) < 1.0", q="a"))
            thread.start()
            try:
                assert gate.entered.wait(5.0)
                retrier = repro.client.connect(
                    handle.address, timeout_s=20.0,
                    backoff=BackoffPolicy(base_ms=30.0, attempts=20, seed=3))
                # Release the slot while the retrier is backing off: one
                # of its retries must then be admitted and complete.
                releaser = threading.Timer(0.15, gate.release.set)
                releaser.start()
                outcome = retrier.sql(
                    "SELECT FROM slow WHERE dist(object, $q) < 1.0", q="a")
                assert len(outcome) == 1
                assert retrier.retries >= 1
                retrier.close()
            finally:
                gate.release.set()
                thread.join(timeout=10.0)
            blocker.close()
        session.close()


    def test_answers_under_pressure_are_a_quiet_sessions(self, short_gil_turns, wait_until):
        """64 clients x 10 seeded range / NN / explain requests against
        eight slots and a queue of 32: refusals are retried, and every
        request is answered, none failed — with the quiet session's answer,
        bit for bit.  No latency ceiling: how long it takes is the contract
        benchmark's business.

        The pressure is made, not hoped for.  One interpreter lock serves 64
        in-process clients and their 64 connection threads a whole request at
        a time, and left alone the gate may never see 41 of them at once; so
        eight gated queries hold every slot while the clients' first requests
        arrive — 32 queue, the rest are refused — and then let go."""
        clients, requests, targets = 64, 10, 16
        data = random_walk_collection(300, 64, seed=17)
        session = repro.connect(answer_cache_size=0)  # every request executes
        session.relation("walks").insert_many(data).with_index(KIndex())
        gate = _GatedDistance()
        session.relation("slow", [repro.StringObject("a", name="a")]).with_distance(gate)
        sqls = ("SELECT FROM walks WHERE dist(object, $q) < 6.0",
                "SELECT FROM walks NEAREST 5 TO $q")
        quiet = {(sql, target): [(obj.object_id, distance) for obj, distance
                                 in session.sql(sql, q=data[target]).answers]
                 for sql in sqls for target in range(targets)}
        plan_line = session.explain(sqls[0]).split(" | ")[0]
        config = ServerConfig(max_in_flight=8, max_queue_depth=32)
        start = threading.Barrier(clients)
        answered: list[bool] = []
        failures: list[Exception] = []
        retries: list[int] = []

        with serve(session, config=config) as handle:
            def run(slot: int) -> None:
                rng = random.Random(1000 + slot)
                client = repro.client.connect(
                    handle.address, timeout_s=60.0,
                    backoff=BackoffPolicy(base_ms=10.0, cap_ms=200.0, attempts=50, seed=slot))
                try:
                    client.ping()
                    start.wait(timeout=30.0)
                    for _ in range(requests):
                        kind, target = rng.random(), rng.randrange(targets)
                        if kind < 0.9:
                            sql = sqls[kind >= 0.6]
                            outcome = client.sql(sql, q=data[target])
                            answered.append([(ref.object_id, distance) for ref, distance
                                             in outcome.answers] == quiet[sql, target])
                        else:
                            answered.append(client.explain(sqls[0]).startswith(plan_line))
                except Exception as error:  # noqa: BLE001 — asserted empty below
                    failures.append(error)
                finally:
                    retries.append(client.retries)
                    client.close()

            def occupy() -> None:
                with repro.client.connect(handle.address, timeout_s=60.0) as occupant:
                    occupant.sql("SELECT FROM slow WHERE dist(object, $q) < 1.0", q="a")

            watcher = repro.client.connect(handle.address, timeout_s=60.0)
            occupants = [threading.Thread(target=occupy) for _ in range(config.max_in_flight)]
            for thread in occupants:
                thread.start()
            wait_until(lambda: watcher.stats()["in_flight"] == config.max_in_flight)
            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(clients)]
            for thread in threads:
                thread.start()
            wait_until(lambda: watcher.stats()["rejected"] >= clients - config.max_queue_depth)
            gate.release.set()
            watcher.close()
            threads += occupants
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            rejected = handle.server.stats["rejected"]
        session.close()
        assert not failures
        assert len(answered) == clients * requests and all(answered)
        assert sum(retries) == rejected > 0  # pressure was real, and each refusal retried


class TestBackoffPolicy:
    def test_deterministic_with_seed(self):
        first = BackoffPolicy(seed=42)
        second = BackoffPolicy(seed=42)
        assert [first.delay_s(i) for i in range(6)] \
            == [second.delay_s(i) for i in range(6)]

    def test_exponential_and_capped(self):
        policy = BackoffPolicy(base_ms=10.0, multiplier=2.0, cap_ms=50.0,
                               jitter=0.0, seed=1)
        delays = [policy.delay_s(i) for i in range(5)]
        assert delays[:3] == [0.010, 0.020, 0.040]
        assert delays[3] == delays[4] == 0.050  # the cap is a real bound

    def test_jitter_backs_off_never_beyond(self):
        policy = BackoffPolicy(base_ms=100.0, jitter=0.5, seed=9)
        for attempt in range(20):
            delay = policy.delay_s(0)
            assert 0.05 <= delay <= 0.100


# ---------------------------------------------------------------------------
# deadlines over the wire
# ---------------------------------------------------------------------------
class _SlowDistance:
    """Sleeps per call only once enabled, so the planner's statistics
    sampling (hundreds of distance calls at first plan) stays fast and the
    slowness lands exactly on the execution fan-out under test."""

    def __init__(self, pause_s: float = 0.02):
        self.pause_s = pause_s
        self.calls = 0
        self.enabled = False

    def __call__(self, left, right) -> float:
        self.calls += 1
        if self.enabled:
            time.sleep(self.pause_s)
        return float(abs(len(left.text) - len(right.text)))


class TestDeadlines:
    @pytest.fixture()
    def slow_served(self):
        slow = _SlowDistance()
        session = repro.connect()
        words = [repro.StringObject("w" * (i + 1), name=f"w{i}")
                 for i in range(40)]
        session.relation("slow", words).with_distance(slow)
        probe = repro.StringObject("wwww", name="probe")
        with serve(session) as handle:
            client = repro.client.connect(handle.address, timeout_s=30.0)
            # Warm the statistics and the plan with sleeping off...
            client.sql("SELECT FROM slow WHERE dist(object, $q) < 99.0",
                       q=probe)
            slow.enabled = True
            slow.calls = 0
            try:
                yield client, session, slow, probe
            finally:
                client.close()
        session.close()

    def test_deadline_cancels_cooperatively(self, slow_served):
        client, _, slow, probe = slow_served
        # 40 candidates x 20 ms sleep = 800 ms of work against a 60 ms
        # deadline: the scan must stop at a checkpoint long before the end.
        with pytest.raises(DeadlineExceededError):
            client.sql("SELECT FROM slow WHERE dist(object, $q) < 100.0",
                       q=probe, deadline_ms=60.0)
        assert slow.calls < 40

    def test_cancelled_query_leaves_caches_clean(self, slow_served):
        client, session, slow, probe = slow_served
        sql = "SELECT FROM slow WHERE dist(object, $q) < 100.0"
        with pytest.raises(DeadlineExceededError):
            client.sql(sql, q=probe, deadline_ms=60.0)
        # The identical query, unbounded, must compute the full answer —
        # a partial result cached by the cancelled run would surface here.
        complete = client.sql(sql, q=probe)
        assert len(complete) == 40
        assert complete.from_cache is False
        local = session.sql(sql, q=probe)
        assert {(r.object_id, d) for r, d in complete.answers} \
            == {(o.object_id, d) for o, d in local.answers}

    def test_generous_deadline_is_harmless(self, served):
        _, client, _, data = served
        outcome = client.sql(RANGE_SQL, q=data[0], deadline_ms=60_000.0)
        assert outcome.answers


# ---------------------------------------------------------------------------
# snapshot-consistent reads under a concurrent writer
# ---------------------------------------------------------------------------
class TestSnapshotReads:
    def test_reads_match_exactly_one_quiesced_boundary(self):
        """Readers hammer the server while a writer commits batches; every
        answer set must equal one produced by a quiesced twin session at a
        batch boundary — bit-identical distances, no torn states — and the
        epochs each reader observes must be monotone."""
        base = random_walk_collection(40, 32, seed=11)
        query = base[0]
        batches = [
            [repro.noisy_copy(query, seed=100 * b + j, name=f"b{b}-{j}")
             for j in range(3)]
            for b in range(5)
        ]

        # The quiesced twin: the legal answer set at every boundary.
        twin = repro.connect()
        twin.relation("walks").insert_many(base).with_index(KIndex())
        legal = []

        def snapshot(session):
            outcome = session.sql(WIDE_SQL, q=query)
            return frozenset((obj.name, distance)
                             for obj, distance in outcome.answers)
        legal.append(snapshot(twin))
        for batch in batches:
            twin.relation("walks").insert_many(batch)
            legal.append(snapshot(twin))
        twin.close()

        session = repro.connect()
        session.relation("walks").insert_many(base).with_index(KIndex())
        config = ServerConfig(max_in_flight=8, max_queue_depth=32)
        with serve(session, config=config) as handle:
            writer_done = threading.Event()
            observations: list[list] = [[] for _ in range(4)]
            errors: list[BaseException] = []

            def reader(slot: int):
                client = repro.client.connect(handle.address, timeout_s=30.0,
                                              backoff=_fast_backoff(attempts=8))
                try:
                    while not writer_done.is_set():
                        outcome = client.sql(WIDE_SQL, q=query)
                        observations[slot].append(
                            (tuple(map(tuple, (outcome.epoch[:2],))),
                             frozenset((ref.name, distance)
                                       for ref, distance in outcome.answers)))
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)
                finally:
                    client.close()

            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            writer = repro.client.connect(handle.address, timeout_s=30.0,
                                          backoff=_fast_backoff(attempts=8))
            for batch in batches:
                writer.insert_many("walks", batch)
                time.sleep(0.02)  # let readers interleave with each state
            writer.close()
            writer_done.set()
            for thread in threads:
                thread.join(timeout=30.0)
        session.close()

        assert not errors, f"reader failed: {errors[0]!r}"
        total = 0
        for slot in observations:
            epochs = [epoch for epoch, _ in slot]
            assert epochs == sorted(epochs), "epochs ran backwards"
            for _, answers in slot:
                total += 1
                assert answers in legal, \
                    "a read observed a state no quiesced session ever had"
        assert total > 0
