"""Deterministic fault injection across the serving stack.

Every failure here is *scheduled* — exact frame indexes, exact commit
ordinals — so each test replays bit-for-bit.  The two invariants every
fault must leave standing:

1. the store is recoverable (reopening the directory succeeds and the
   catalog answers queries), and
2. every **acknowledged** write is visible after reopening — the client
   saw the ack, so the WAL had the record; anything less is data loss.

The converse ambiguity is also pinned down: a write whose acknowledgement
was lost raises :class:`~repro.core.errors.ConnectionLostError` and is
never retried automatically — the commit may have landed, and a silent
replay would apply it twice.
"""

from __future__ import annotations

import shutil

import pytest

import repro
from repro import (
    BackoffPolicy,
    FaultPlan,
    KIndex,
    ServerConfig,
    random_walk,
    random_walk_collection,
    serve,
)
from repro.core.errors import (
    ConnectionLostError,
    ProtocolError,
    RetryExhaustedError,
)
from repro.server.client import ServerClient
from repro.server.faults import FrameFaults, corrupt_frame
from repro.server.protocol import encode_frame

RANGE_SQL = "SELECT FROM walks WHERE dist(object, $q) < 5.0"


def _fast_backoff(**overrides):
    defaults = dict(base_ms=5.0, cap_ms=40.0, attempts=5, seed=7)
    defaults.update(overrides)
    return BackoffPolicy(**defaults)


@pytest.fixture()
def data():
    return random_walk_collection(30, 32, seed=5)


def _serve_with(data, plan, **config_kwargs):
    session = repro.connect()
    session.relation("walks").insert_many(data).with_index(KIndex())
    handle = serve(session, config=ServerConfig(fault_plan=plan,
                                                **config_kwargs))
    return handle, session


# ---------------------------------------------------------------------------
# the schedule itself
# ---------------------------------------------------------------------------
class TestFaultPlanScheduling:
    def test_frame_actions_fire_on_exact_indexes(self):
        plan = FaultPlan(drop_frames=(1,), corrupt_frames=(2,),
                         truncate_frames=(3,), delay_frames={4: 0.5},
                         stall_after_frames=5)
        faults = plan.frame_faults()
        actions = [faults.next_action() for _ in range(7)]
        assert actions[0] == (FrameFaults.PASS, 0.0)
        assert actions[1] == (FrameFaults.DROP, 0.0)
        assert actions[2] == (FrameFaults.CORRUPT, 0.0)
        assert actions[3] == (FrameFaults.TRUNCATE, 0.0)
        assert actions[4] == (FrameFaults.PASS, 0.5)
        assert actions[5][0] == FrameFaults.STALL
        assert actions[6][0] == FrameFaults.STALL  # stall is permanent

    def test_each_connection_gets_its_own_schedule(self):
        plan = FaultPlan(drop_frames=(0,))
        first, second = plan.frame_faults(), plan.frame_faults()
        assert first.next_action()[0] == FrameFaults.DROP
        assert second.next_action()[0] == FrameFaults.DROP

    def test_kill_counter_is_plan_global(self):
        plan = FaultPlan(kill_after_commits=3)
        plan.commit_landed()
        plan.commit_landed()
        from repro.server.faults import ServerKilled
        with pytest.raises(ServerKilled):
            plan.commit_landed()
        plan.commit_landed()  # past the kill point: counts but never fires
        assert plan.commits_seen == 4

    def test_blank_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.touches_frames
        plan.commit_landed()
        assert plan.frame_faults().next_action() == (FrameFaults.PASS, 0.0)

    def test_corrupt_frame_breaks_crc_only(self):
        frame = encode_frame({"op": "ping"})
        bad = corrupt_frame(frame)
        assert len(bad) == len(frame)
        assert bad[:8] == frame[:8]  # header untouched
        assert bad != frame


# ---------------------------------------------------------------------------
# response-stream faults against a live server
# ---------------------------------------------------------------------------
class TestResponseFaults:
    def _client(self, handle, **kwargs):
        kwargs.setdefault("timeout_s", 0.5)
        kwargs.setdefault("backoff", _fast_backoff())
        return repro.client.connect(handle.address, **kwargs)

    def test_dropped_response_read_retries_and_succeeds(self, data):
        # Frame 0 is the ping response; frame 1 (the first query's answer)
        # is dropped.  The client must time out, reconnect, and retry —
        # the fresh connection's frame 0 then passes.
        handle, session = _serve_with(data, FaultPlan(drop_frames=(1,)))
        with handle:
            client = self._client(handle)
            outcome = client.sql(RANGE_SQL, q=data[0])
            assert len(outcome) >= 1
            assert client.retries >= 1
            client.close()
        session.close()

    def test_corrupt_response_rejected_then_retried(self, data):
        handle, session = _serve_with(data, FaultPlan(corrupt_frames=(1,)))
        with handle:
            client = self._client(handle)
            outcome = client.sql(RANGE_SQL, q=data[0])
            assert len(outcome) >= 1
            assert client.retries >= 1
            client.close()
        session.close()

    def test_torn_response_rejected_then_retried(self, data):
        handle, session = _serve_with(data, FaultPlan(truncate_frames=(1,)))
        with handle:
            client = self._client(handle)
            outcome = client.sql(RANGE_SQL, q=data[0])
            assert len(outcome) >= 1
            assert client.retries >= 1
            client.close()
        session.close()

    def test_stalled_reader_times_out_then_recovers(self, data):
        # The first connection stalls after its ping response; the query's
        # answer never arrives.  The retry reconnects; the new connection
        # sends its frame 0 (the retried answer) before ITS stall point.
        handle, session = _serve_with(data, FaultPlan(stall_after_frames=1))
        with handle:
            client = self._client(handle)
            outcome = client.sql(RANGE_SQL, q=data[0])
            assert len(outcome) >= 1
            assert client.retries >= 1
            client.close()
        session.close()

    def test_delayed_response_needs_no_retry(self, data):
        handle, session = _serve_with(data, FaultPlan(delay_frames={1: 0.1}))
        with handle:
            client = self._client(handle, timeout_s=5.0)
            outcome = client.sql(RANGE_SQL, q=data[0])
            assert len(outcome) >= 1
            assert client.retries == 0
            client.close()
        session.close()

    def test_every_response_stalled_exhausts_retries(self, data):
        handle, session = _serve_with(data, FaultPlan(stall_after_frames=0))
        with handle:
            client = ServerClient(handle.address, timeout_s=0.3,
                                  backoff=_fast_backoff(attempts=3))
            with pytest.raises(RetryExhaustedError) as excinfo:
                client.sql(RANGE_SQL, q=data[0])
            assert excinfo.value.attempts == 3
            client.close()
        session.close()

    def test_lost_write_ack_is_ambiguous_not_retried(self, data):
        # Frames: 0 = ping ack, 1 = insert ack (dropped).  The write DID
        # commit server-side; the client must surface the ambiguity.
        handle, session = _serve_with(data, FaultPlan(drop_frames=(1,)))
        with handle:
            client = self._client(handle)
            before = len(session.relation("walks"))
            with pytest.raises(ConnectionLostError):
                client.insert_many(
                    "walks", [repro.noisy_copy(data[0], seed=9, name="n9")])
            # Applied exactly once — the client did not silently replay it.
            assert len(session.relation("walks")) == before + 1
            client.close()
        session.close()


# ---------------------------------------------------------------------------
# request-stream faults (the client end misbehaving)
# ---------------------------------------------------------------------------
class TestRequestFaults:
    def test_corrupt_request_rejected_loudly_then_recovered(self, data):
        handle, session = _serve_with(data, None)
        with handle:
            # Client frame 1 (the first query) goes out corrupted; the
            # server must refuse the garbled frame rather than half-decode
            # it, and the read retries on a clean connection.
            client = repro.client.connect(
                handle.address, timeout_s=0.5, backoff=_fast_backoff(),
                fault_plan=FaultPlan(corrupt_frames=(1,)))
            outcome = client.sql(RANGE_SQL, q=data[0])
            assert len(outcome) >= 1
            assert client.retries >= 1
            assert handle.server.stats["protocol_errors"] >= 1
            client.close()
        session.close()

    def test_torn_request_never_half_executes(self, data):
        handle, session = _serve_with(data, None)
        with handle:
            client = repro.client.connect(
                handle.address, timeout_s=0.5, backoff=_fast_backoff(),
                fault_plan=FaultPlan(truncate_frames=(1,)))
            before = len(session.relation("walks"))
            with pytest.raises(ConnectionLostError):
                client.insert_many(
                    "walks", [repro.noisy_copy(data[0], seed=3, name="n3")])
            # The torn request frame failed its CRC: nothing was applied.
            assert len(session.relation("walks")) == before
            client.close()
        session.close()

    def test_statement_survives_forced_reconnect(self, data):
        # Drop the response to the statement's first execution: the retry
        # reconnects, which invalidates the server-side statement id — the
        # client must re-prepare transparently, not fail on a dead id.
        handle, session = _serve_with(data, FaultPlan(drop_frames=(2,)))
        with handle:
            client = repro.client.connect(handle.address, timeout_s=0.5,
                                          backoff=_fast_backoff())
            statement = client.prepare(RANGE_SQL)  # frame 1: prepare ack
            outcome = statement.run(q=data[0])     # frame 2: dropped
            assert len(outcome) >= 1
            assert client.retries >= 1
            client.close()
        session.close()


# ---------------------------------------------------------------------------
# kill points: the server dies between WAL commit and acknowledgement
# ---------------------------------------------------------------------------
class TestKillPoints:
    #: The kill sweep: commits before the scheduled death in each of twenty
    #: rounds — ``random.Random(29).randrange(1, 6)``, twenty draws.
    KILL_AFTER = [5, 1, 3, 5, 5, 3, 1, 5, 3, 4, 4, 1, 1, 1, 4, 2, 3, 1, 4, 3]

    def _run_kill(self, tmp_path, round_index: int, kill_after: int) -> None:
        directory = str(tmp_path / f"kill{kill_after}.db")
        base = random_walk_collection(12, 24, seed=round_index)
        plan = FaultPlan(kill_after_commits=kill_after)
        handle = serve(path=directory, wal_sync="always",
                       config=ServerConfig(fault_plan=plan))
        try:
            handle.session.relation("walks").insert_many(base) \
                .with_index(KIndex())
            client = ServerClient(handle.address, timeout_s=2.0,
                                  backoff=_fast_backoff(attempts=1))
            acked: list[str] = []
            died = False
            for i in range(kill_after + 3):
                name = f"committed-{i}"
                row = random_walk(24, seed=100 * (round_index + 1) + i, name=name)
                try:
                    ack = client.insert_many("walks", [row])
                except (ConnectionLostError, RetryExhaustedError):
                    died = True
                    break
                assert ack["count"] == 1
                acked.append(name)
            client.close()
            assert died, "the scheduled kill point never fired"
            assert handle.wait_killed(5.0)
            assert len(acked) == kill_after - 1  # the killed commit lost its ack
        finally:
            handle.join_after_kill()

        # Reopen the crashed directory: every acked write must be there,
        # and the store must be fully usable (query + checkpoint + reopen).
        with repro.connect(path=directory) as reopened:
            names = {obj.name for obj in reopened.relation("walks").objects()}
            for name in acked:
                assert name in names, f"acknowledged write {name} lost"
            assert len(reopened.relation("walks")) >= 12 + len(acked)
            outcome = reopened.sql(RANGE_SQL, q=base[0])
            assert (base[0].object_id, 0.0) in {
                (obj.object_id, d) for obj, d in outcome.answers}
        with repro.connect(path=directory) as again:
            assert len(again.relation("walks")) >= 12 + len(acked)
        shutil.rmtree(directory, ignore_errors=True)

    @pytest.mark.parametrize("round_index, kill_after", enumerate(KILL_AFTER))
    def test_acked_writes_survive_kill(self, tmp_path, round_index, kill_after):
        self._run_kill(tmp_path, round_index, kill_after)

    def test_killed_server_refuses_further_work(self, tmp_path, data):
        directory = str(tmp_path / "dead.db")
        plan = FaultPlan(kill_after_commits=1)
        handle = serve(path=directory, wal_sync="always",
                       config=ServerConfig(fault_plan=plan))
        try:
            handle.session.relation("walks").insert_many(data) \
                .with_index(KIndex())
            client = ServerClient(handle.address, timeout_s=1.0,
                                  backoff=_fast_backoff(attempts=1))
            with pytest.raises((ConnectionLostError, RetryExhaustedError)):
                client.insert_many(
                    "walks", [repro.noisy_copy(data[0], seed=1, name="x")])
            client.close()
            assert handle.killed
            # A dead server accepts no new connections.
            with pytest.raises((ProtocolError, RetryExhaustedError,
                                ConnectionLostError, OSError)):
                probe = ServerClient(handle.address, timeout_s=0.5,
                                     backoff=_fast_backoff(attempts=2))
                probe.ping()
        finally:
            handle.join_after_kill()
        shutil.rmtree(directory, ignore_errors=True)
