"""Cooperative cancellation: tokens, deadlines, and engine checkpoints.

The contract under test: a query cancelled mid-fan-out stops at the next
checkpoint, releases its pool slots, and leaves every cache exactly as if
the query never ran — the identical re-query computes the full answer,
bit-identical to a session that was never cancelled.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro import KIndex, StringObject, random_walk_collection
from repro.core.cancel import (
    CancellationToken,
    cancel_scope,
    checkpoint,
    current_token,
)
from repro.core.errors import DeadlineExceededError, QueryCancelledError
from repro.core.parallel import get_pool, parallel_map, shutdown_pools
from repro.index import scan as scan_module
from repro.storage import columnar


class TestCancellationToken:
    def test_manual_cancel(self):
        token = CancellationToken()
        token.check()  # fine while live
        token.cancel()
        assert token.cancelled
        with pytest.raises(QueryCancelledError):
            token.check()

    def test_deadline_with_injected_clock(self):
        clock = [0.0]
        token = CancellationToken.after(0.05, clock=lambda: clock[0])
        token.check()
        assert token.remaining() == pytest.approx(0.05)
        clock[0] = 0.049
        token.check()
        clock[0] = 0.051
        assert token.expired
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_deadline_error_is_a_cancellation(self):
        # One except clause catches both shapes of "this query stopped".
        assert issubclass(DeadlineExceededError, QueryCancelledError)

    def test_no_deadline_never_expires(self):
        token = CancellationToken()
        assert token.remaining() is None
        assert not token.expired


class TestScopeAndCheckpoint:
    def test_checkpoint_is_noop_without_scope(self):
        assert current_token.get() is None
        checkpoint()  # must not raise

    def test_scope_installs_and_restores(self):
        token = CancellationToken()
        with cancel_scope(token):
            assert current_token.get() is token
            inner = CancellationToken()
            with cancel_scope(inner):
                assert current_token.get() is inner
            assert current_token.get() is token
        assert current_token.get() is None

    def test_checkpoint_raises_inside_cancelled_scope(self):
        token = CancellationToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(QueryCancelledError):
                checkpoint()

    def test_scope_restores_on_exception(self):
        token = CancellationToken()
        with pytest.raises(RuntimeError):
            with cancel_scope(token):
                raise RuntimeError("boom")
        assert current_token.get() is None


class TestParallelMapPropagation:
    def test_serial_path_checkpoints_between_tasks(self):
        token = CancellationToken()
        calls = []

        def task(i):
            calls.append(i)
            if i == 1:
                token.cancel()
            return i
        with cancel_scope(token):
            with pytest.raises(QueryCancelledError):
                parallel_map(task, [(0,), (1,), (2,), (3,)], workers=1)
        assert calls == [0, 1]  # cancelled before task 2 ran

    def test_pooled_path_carries_token_across_threads(self):
        # contextvars do not follow tasks into pool threads by themselves;
        # parallel_map must re-install the token in each worker.
        token = CancellationToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(QueryCancelledError):
                parallel_map(lambda i: i, [(i,) for i in range(8)], workers=2)

    def test_uncancelled_pooled_map_unaffected(self):
        with cancel_scope(CancellationToken()):
            assert parallel_map(lambda i: i * i, [(i,) for i in range(6)],
                                workers=2) == [0, 1, 4, 9, 16, 25]


class TestPoolLifecycle:
    def test_shutdown_pools_is_idempotent_and_recoverable(self):
        pool = get_pool(2)
        assert pool.submit(lambda: 42).result() == 42
        shutdown_pools()
        shutdown_pools()  # idempotent
        fresh = get_pool(2)
        assert fresh is not pool
        assert fresh.submit(lambda: 7).result() == 7


class _PausingDistance:
    """A distance that blocks while enabled — the fan-out is guaranteed to
    be mid-flight when the test cancels it."""

    def __init__(self, pause_s: float = 0.01):
        self.pause_s = pause_s
        self.enabled = False
        self.calls = 0

    def __call__(self, left, right) -> float:
        self.calls += 1
        if self.enabled:
            time.sleep(self.pause_s)
        return float(abs(len(left.text) - len(right.text)))


def _string_session(slow, count=30, workers=None):
    session = repro.connect(workers=workers)
    words = [StringObject("w" * (i + 1), name=f"w{i}") for i in range(count)]
    session.relation("slow", words).with_distance(slow)
    return session


SLOW_SQL = "SELECT FROM slow WHERE dist(object, $q) < 100.0"


class TestEngineCancellation:
    def test_deadline_stops_fanout_midway(self):
        slow = _PausingDistance()
        session = _string_session(slow)
        probe = StringObject("wwww", name="probe")
        session.sql(SLOW_SQL.replace("100.0", "99.0"), q=probe)  # warm stats
        slow.enabled = True
        slow.calls = 0
        with cancel_scope(CancellationToken.after(0.05)):
            with pytest.raises(DeadlineExceededError):
                session.sql(SLOW_SQL, q=probe)
        assert 0 < slow.calls < 30

    def test_caches_clean_and_requery_bit_identical(self):
        slow = _PausingDistance()
        session = _string_session(slow)
        probe = StringObject("wwww", name="probe2")
        session.sql(SLOW_SQL.replace("100.0", "99.0"), q=probe)
        slow.enabled = True
        with cancel_scope(CancellationToken.after(0.05)):
            with pytest.raises(DeadlineExceededError):
                session.sql(SLOW_SQL, q=probe)
        slow.enabled = False

        # The cancelled run must not have cached a partial answer set.
        rerun = session.sql(SLOW_SQL, q=probe)
        assert rerun.from_cache is False
        assert len(rerun) == 30

        # ... and the answers are bit-identical to a never-cancelled twin.
        twin_slow = _PausingDistance()
        twin = _string_session(twin_slow)
        twin_probe = StringObject("wwww", name="probe2-twin")
        expected = twin.sql(SLOW_SQL, q=twin_probe)
        assert [(obj.name, distance) for obj, distance in rerun.answers] \
            == [(obj.name, distance) for obj, distance in expected.answers]

    def test_cancelled_parallel_queries_release_pool_slots(self):
        # Burn through more cancelled parallel queries than there are pool
        # threads; a leaked slot would wedge the clean run that follows.
        data = random_walk_collection(64, 32, seed=3)
        session = repro.connect(workers=2)
        session.relation("walks").insert_many(data).with_index(KIndex())
        sql = "SELECT FROM walks WHERE dist(object, $q) < 100.0"
        for _ in range(6):
            token = CancellationToken()
            token.cancel()
            with cancel_scope(token):
                with pytest.raises(QueryCancelledError):
                    session.sql(sql, q=data[0])
        clean = session.sql(sql, q=data[0])
        serial = repro.connect()
        serial.relation("walks").insert_many(data).with_index(KIndex())
        expected = serial.sql(sql, q=data[0])
        assert [(obj.object_id, d) for obj, d in clean.answers] \
            == [(obj.object_id, d) for obj, d in expected.answers]

    def test_join_fanout_is_cancellable(self):
        data = random_walk_collection(40, 32, seed=9)
        session = repro.connect()
        session.relation("walks").insert_many(data).with_index(KIndex())
        token = CancellationToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(QueryCancelledError):
                session.sql("SELECT PAIRS FROM walks WHERE dist < 2.0")

    def test_cross_thread_cancel_interrupts_running_query(self):
        slow = _PausingDistance(pause_s=0.01)
        session = _string_session(slow, count=200)
        probe = StringObject("www", name="probe3")
        session.sql(SLOW_SQL.replace("100.0", "99.0"), q=probe)
        slow.enabled = True
        slow.calls = 0
        token = CancellationToken()
        started = threading.Event()
        outcome: dict = {}

        def run():
            with cancel_scope(token):
                started.set()
                try:
                    session.sql(SLOW_SQL, q=probe)
                    outcome["finished"] = True
                except QueryCancelledError:
                    outcome["cancelled"] = True
        thread = threading.Thread(target=run)
        thread.start()
        assert started.wait(5.0)
        time.sleep(0.05)  # let the fan-out get going
        token.cancel()
        thread.join(timeout=10.0)
        assert outcome == {"cancelled": True}
        assert slow.calls < 200

    @pytest.mark.parametrize("workers", [None, 2])
    def test_cross_thread_cancel_interrupts_running_join(self, workers, monkeypatch):
        """A scan join already under way stops at its next block — the pair
        kernel's block is the cancellation seam — and leaves the session (and
        the pool) as if it had never run."""
        data = random_walk_collection(120, 32, seed=21)
        sql = "SELECT PAIRS FROM walks WHERE dist < 3.0"
        session = repro.connect(workers=workers)
        session.relation("walks").insert_many(data)
        kernel = scan_module.pair_block_distances
        first_block = threading.Event()
        calls = []

        def paced(*args, **kwargs):
            calls.append(None)
            first_block.set()
            time.sleep(0.005)
            return kernel(*args, **kwargs)
        with monkeypatch.context() as patch:
            # 7 140 pairs in 112 blocks of at least 5 ms each.
            patch.setattr(columnar, "PAIR_BLOCK", 64)
            patch.setattr(scan_module, "pair_block_distances", paced)
            token = CancellationToken()
            outcome: dict = {}

            def run():
                with cancel_scope(token):
                    try:
                        session.sql(sql)
                        outcome["finished"] = True
                    except QueryCancelledError:
                        outcome["cancelled"] = True
            thread = threading.Thread(target=run)
            thread.start()
            assert first_block.wait(5.0)
            token.cancel()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert outcome == {"cancelled": True}
        assert 0 < len(calls) < 56  # well before the full join's 112 blocks

        clean = session.sql(sql)
        assert type(clean.plan).__name__ == "ScanJoinPlan"
        assert clean.from_cache is False
        fresh = repro.connect()
        fresh.relation("walks").insert_many(data)
        expected = fresh.sql(sql)
        assert len(expected) > 0
        assert [(a.object_id, b.object_id, d) for a, b, d in clean.answers] \
            == [(a.object_id, b.object_id, d) for a, b, d in expected.answers]
