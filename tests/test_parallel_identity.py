"""Partition-parallel execution is bit-identical to serial execution.

Fanning the sequential scan's queries (range / NN / join, early-abandoning
and exact) across worker threads changes wall time and nothing else.  These
tests pin it down where it is most likely to break — **ragged-length and
zero-padded rows straddling partition boundaries** — comparing ids AND
distances exactly (``==`` on floats: bit identity, not tolerance), plus the
exact work counters.  An index plan does not fan out at all: through
``repro.connect(workers=N)`` its answers and counters are the serial
session's at every worker count.

The thread-safety tests for the shared :class:`LRUCache` and
:class:`BufferPool` live here too: concurrent readers hammer both from many
threads at once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro import (
    KIndex,
    MetricIndex,
    PageStore,
    SequentialScan,
    SeriesFeatureExtractor,
    StringObject,
    edit_distance_provider,
    moving_average_spectral,
    random_walk,
    random_walk_collection,
)
from repro.core.parallel import get_pool, parallel_map, resolve_workers
from repro.core.query.cache import LRUCache
from repro.core.query.planner import (
    EngineNearestPlan,
    EngineRangePlan,
    IndexNearestPlan,
    IndexRangePlan,
)
from repro.storage import columnar
from repro.storage.buffer import BufferPool
from repro.storage.partition import DEFAULT_PARTITION_ROWS, partition_spans


def _ragged_walks(count: int, seed: int = 41):
    """Random walks of cycling lengths (64/48/32): every short row is
    zero-padded in the columnar store, and with small ``partition_rows``
    the pad boundaries land inside partitions, between them, and on them."""
    lengths = [64, 48, 32]
    rng = np.random.default_rng(seed)
    return [random_walk(lengths[i % len(lengths)],
                        seed=int(rng.integers(0, 2**31)))
            for i in range(count)]


def _range_fingerprint(result):
    return ([(series.values.tobytes(), distance)
             for series, distance in result.answers],
            result.statistics.node_accesses,
            result.statistics.candidates,
            result.statistics.postprocessed)


def _nn_fingerprint(answers):
    return [(series.values.tobytes(), distance)
            for series, distance in answers]


class TestScanIdentity:
    """Parallel SequentialScan == serial SequentialScan, bit for bit."""

    @pytest.fixture(scope="class")
    def data(self):
        return _ragged_walks(61)  # not a multiple of any partition size

    @pytest.fixture(scope="class")
    def serial(self, data):
        scan = SequentialScan(SeriesFeatureExtractor(2))
        scan.extend(data)
        return scan

    def _parallel(self, serial, workers, partition_rows):
        return SequentialScan(SeriesFeatureExtractor(2), store=serial.store,
                              workers=workers, partition_rows=partition_rows)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("partition_rows", [7, 13])
    @pytest.mark.parametrize("early_abandon", [True, False])
    def test_range_ids_distances_and_counters(self, data, serial, workers,
                                              partition_rows, early_abandon):
        parallel = self._parallel(serial, workers, partition_rows)
        for query in (data[0], data[1], data[2]):  # one per length class
            for epsilon in (1.0, 4.0, 12.0):
                expected = serial.range_query(query, epsilon,
                                              early_abandon=early_abandon)
                observed = parallel.range_query(query, epsilon,
                                                early_abandon=early_abandon)
                assert _range_fingerprint(observed) \
                    == _range_fingerprint(expected)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_range_with_transformation(self, workers):
        # Spectral transformations are built for one length, so this case
        # uses a uniform-length relation (boundaries still cut mid-store).
        uniform = [random_walk(64, seed=s) for s in range(45)]
        serial = SequentialScan(SeriesFeatureExtractor(2))
        serial.extend(uniform)
        parallel = self._parallel(serial, workers, 7)
        transformation = moving_average_spectral(64, 4)
        expected = serial.range_query(uniform[0], 3.0,
                                      transformation=transformation)
        observed = parallel.range_query(uniform[0], 3.0,
                                        transformation=transformation)
        assert _range_fingerprint(observed) == _range_fingerprint(expected)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 5, 61, 100])
    def test_nearest_neighbors(self, data, serial, workers, k):
        parallel = self._parallel(serial, workers, 7)
        assert _nn_fingerprint(parallel.nearest_neighbors(data[4], k)) \
            == _nn_fingerprint(serial.nearest_neighbors(data[4], k))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("epsilon", [2.0, 8.0, 30.0])
    @pytest.mark.parametrize("early_abandon", [True, False])
    def test_join_pairs_and_counters(self, data, serial, workers, epsilon,
                                     early_abandon, monkeypatch):
        parallel = self._parallel(serial, workers, 7)
        # The serial side runs its 1 830 pairs as one block; the other side
        # cuts them into 19, mid-anchor, for the pool to finish in any order.
        expected_pairs, expected_stats = serial.all_pairs(
            epsilon, early_abandon=early_abandon)
        monkeypatch.setattr(columnar, "PAIR_BLOCK", 97)
        observed_pairs, observed_stats = parallel.all_pairs(
            epsilon, early_abandon=early_abandon)
        assert [(a.values.tobytes(), b.values.tobytes(), d)
                for a, b, d in observed_pairs] \
            == [(a.values.tobytes(), b.values.tobytes(), d)
                for a, b, d in expected_pairs]
        assert observed_stats.postprocessed == expected_stats.postprocessed
        assert observed_stats.candidates == expected_stats.candidates
        assert observed_stats.node_accesses == expected_stats.node_accesses

    def test_empty_relation(self):
        scan = SequentialScan(SeriesFeatureExtractor(2), workers=4)
        assert scan.range_query(_ragged_walks(1)[0], 1.0).answers == []
        assert scan.all_pairs(1.0)[0] == []


def _outcome_fingerprint(outcome):
    work = outcome.statistics
    return (type(outcome.plan).__name__,
            [(obj.object_id, distance) for obj, distance in outcome.answers],
            work.node_accesses, work.candidates, work.postprocessed,
            work.record_fetches, work.io_total)


def _indexed_session(workers, walks, words):
    session = repro.connect(workers=workers, answer_cache_size=0)
    session.with_transformation("mavg6", moving_average_spectral(64, 6))
    session.relation("walks").insert_many(walks).with_index(KIndex())
    provider = edit_distance_provider()
    (session.relation("words").insert_many(words).with_distance(provider)
        .with_index(MetricIndex(provider.distance, leaf_capacity=4)))
    return session


class TestIndexPlansAtEveryWorkerCount:
    """A session's ``workers`` fans out the scan and nothing else: a k-index
    or metric-index plan is one traversal on the calling thread, so its
    answers and counters are the serial session's at every worker count
    (``0`` is one worker per core)."""

    WALK_SQL = {
        "range": "SELECT FROM walks WHERE dist(series, $q) < 3.0",
        "range-mavg": "SELECT FROM walks WHERE dist(series, $q) < 3.0 USING mavg6",
        "nearest": "SELECT FROM walks NEAREST 5 TO $q",
        "nearest-mavg": "SELECT FROM walks NEAREST 5 TO $q USING mavg6",
    }
    WORD_SQL = {
        "range": "SELECT FROM words WHERE dist(object, $q) < 1.0",
        "nearest": "SELECT FROM words NEAREST 3 TO $q",
    }

    @pytest.fixture(scope="class")
    def walks(self):
        # 2 000 rows: enough that the planner picks the k-index for every
        # query here at every worker count, scans repriced or not.
        return random_walk_collection(2000, 64, seed=43)

    @pytest.fixture(scope="class")
    def words(self):
        # 600 short strings over five letters: enough that the metric index
        # beats comparing every object for every query here.
        rng = np.random.default_rng(47)
        return [StringObject("".join(rng.choice(list("abcde"), size=int(rng.integers(4, 9)))))
                for _ in range(600)]

    @pytest.fixture(scope="class")
    def serial(self, walks, words):
        session = _indexed_session(None, walks, words)
        yield session
        session.close()

    @pytest.fixture(scope="class", params=[0, 2, 3, 4])
    def parallel(self, request, walks, words):
        session = _indexed_session(request.param, walks, words)
        yield session
        session.close()

    @pytest.mark.parametrize("kind", sorted(WALK_SQL))
    def test_k_index_probe(self, serial, parallel, walks, kind):
        for query in walks[:3]:
            expected = serial.sql(self.WALK_SQL[kind], q=query)
            assert isinstance(expected.plan, (IndexRangePlan, IndexNearestPlan))
            assert _outcome_fingerprint(parallel.sql(self.WALK_SQL[kind], q=query)) \
                == _outcome_fingerprint(expected)

    @pytest.mark.parametrize("kind", ["range", "range-mavg"])
    def test_k_index_batch(self, serial, parallel, walks, kind):
        bindings = [{"q": query} for query in walks[:6]]
        expected = serial.prepare(self.WALK_SQL[kind]).run_many(bindings)
        observed = parallel.prepare(self.WALK_SQL[kind]).run_many(bindings)
        assert all(isinstance(outcome.plan, IndexRangePlan) for outcome in expected)
        assert [_outcome_fingerprint(outcome) for outcome in observed] \
            == [_outcome_fingerprint(outcome) for outcome in expected]

    @pytest.mark.parametrize("kind", sorted(WORD_SQL))
    def test_metric_index_probe(self, serial, parallel, words, kind):
        for query in (StringObject("abcab"), words[0], words[1]):
            expected = serial.sql(self.WORD_SQL[kind], q=query)
            assert isinstance(expected.plan, (EngineRangePlan, EngineNearestPlan))
            assert expected.plan.index_name == "default"
            assert _outcome_fingerprint(parallel.sql(self.WORD_SQL[kind], q=query)) \
                == _outcome_fingerprint(expected)

    def test_metric_index_batch(self, serial, parallel, words):
        bindings = [{"q": query} for query in words[:4]]
        expected = serial.prepare(self.WORD_SQL["range"]).run_many(bindings)
        observed = parallel.prepare(self.WORD_SQL["range"]).run_many(bindings)
        assert all(outcome.plan.index_name == "default" for outcome in expected)
        assert [_outcome_fingerprint(outcome) for outcome in observed] \
            == [_outcome_fingerprint(outcome) for outcome in expected]


class TestLRUCacheThreadSafety:
    def test_concurrent_put_get_keeps_invariants(self):
        cache = LRUCache(32)
        errors = []

        def hammer(worker_id: int) -> None:
            try:
                for i in range(500):
                    key = (worker_id * 7 + i) % 64
                    cache.put(key, i)
                    cache.get(key)
                    cache.get((key + 1) % 64)
            except Exception as error:  # noqa: BLE001 - the test asserts none
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32
        # Every get was counted exactly once.
        assert cache.stats.hits + cache.stats.misses == 8 * 500 * 2

    def test_concurrent_byte_budget_stays_consistent(self):
        cache = LRUCache(64, max_bytes=4096, sizeof=lambda value: 64)

        def hammer(worker_id: int) -> None:
            for i in range(300):
                cache.put((worker_id, i % 80), bytes(8))
                if i % 50 == 0:
                    cache.clear()

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64
        assert 0 <= cache.total_bytes <= 4096
        assert cache.total_bytes == 64 * len(cache)


class TestBufferPoolThreadSafety:
    def test_concurrent_reads_count_every_access(self):
        store = PageStore()
        pages = [store.allocate(payload=f"payload-{i}") for i in range(100)]
        pool = BufferPool(store, capacity=16)
        errors = []

        def hammer(worker_id: int) -> None:
            try:
                for i in range(400):
                    page = pages[(worker_id * 13 + i) % len(pages)]
                    payload = pool.read(page)
                    assert payload == f"payload-{pages.index(page)}"
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(pool) <= 16
        assert pool.stats.hits + pool.stats.misses == 8 * 400

    def test_concurrent_runs_and_reads_count_every_page(self):
        """Page runs racing single reads, seven to one: more threads than
        cores, a short switch interval and enough passes that a run made
        without the pool's lock fails more often than not
        (``move_to_end`` of a page another thread has just evicted)."""
        import sys

        store = PageStore()
        pages = [store.allocate(payload=i) for i in range(100)]
        pool = BufferPool(store, capacity=16)
        requested = [0] * 16
        errors = []

        def hammer(worker_id: int) -> None:
            try:
                for i in range(2500):
                    first = (worker_id * 13 + i * 7) % len(pages)
                    if (worker_id + i) % 8:
                        stop = min(first + 1 + i % 40, len(pages))
                        hits, misses = pool.read_run(first, stop)
                        assert hits + misses == stop - first
                        requested[worker_id] += stop - first
                    else:
                        assert pool.read(pages[first]) in (first, None)
                        requested[worker_id] += 1
                    assert len(pool) <= 16
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(pool) <= 16
        assert pool.stats.hits + pool.stats.misses == sum(requested)
        assert store.stats.reads == pool.stats.misses
        assert pool.stats.evictions == pool.stats.misses - len(pool)

    def test_concurrent_writes_and_invalidations(self):
        store = PageStore()
        pages = [store.allocate(payload=0) for _ in range(20)]
        pool = BufferPool(store, capacity=8)

        def hammer(worker_id: int) -> None:
            for i in range(200):
                page = pages[(worker_id + i) % len(pages)]
                pool.write(page, (worker_id, i))
                pool.read(page)
                if i % 17 == 0:
                    pool.invalidate(page)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(pool) <= 8


class TestParallelPlumbing:
    def test_resolve_workers(self):
        import os

        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_parallel_map_preserves_task_order(self):
        tasks = [(i,) for i in range(50)]
        assert parallel_map(lambda i: i * i, tasks, workers=4) \
            == [i * i for i in range(50)]

    def test_pools_are_shared_per_worker_count(self):
        assert get_pool(2) is get_pool(2)
        assert get_pool(2) is not get_pool(3)

    def test_serial_path_needs_no_pool(self):
        assert parallel_map(lambda i: -i, [(1,), (2,)], workers=1) == [-1, -2]
        assert parallel_map(lambda i: -i, [], workers=4) == []

    def test_partition_spans(self):
        assert partition_spans(0, 4) == []
        assert partition_spans(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert partition_spans(8, 4) == [(0, 4), (4, 8)]
        with pytest.raises(ValueError):
            partition_spans(10, 0)

    def test_default_partition_rows_is_sane(self):
        assert DEFAULT_PARTITION_ROWS >= 1
