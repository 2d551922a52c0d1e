"""Partition-parallel execution is bit-identical to serial execution.

The PR-7 contract: fanning queries across worker threads changes wall time
and nothing else.  These tests pin it down where it is most likely to break
— **ragged-length and zero-padded rows straddling partition boundaries** —
across every parallel surface:

* the sequential scan (range / NN / join, early-abandoning and exact),
* the partitioned k-index facade (three-phase range, incremental NN,
  batched traversals),
* the partitioned metric index (shared-traversal batches, merged top-k),

comparing ids AND distances exactly (``==`` on floats: bit identity, not
tolerance), plus the exact work counters — including under batching, where
per-partition counters must sum to the serial totals.

The thread-safety tests for the shared :class:`LRUCache` and
:class:`BufferPool` live here too: partition-parallel probes hammer both
from many threads at once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    KIndex,
    MetricIndex,
    PageStore,
    PartitionedIndex,
    PartitionedMetricIndex,
    SequentialScan,
    SeriesFeatureExtractor,
    StringObject,
    moving_average_spectral,
    random_walk,
    weighted_edit_distance,
)
from repro.core.parallel import get_pool, parallel_map, resolve_workers
from repro.core.query.cache import LRUCache
from repro.storage import columnar
from repro.storage.buffer import BufferPool
from repro.storage.partition import (
    DEFAULT_PARTITION_ROWS,
    StorePartition,
    partition_spans,
    store_partitions,
)


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


class TestPartitionedIndexIdentity:
    """PartitionedIndex == itself serial == the monolithic KIndex."""

    @pytest.fixture(scope="class")
    def data(self):
        return _ragged_walks(75, seed=43)

    @pytest.fixture(scope="class")
    def indexes(self, data):
        extractor = SeriesFeatureExtractor(2)
        mono = KIndex.bulk_load(data, extractor)
        serial = PartitionedIndex.bulk_load(
            data, extractor, partition_rows=17, workers=1)
        parallel = PartitionedIndex.bulk_load(
            data, extractor, partition_rows=17, workers=4)
        return mono, serial, parallel

    @pytest.mark.parametrize("epsilon", [1.0, 5.0, 15.0])
    def test_range_parallel_equals_serial_exactly(self, data, indexes, epsilon):
        _, serial, parallel = indexes
        for query in data[:3]:
            assert _range_fingerprint(parallel.range_query(query, epsilon)) \
                == _range_fingerprint(serial.range_query(query, epsilon))

    @pytest.mark.parametrize("epsilon", [1.0, 5.0, 15.0])
    def test_range_answers_match_the_monolithic_index(self, data, indexes,
                                                      epsilon):
        mono, _, parallel = indexes
        for query in data[:3]:
            expected = {(series.values.tobytes(), distance) for series, distance
                        in mono.range_query(query, epsilon).answers}
            observed = {(series.values.tobytes(), distance) for series, distance
                        in parallel.range_query(query, epsilon).answers}
            assert observed == expected

    @pytest.mark.parametrize("k", [1, 4, 20])
    def test_nearest_parallel_equals_serial_exactly(self, data, indexes, k):
        _, serial, parallel = indexes
        result_s = serial.nearest_neighbors(data[5], k)
        result_p = parallel.nearest_neighbors(data[5], k)
        assert _nn_fingerprint(result_p.answers) \
            == _nn_fingerprint(result_s.answers)
        assert result_p.statistics.postprocessed \
            == result_s.statistics.postprocessed

    @pytest.mark.parametrize("k", [1, 4, 20])
    def test_nearest_distances_match_the_monolithic_index(self, data, indexes, k):
        mono, _, parallel = indexes
        expected = [d for _, d in mono.nearest_neighbors(data[5], k).answers]
        observed = [d for _, d in parallel.nearest_neighbors(data[5], k).answers]
        assert observed == expected

    def test_batch_counters_are_exact_sums(self, data, indexes):
        """Batched traversal counters: parallel batch == serial batch, and
        per-partition work sums — no double counting, none lost."""
        _, serial, parallel = indexes
        queries = data[:5]
        epsilons = [4.0] * len(queries)
        results_s = serial.range_query_batch(queries, epsilons)
        results_p = parallel.range_query_batch(queries, epsilons)
        for result_s, result_p in zip(results_s, results_p):
            assert _range_fingerprint(result_p) == _range_fingerprint(result_s)

    def test_transformed_batch_shares_one_traversal(self, data, indexes):
        """Under a transformation the batch is still one fan-out: answers
        and per-query counters equal the singletons', the shared
        ``node_accesses`` is below their sum, at every worker count."""
        _, serial, parallel = indexes
        smoothing = moving_average_spectral(64, 6)
        queries = data[:6:3] + data[6:12:3]  # lengths 64 only: the map's length
        epsilons = [3.0, 5.0, 4.0, 6.0]
        for index in (serial, parallel):
            batched = index.range_query_batch(queries, epsilons,
                                              transformation=smoothing)
            singles = [index.range_query(query, epsilon, transformation=smoothing)
                       for query, epsilon in zip(queries, epsilons)]
            for result, single in zip(batched, singles):
                assert _range_fingerprint(result)[0] == _range_fingerprint(single)[0]
                assert result.statistics.candidates == single.statistics.candidates
                assert result.statistics.postprocessed \
                    == single.statistics.postprocessed
            shared = {result.statistics.node_accesses for result in batched}
            assert len(shared) == 1
            assert shared.pop() < sum(single.statistics.node_accesses
                                      for single in singles)
        assert [_range_fingerprint(result) for result in
                parallel.range_query_batch(queries, epsilons, transformation=smoothing)] \
            == [_range_fingerprint(result) for result in
                serial.range_query_batch(queries, epsilons, transformation=smoothing)]

    def test_incremental_extend_packs_completed_partitions(self, data):
        index = PartitionedIndex(SeriesFeatureExtractor(2),
                                 partition_rows=17, workers=2)
        for start in range(0, len(data), 10):
            index.extend(data[start:start + 10])
            assert len(index) == min(start + 10, len(data))
            # Every completed 17-row block has its sub-tree; the rest waits.
            assert len(index.tree.trees) == len(index) // 17
            assert index.tail_rows == len(index) % 17
        assert [len(tree) for tree in index.tree.trees] == [17] * (len(data) // 17)
        mono = KIndex(SeriesFeatureExtractor(2))
        mono.extend(data)
        expected = {(series.values.tobytes(), distance) for series, distance
                    in mono.range_query(data[0], 5.0).answers}
        observed = {(series.values.tobytes(), distance) for series, distance
                    in index.range_query(data[0], 5.0).answers}
        assert observed == expected

    def test_empty_index_answers_nothing(self, data):
        index = PartitionedIndex(SeriesFeatureExtractor(2), partition_rows=17,
                                 workers=2)
        assert index.range_query(data[0], 5.0).answers == []
        assert [r.answers for r in index.range_query_batch(data[:2], 5.0)] == [[], []]

    def test_structure_summary_keeps_the_monolithic_keys(self, indexes):
        mono, _, parallel = indexes
        assert set(parallel.structure_summary()) == set(mono.structure_summary())


class TestPartitionedMetricIndexIdentity:
    WORDS = ["pattern", "patter", "matter", "mutter", "butter", "bitter",
             "better", "batter", "query", "quarts", "quartz", "relation",
             "revelation", "revolution", "resolution", "solution", "dilution",
             "pollution", "evolution", "elocution", "locution", "lotion",
             "motion", "notion", "nation", "ration", "station"]

    @pytest.fixture(scope="class")
    def objects(self):
        return [StringObject(word) for word in self.WORDS]

    @pytest.fixture(scope="class")
    def indexes(self, objects):
        mono = MetricIndex(weighted_edit_distance, leaf_capacity=4)
        mono.extend(objects)
        serial = PartitionedMetricIndex(weighted_edit_distance,
                                        leaf_capacity=4, partition_rows=5,
                                        workers=1)
        serial.extend(objects)
        parallel = PartitionedMetricIndex(weighted_edit_distance,
                                          leaf_capacity=4, partition_rows=5,
                                          workers=4)
        parallel.extend(objects)
        return mono, serial, parallel

    @pytest.mark.parametrize("epsilon", [1.0, 2.0, 4.0])
    def test_range_parallel_equals_serial_exactly(self, objects, indexes,
                                                  epsilon):
        _, serial, parallel = indexes
        query = StringObject("potion")
        result_s = serial.range_query(query, epsilon)
        result_p = parallel.range_query(query, epsilon)
        assert [(obj.text, d) for obj, d in result_p.answers] \
            == [(obj.text, d) for obj, d in result_s.answers]
        assert result_p.statistics.postprocessed \
            == result_s.statistics.postprocessed
        assert result_p.statistics.node_accesses \
            == result_s.statistics.node_accesses

    def test_range_answers_match_the_monolithic_index(self, indexes):
        mono, _, parallel = indexes
        query = StringObject("potion")
        expected = {(obj.text, d) for obj, d
                    in mono.range_query(query, 3.0).answers}
        observed = {(obj.text, d) for obj, d
                    in parallel.range_query(query, 3.0).answers}
        assert observed == expected

    def test_batch_equals_looped_single_queries(self, objects, indexes):
        """Counter exactness under batching: the batch's per-query counters
        equal the single-query counters at any worker count."""
        _, serial, parallel = indexes
        queries = [StringObject(w) for w in ("nation", "butter", "query")]
        epsilons = [2.0, 3.0, 1.5]
        batched = parallel.range_query_batch(queries, epsilons)
        for query, epsilon, result in zip(queries, epsilons, batched):
            single = serial.range_query(query, epsilon)
            assert [(obj.text, d) for obj, d in result.answers] \
                == [(obj.text, d) for obj, d in single.answers]
            assert result.statistics.postprocessed \
                == single.statistics.postprocessed
            assert result.statistics.candidates \
                == single.statistics.candidates

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_nearest_parallel_equals_serial_exactly(self, indexes, k):
        _, serial, parallel = indexes
        query = StringObject("potion")
        result_s = serial.nearest_neighbors(query, k)
        result_p = parallel.nearest_neighbors(query, k)
        assert [(obj.text, d) for obj, d in result_p.answers] \
            == [(obj.text, d) for obj, d in result_s.answers]

    def test_nearest_distances_match_the_monolithic_index(self, indexes):
        mono, _, parallel = indexes
        query = StringObject("potion")
        expected = [d for _, d in mono.nearest_neighbors(query, 5).answers]
        observed = [d for _, d in parallel.nearest_neighbors(query, 5).answers]
        assert observed == expected


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


class TestStorePartitions:
    def test_partition_spans(self):
        assert partition_spans(0, 4) == []
        assert partition_spans(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert partition_spans(8, 4) == [(0, 4), (4, 8)]
        with pytest.raises(ValueError):
            partition_spans(10, 0)

    def test_partition_views_are_slices_of_the_store(self):
        data = _ragged_walks(23, seed=47)
        scan = SequentialScan(SeriesFeatureExtractor(2))
        scan.extend(data)
        store = scan.store
        partitions = store_partitions(store, 7)
        assert [len(p.lengths) for p in partitions] == [7, 7, 7, 2]
        rebuilt = np.concatenate([p.coefficients for p in partitions])
        assert rebuilt.tobytes() == store.coefficients.tobytes()
        last = partitions[-1]
        assert isinstance(last, StorePartition)
        assert last.global_id(1) == 22
        assert last.series(1).values.tobytes() == data[22].values.tobytes()

    def test_default_partition_rows_is_sane(self):
        assert DEFAULT_PARTITION_ROWS >= 1
