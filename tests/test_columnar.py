"""Unit tests for the columnar record store, its kernels and the cache budget."""

from __future__ import annotations

import gc
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from test_abandon_order import early_abandon_candidates, scan_kernel

import repro
from repro.core.database import Database
from repro.core.errors import DimensionMismatchError
from repro.core.query.cache import LRUCache, estimate_size
from repro.core.query.executor import QueryEngine
from repro.index.kindex import KIndex
from repro.index.scan import SequentialScan
from repro.storage.columnar import (
    MAPPED_MATRIX_BYTES,
    ColumnarRecordStore,
    exact_distances,
    gathered_pair_distances,
    pairwise_distances,
    query_records,
    record_matrix,
    transform_full_record,
)
from repro.timeseries.features import (EXTRACT_CHUNK_ROWS, SeriesFeatureExtractor,
                                       record_distance, spectral_records)
from repro.timeseries.generators import make_rng, random_walk, random_walk_collection
from repro.timeseries.transforms import moving_average_spectral, reverse_spectral


@pytest.fixture(scope="module")
def walks():
    return random_walk_collection(25, 32, seed=5)


@pytest.fixture()
def store(walks):
    s = ColumnarRecordStore()
    s.extend(walks)
    return s


class TestStore:
    def test_dense_ids_in_insertion_order(self, store, walks):
        assert len(store) == len(walks)
        assert store.series_list() == list(walks)
        for i, series in enumerate(walks):
            assert store.series(i) is series

    def test_full_record_matches_extractor(self, store, walks):
        extractor = SeriesFeatureExtractor()
        for i in (0, 7, 24):
            coefficients, mean, std, length = store.full_record(i)
            features = extractor.extract(walks[i])
            assert np.array_equal(coefficients, features.full_coefficients)
            assert mean == features.mean and std == features.std
            assert length == features.length == 31

    def test_unknown_ids_raise(self, store):
        with pytest.raises(IndexError):
            store.series(len(store))
        with pytest.raises(IndexError):
            store.full_record(-1)

    def test_version_grows_with_appends(self, walks):
        s = ColumnarRecordStore()
        assert s.version == 0
        s.append(walks[0])
        assert s.version == 1

    def test_ragged_lengths(self):
        rng = make_rng(9)
        series = [random_walk(n, seed=rng) for n in (16, 40, 24)]
        s = ColumnarRecordStore()
        s.extend(series)
        assert not s.uniform_length
        assert list(s.lengths) == [15, 39, 23]
        # A row keeps coefficients 1 … 8 of 1 … 15; the padding beyond stays zero.
        assert s.coefficients.shape[1] == 20
        assert np.all(s.coefficients[0, 8:] == 0)
        assert s.full_record(0)[0].shape == (8,)

    def test_records_map_matches_scalar_transform(self, store, walks):
        transformation = reverse_spectral(32)
        record_map = store.records(transformation).mapping
        rows = np.array([0, 11, 24])
        width = store.coefficients.shape[1]
        coefficients = record_map.columns(store.coefficients[rows], slice(width))
        means, stds = record_map.statistics(store.means[rows], store.stds[rows])
        for position, i in enumerate(rows.tolist()):
            expected = transform_full_record(*store.full_record(i), transformation)
            assert np.array_equal(coefficients[position, :expected[0].shape[0]],
                                  expected[0])
            assert means[position] == expected[1] and stds[position] == expected[2]
        assert store.records(None).mapping is None

    def test_short_transformation_raises(self, store):
        with pytest.raises(DimensionMismatchError, match="stored record"):
            store.records(moving_average_spectral(16, 4))

    def test_records_are_views_of_the_store(self, store):
        records = store.records()
        for name in ("coefficients", "lengths", "means", "stds"):
            assert np.shares_memory(getattr(records, name), getattr(store, name))
        assert (records.size, records.width) == store.coefficients.shape
        span = records.select(slice(3, 9))
        assert span.size == 6 and np.shares_memory(span.coefficients, store.coefficients)
        assert np.array_equal(span.lengths, store.lengths[3:9])
        picked = records.select(np.array([5, 1]))
        assert not np.shares_memory(picked.coefficients, store.coefficients)
        assert picked.means.tolist() == store.means[[5, 1]].tolist()

    def test_query_records_pad_a_batch(self, store):
        fulls = [store.full_record(i) for i in (0, 1, 2)]
        queries = query_records(fulls)
        assert queries.lengths.tolist() == [full[3] for full in fulls]
        assert queries.whole is None  # halves, each of a spectrum of ``length``
        for position, (coefficients, mean, std, _) in enumerate(fulls):
            stored = coefficients.shape[0]
            assert np.array_equal(queries.coefficients[position, :stored], coefficients)
            assert not queries.coefficients[position, stored:].any()
            assert (queries.means[position], queries.stds[position]) == (mean, std)
        # A bare coefficient vector is whole: it stores all of its length.
        bare = query_records([fulls[0][:3]])
        assert bare.lengths.tolist() == [fulls[0][0].shape[0]] and bare.whole.tolist() == [True]

    def test_an_empty_store_takes_the_block_over(self, walks):
        """The first block becomes the store's matrix; the store never writes
        to it; later blocks, views and read-only blocks are copied."""
        records = spectral_records(walks)
        kept = records[0].copy()
        s = ColumnarRecordStore()
        s.bulk_load(walks, *records)
        assert np.shares_memory(s.coefficients, records[0])
        assert not np.shares_memory(s.means, records[2])
        s.extend(walks[:3])  # growing reallocates
        assert not np.shares_memory(s.coefficients, records[0])
        assert np.array_equal(records[0], kept)
        assert np.array_equal(s.coefficients[:len(walks)], kept)
        frozen = kept.copy()
        frozen.flags.writeable = False
        for block in (kept[:], frozen, kept.T.copy().T):
            copied = ColumnarRecordStore()
            copied.bulk_load(walks, block, *records[1:])
            assert not np.shares_memory(copied.coefficients, block)
            assert np.array_equal(copied.coefficients, kept)


def _mapped(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` (or the array it views) lives in a mapping of its
    own rather than in a numpy block."""
    while isinstance(matrix, np.ndarray):
        matrix = matrix.base
    return isinstance(matrix, mmap.mmap)


def _traced_bytes(matrix: np.ndarray) -> int:
    """What ``tracemalloc`` sees of a store's matrix: numpy reports its own
    blocks to it, a :func:`record_matrix` mapping is not a heap block."""
    return 0 if _mapped(matrix) else matrix.nbytes


class TestRecordMatrix:
    """A matrix a store keeps is, from :data:`MAPPED_MATRIX_BYTES` on, an
    anonymous mapping of its own: freed, it goes back to the system whole
    instead of leaving a relation-sized hole in the C heap, which the next
    relation's matrix may no longer fit (two ``peak_rss_mb`` levels on the
    benchmark's ``embedded-scan-join``, by address layout)."""

    #: Rows of 127 coefficients (series of 128) that just reach the mapping.
    ROWS = MAPPED_MATRIX_BYTES // (127 * 16) + 1

    def test_large_is_a_zeroed_writable_mapping_small_a_numpy_block(self):
        large = record_matrix(self.ROWS, 127)
        assert _mapped(large) and large.flags.c_contiguous and large.flags.writeable
        # Whole huge pages, so the kernel may align the mapping to one.
        assert len(large.base) % (1 << 21) == 0 and len(large.base) >= large.nbytes
        assert large.shape == (self.ROWS, 127) and large.dtype == np.complex128
        assert not large.any()
        small = record_matrix(self.ROWS - 1, 127)
        assert small.flags.owndata and not _mapped(small) and not small.any()

    def test_the_mapping_goes_with_the_matrix(self):
        matrix = record_matrix(self.ROWS, 127)
        mapping = weakref.ref(matrix.base)
        view = matrix[:10]
        del matrix
        gc.collect()
        assert mapping() is not None  # a view keeps it
        del view
        gc.collect()
        assert mapping() is None

    def test_every_load_path_keeps_a_mapped_matrix(self, tmp_path):
        # A store keeps 64 columns of a series of 128: twice the rows.
        walks = random_walk_collection(2 * self.ROWS, 128, seed=12)
        store = ColumnarRecordStore()
        store.extend(walks)
        assert _mapped(store.coefficients)
        kept = store.coefficients
        store.extend(walks[:1])  # growing reallocates into a new mapping
        assert _mapped(store.coefficients)
        assert not np.shares_memory(store.coefficients, kept)
        assert _mapped(KIndex.bulk_load(walks, SeriesFeatureExtractor(2)).store.coefficients)
        with repro.connect(path=str(tmp_path)) as session:
            session.relation("w").insert_many(walks)
        reopened = repro.connect(path=str(tmp_path))
        try:
            assert _mapped(reopened.database.columnar_store("w").coefficients)
        finally:
            reopened.close()

    def test_an_empty_store_takes_a_whole_mapping_over_and_copies_its_views(self):
        walks = random_walk_collection(2 * self.ROWS, 128, seed=13)
        records = spectral_records(walks)
        assert _mapped(records[0])
        taken = ColumnarRecordStore()
        taken.bulk_load(walks, *records)
        assert np.shares_memory(taken.coefficients, records[0])
        copied = ColumnarRecordStore()
        copied.bulk_load(walks[:-1], records[0][:-1], *(column[:-1] for column in records[1:]))
        assert not np.shares_memory(copied.coefficients, records[0])
        assert np.array_equal(copied.coefficients, records[0][:-1])


class TestLoadingHoldsTheSpectraOnce:
    """No load path allocates a second relation-sized block beside the
    store's matrix: a block that large, freed a moment later, is what the
    allocator keeps resident or not from one run to the next (the benchmark's
    ``peak_rss_mb`` spread).
    Counted with ``tracemalloc``, not timed; a mapped store matrix
    (:class:`TestRecordMatrix`) is outside what it counts, so the bound then
    leaves no room for a second one."""

    LENGTH = 128
    #: What one extraction chunk may hold at a time: values, normal form,
    #: complex copy, spectrum and their temporaries.
    WORKING_SET = 6 * EXTRACT_CHUNK_ROWS * LENGTH * 16

    @pytest.fixture(scope="class")
    def data(self):
        return random_walk_collection(8 * EXTRACT_CHUNK_ROWS, self.LENGTH, seed=8)

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_store_extend(self, data):
        def load():
            s = ColumnarRecordStore()
            s.extend(data)
            return s
        s, peak = self._peak(load)
        assert peak < _traced_bytes(s.coefficients) + self.WORKING_SET

    def test_index_bulk_load(self, data):
        index, peak = self._peak(lambda: KIndex.bulk_load(
            data, SeriesFeatureExtractor(2), max_entries=64))
        assert peak < _traced_bytes(index.store.coefficients) + self.WORKING_SET


class TestATransformationCopiesNoRelation:
    """A query under a transformation maps the rows its kernels gather and
    holds no transformed copy of the relation, neither kept nor for a moment:
    the copy, 6 MB here and 10 MB at the benchmark's 5 000 rows, was built
    per transformation and kept per store, and when it was freed the next
    one did or did not reuse its heap space — a ``peak_rss_mb`` of one of
    two levels from run to run.  Counted with ``tracemalloc``; each query
    under a transformation object of its own, so no cache could hide one."""

    ROWS = 3000
    LENGTH = 128

    @pytest.fixture(scope="class")
    def index(self):
        return KIndex.bulk_load(random_walk_collection(self.ROWS, self.LENGTH, seed=8))

    def test_probe_scan_and_join_peak_under_a_matrix(self, index):
        store = index.store
        scan = SequentialScan(store=store)
        state = dict(vars(store))
        series = store.series_list()

        def mavg():
            return moving_average_spectral(self.LENGTH, 10)

        queries = {
            "range probe": lambda: index.range_query(series[0], 8.0, transformation=mavg()),
            "k-NN probe": lambda: index.nearest_neighbors(series[1], 5, transformation=mavg()),
            "scan range": lambda: scan.range_query(series[2], 8.0, transformation=mavg()),
            "scan k-NN": lambda: scan.nearest_neighbors(series[3], 5, transformation=mavg()),
            "scan join": lambda: scan.all_pairs(1.0, transformation=mavg()),
        }
        peaks = {name: TestLoadingHoldsTheSpectraOnce._peak(query)[1]
                 for name, query in queries.items()}
        assert max(peaks.values()) < store.coefficients.nbytes / 2, peaks
        # Nothing per transformation is left on the store.
        assert vars(store).keys() == state.keys()
        assert all(vars(store)[name] is value for name, value in state.items())


class TestKernels:
    def test_exact_distances_bitwise_equal_record_distance(self, store):
        query = store.full_record(3)
        kernel = exact_distances(store.records(), query_records([query]), True)
        loops = [record_distance(store.full_record(i), query, True)
                 for i in range(len(store))]
        assert kernel.tolist() == loops

    def test_exact_distances_gathered_rows(self, store):
        query = store.full_record(0)
        row_ids = np.array([2, 17, 5], dtype=np.intp)
        gathered = exact_distances(store.records(), query_records([query]), True,
                                   row_ids=row_ids)
        full = exact_distances(store.records(), query_records([query]), True)
        assert gathered.tolist() == full[row_ids].tolist()

    def test_early_abandon_never_drops_an_answer(self, store):
        query = store.full_record(6)
        full = exact_distances(store.records(), query_records([query]), True)
        for epsilon in (0.0, 0.5, 2.0, 10.0):
            survivors = set(early_abandon_candidates(
                store.coefficients, store.lengths, store.means, store.stds,
                *query, True, epsilon).tolist())
            answers = set(np.nonzero(full <= epsilon)[0].tolist())
            assert answers <= survivors
            arrays = (store.coefficients, store.lengths, store.means, store.stds)
            kept, _ = scan_kernel(arrays, query, True, epsilon)
            assert set(kept.tolist()) == answers

    def test_gathered_pairs_match_per_query_kernels(self, store):
        fulls = [store.full_record(i) for i in (1, 4)]
        row_ids = np.array([0, 5, 9, 2, 7], dtype=np.intp)
        query_index = np.array([0, 0, 0, 1, 1], dtype=np.intp)
        result = gathered_pair_distances(store.records(), row_ids, query_records(fulls),
                                         query_index, True)
        for position, (row, q) in enumerate(zip(row_ids, query_index)):
            expected = record_distance(store.full_record(int(row)),
                                       fulls[int(q)], True)
            assert result[position] == expected

    def test_pairwise_matches_nested_loop(self, store):
        row_ids = [0, 3, 8, 15]
        condensed = pairwise_distances(store.records(), True, row_ids=row_ids)
        expected = []
        for i in range(len(row_ids)):
            for j in range(i + 1, len(row_ids)):
                expected.append(record_distance(store.full_record(row_ids[i]),
                                                store.full_record(row_ids[j]),
                                                True))
        assert condensed.tolist() == expected


class TestDatabaseStore:
    def test_store_shared_with_matching_index(self, walks):
        database = Database()
        database.create_relation("walks", walks)
        index = KIndex()
        index.extend(walks)
        database.register_index("walks", index)
        assert database.columnar_store("walks") is index.store
        # Stable across repeated calls at the same version.
        assert database.columnar_store("walks") is index.store

    def test_partial_index_store_is_not_adopted_or_grown(self, walks):
        database = Database()
        database.create_relation("walks", walks)
        index = KIndex()
        index.extend(walks[:10])
        database.register_index("walks", index)
        store = database.columnar_store("walks")
        assert store is not index.store
        assert len(store) == len(walks)
        assert len(index.store) == 10

    def test_owned_store_topped_up_incrementally(self, walks):
        database = Database()
        relation = database.create_relation("walks", walks[:20])
        first = database.columnar_store("walks")
        assert len(first) == 20
        relation.insert(walks[20])
        second = database.columnar_store("walks")
        assert second is first
        assert len(second) == 21
        assert second.series(20) is walks[20]

    def test_adopted_store_desync_is_detected_on_cache_hit(self, walks):
        """A direct index.insert grows the adopted store without touching the
        relation's version; the next columnar_store call must notice and stop
        serving the grown store for scans (no phantom rows)."""
        database = Database()
        database.create_relation("walks", walks[:24])
        index = KIndex()
        index.extend(walks[:24])
        database.register_index("walks", index)
        assert database.columnar_store("walks") is index.store
        index.insert(walks[24])  # bypasses the relation
        store = database.columnar_store("walks")
        assert store is not index.store
        assert len(store) == 24

    def test_drop_relation_releases_store(self, walks):
        database = Database()
        database.create_relation("walks", walks)
        database.columnar_store("walks")
        database.drop_relation("walks")
        assert "walks" not in database._columnar  # noqa: SLF001

    def test_engine_scan_reads_index_store(self, walks):
        database = Database()
        database.create_relation("walks", walks)
        index = KIndex()
        index.extend(walks)
        database.register_index("walks", index)
        engine = QueryEngine(database)
        scan = engine._scan_for("walks")  # noqa: SLF001 - wiring under test
        assert scan.store is index.store


class TestCacheByteBudget:
    def test_byte_budget_evicts_lru(self):
        cache = LRUCache(100, max_bytes=1000, sizeof=lambda value: value)
        cache.put("a", 400)
        cache.put("b", 400)
        cache.put("c", 400)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 400 and cache.get("c") == 400
        assert cache.total_bytes == 800
        assert cache.stats.evictions == 1

    def test_oversized_value_is_not_stored(self):
        cache = LRUCache(100, max_bytes=100, sizeof=lambda value: value)
        cache.put("big", 101)
        assert "big" not in cache
        assert cache.total_bytes == 0

    def test_replacement_updates_accounting(self):
        cache = LRUCache(100, max_bytes=1000, sizeof=lambda value: value)
        cache.put("a", 600)
        cache.put("a", 100)
        assert cache.total_bytes == 100
        cache.clear()
        assert cache.total_bytes == 0

    def test_entry_count_bound_still_applies(self):
        cache = LRUCache(2, max_bytes=10_000, sizeof=lambda value: 1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2 and "a" not in cache

    def test_estimate_size_prefers_nbytes(self):
        array = np.zeros(1000)
        assert estimate_size(array) >= array.nbytes
        answers = [(random_walk(64, seed=1), 0.5)] * 3
        assert estimate_size(answers) > 3 * 64 * 8

    def test_answer_cache_budget_bounds_memory(self, walks):
        session = repro.connect(answer_cache_bytes=8_000)
        session.relation("walks").insert_many(walks)
        text = "SELECT FROM walks WHERE dist(object, $q) < 100.0"
        for query in walks[:10]:
            session.sql(text, q=query)
        cache = session.engine.answer_cache
        assert cache.total_bytes <= 8_000
        assert cache.stats.evictions > 0 or len(cache) < 10
