"""Tests for the page arithmetic, the buffer pool and the mapped segment
store — among them the differentials of a *page run* (``read_run``) against
the per-page loop it replaced in the scan.  That loop is kept here as the
reference: :class:`PerPagePool` is the pool's old one-page ``read``, and on
a segment store the reference is the run cut into one-page runs, with the
rows touched spied on and checked against literal row sets."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.errors import StorageError
from repro.storage.buffer import BufferPool, BufferStatistics
from repro.storage.durable import SegmentPageStore
from repro.storage.durable.mmapstore import IOStatistics
from repro.storage.pages import PAGE_SIZE_BYTES, records_per_page
from repro.timeseries.generators import random_walk_collection


class TestRecordsPerPage:
    def test_records_per_page(self):
        assert PAGE_SIZE_BYTES == 4096
        assert records_per_page(100) == 40
        assert records_per_page(10000) == 1
        assert records_per_page(0) == 4096  # a record takes at least a byte
        assert records_per_page(100, page_size=300) == 3

    def test_invalid_page_size(self):
        with pytest.raises(StorageError):
            records_per_page(100, page_size=0)

    def test_a_page_holds_whole_records_only(self):
        """A record never straddles two pages: the count rounds down, and
        a record larger than a page still gets a page of its own."""
        assert records_per_page(4096) == 1
        assert records_per_page(4097) == 1
        assert records_per_page(2048) == 2
        assert records_per_page(2049) == 1
        assert records_per_page(1040) == 3  # a length-64 series' record


# ----------------------------------------------------------------------
# the reference and a store that records what reaches it
# ----------------------------------------------------------------------
class PerPagePool:
    """The per-page ``BufferPool.read`` that ``read_run`` replaced, kept as
    the reference: one request per page, a missed page fetched from the
    store on its own, the least recently used page evicted past capacity."""

    def __init__(self, store, capacity: int) -> None:
        self.store = store
        self.capacity = capacity
        self.stats = BufferStatistics()
        self._frames: OrderedDict[int, None] = OrderedDict()

    def read(self, page_id: int) -> None:
        if page_id in self._frames:
            self.stats.hits += 1
            self._frames.move_to_end(page_id)
            return
        self.store.read_run(page_id, page_id + 1)
        self.stats.misses += 1
        self._frames[page_id] = None
        while len(self._frames) > self.capacity:
            self._frames.popitem(last=False)
            self.stats.evictions += 1

    def read_pages(self, first: int, stop: int) -> None:
        """The per-page pass: one ``read`` per page, in order."""
        for page_id in range(first, stop):
            self.read(page_id)

    def __len__(self) -> int:
        return len(self._frames)


class LoggingStore:
    """A stand-in page store that records what reaches it: every page read,
    in order, and the runs it was asked for.  Pages are arithmetic, so any
    page id can be read."""

    def __init__(self) -> None:
        self.stats = IOStatistics()
        self.log: list[int] = []
        self.runs: list[tuple[int, int]] = []

    def read_run(self, first: int, stop: int) -> None:
        self.runs.append((first, stop))
        self.log.extend(range(first, stop))
        self.stats.reads += max(0, stop - first)


def maximal_read_runs(log: list[int]) -> list[tuple[int, int]]:
    """The device's view of a per-page pass cut into runs: adjacent log
    entries that read consecutive pages (a hit leaves a gap in the ids)."""
    runs: list[tuple[int, int]] = []
    for page_id in log:
        if runs and runs[-1][1] == page_id:
            runs[-1] = (runs[-1][0], page_id + 1)
        else:
            runs.append((page_id, page_id + 1))
    return runs


def pool_state(pool, store: LoggingStore):
    return (
        pool.stats.hits,
        pool.stats.misses,
        pool.stats.evictions,
        list(pool._frames),  # noqa: SLF001
        store.stats.reads,
        store.log,
    )


class TestBufferPool:
    def test_miss_then_hit(self):
        store = LoggingStore()
        pool = BufferPool(store, capacity=4)
        assert pool.read_run(3, 4) == (0, 1)
        assert pool.read_run(3, 4) == (1, 0)
        assert (pool.stats.misses, pool.stats.hits) == (1, 1)
        assert pool.stats.hit_ratio == pytest.approx(0.5)
        assert store.log == [3]

    def test_eviction_lru(self):
        store = LoggingStore()
        pool = BufferPool(store, capacity=2)
        pool.read_run(0, 3)  # page 2 evicts page 0
        assert pool.stats.evictions == 1
        assert pool.read_run(1, 2) == (1, 0)  # still resident, now the newest
        assert store.stats.reads == 3
        assert pool.read_run(0, 1) == (0, 1)  # a miss again; evicts page 2
        assert list(pool._frames) == [1, 0]  # noqa: SLF001
        assert (pool.stats.misses, pool.stats.evictions) == (4, 2)

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(LoggingStore(), capacity=0)

    def test_hit_ratio_with_no_accesses(self):
        assert BufferPool(LoggingStore()).stats.hit_ratio == 0.0

    def test_an_empty_or_reversed_run_is_no_request(self):
        store = LoggingStore()
        pool = BufferPool(store, capacity=4)
        assert pool.read_run(5, 5) == (0, 0)
        assert pool.read_run(5, 3) == (0, 0)
        assert store.runs == [] and store.stats.reads == 0
        assert pool.stats == BufferStatistics() and len(pool) == 0

    def test_a_pool_smaller_than_the_pass_never_hits(self):
        """LRU flooding: every page of a full pass evicts the page the next
        pass asks for first, so no pass hits and every page is a device
        read."""
        store = LoggingStore()
        pool = BufferPool(store, capacity=8)
        for _ in range(3):
            assert pool.read_run(0, 10) == (0, 10)
        assert store.runs == [(0, 10)] * 3 and store.stats.reads == 30
        assert (pool.stats.evictions, len(pool)) == (22, 8)
        assert pool.stats.hit_ratio == 0.0

    def test_a_pool_as_large_as_the_pass_hits_from_the_second_pass_on(self):
        store = LoggingStore()
        pool = BufferPool(store, capacity=10)
        assert pool.read_run(0, 10) == (0, 10)
        for _ in range(3):
            assert pool.read_run(0, 10) == (10, 0)
        assert store.runs == [(0, 10)] and pool.stats.evictions == 0
        assert pool.stats.accesses == 40
        assert pool.stats.hit_ratio == pytest.approx(0.75)

    def test_resident_pages_cut_a_run_into_device_reads(self):
        store = LoggingStore()
        pool = BufferPool(store, capacity=16)
        pool.read_run(3, 4)
        pool.read_run(6, 7)
        store.runs.clear()
        assert pool.read_run(0, 10) == (2, 8)
        assert store.runs == [(0, 3), (4, 6), (7, 10)]
        assert list(pool._frames) == list(range(10))  # noqa: SLF001

    def test_repr(self):
        pool = BufferPool(LoggingStore(), capacity=4)
        pool.read_run(3, 4)
        pool.read_run(3, 4)
        assert repr(pool) == "BufferPool(capacity=4, resident=1, hit_ratio=0.50)"

    def test_one_page_path(self):
        """The pool and the segment store share one way of reading pages —
        a run — and neither keeps a one-page read, a write path or a
        simulated page beside it."""
        from repro.storage import pages

        for name in ("read", "write", "flush", "invalidate", "clear"):
            assert not hasattr(BufferPool, name)
        assert not hasattr(SegmentPageStore, "read")
        assert SegmentPageStore.__bases__ == (object,)
        assert pages.__all__ == ["PAGE_SIZE_BYTES", "records_per_page"]
        for name in ("Page", "PageStore", "IOStatistics"):
            assert not hasattr(pages, name)


# ----------------------------------------------------------------------
# page runs against the per-page loop
# ----------------------------------------------------------------------
PAGES = 40
_single = st.tuples(st.just("read"), st.integers(0, PAGES - 1))
_run = st.tuples(st.just("run"), st.integers(0, PAGES), st.integers(0, 30))


class TestReadRunEqualsThePerPageLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        before=st.lists(_single, max_size=30),
        steps=st.lists(st.one_of(_run, _run, _single), min_size=1, max_size=12),
    )
    def test_pool_run_equals_the_loop_after_every_step(self, capacity, before, steps):
        """Frames in arbitrary LRU order; then runs — empty, one page,
        longer than the pool, overlapping the resident set anywhere,
        repeated — between single-page requests."""
        reference_store, run_store = LoggingStore(), LoggingStore()
        reference = PerPagePool(reference_store, capacity)
        pool = BufferPool(run_store, capacity)
        for kind, *arguments in before + steps:
            if kind == "run":
                first, length = arguments
                stop = min(first + length, PAGES)
            else:
                first, stop = arguments[0], arguments[0] + 1
            mark = len(reference_store.log)
            hits, misses = reference.stats.hits, reference.stats.misses
            reference.read_pages(first, stop)
            run_store.runs.clear()
            expected = (reference.stats.hits - hits, reference.stats.misses - misses)
            assert pool.read_run(first, stop) == expected
            # One store call per maximal run of misses, none per page.
            assert run_store.runs == maximal_read_runs(reference_store.log[mark:])
            assert pool_state(pool, run_store) == pool_state(reference, reference_store)

    def test_a_pass_that_misses_everywhere_is_one_lock_and_one_store_call(self):
        class CountingLock:
            def __init__(self, lock):
                self.lock, self.acquisitions = lock, 0

            def __enter__(self):
                self.acquisitions += 1
                return self.lock.__enter__()

            def __exit__(self, *exc_info):
                return self.lock.__exit__(*exc_info)

        store = LoggingStore()
        pool = BufferPool(store, capacity=16)
        pool._lock = CountingLock(pool._lock)  # noqa: SLF001
        assert pool.read_run(0, 100) == (0, 100)
        assert pool._lock.acquisitions == 1  # noqa: SLF001
        assert store.runs == [(0, 100)] and store.stats.reads == 100
        assert list(pool._frames) == list(range(84, 100))  # noqa: SLF001
        assert pool.stats.evictions == 84
        # Resident pages are hits and reach no store; the pages after them
        # are one more run.
        assert pool.read_run(90, 100) == (10, 0)
        assert pool.read_run(98, 102) == (2, 2)
        assert store.runs == [(0, 100), (100, 102)]


class CountingMap(np.memmap):
    """A mapping that counts the reductions run over it (slices and dtype
    views of a mapping are mappings of the same class)."""

    reductions = 0

    def sum(self, *args, **kwargs):
        CountingMap.reductions += 1
        return super().sum(*args, **kwargs)


def one_page_runs(store, first: int, stop: int) -> None:
    """A store's per-page pass: the run cut into one-page runs."""
    for page_id in range(first, stop):
        store.read_run(page_id, page_id + 1)


class TestSegmentStoreRuns:
    """``SegmentPageStore.read_run`` on real ``.npy`` mappings: 13 mapped
    rows in segments of 5, 5 and 3, three rows to a page — so page 1
    straddles a segment boundary, page 4 is partial (row 12 alone), and
    pages 5 … 7 lie wholly past the mapped rows."""

    SEGMENT_ROWS = (5, 5, 3)
    LAST_PAGE = 8

    def stores(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = []
        for number, rows in enumerate(self.SEGMENT_ROWS):
            path = tmp_path / f"seg-{number}.npy"
            np.save(path, rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4)))
            arrays.append(np.load(path, mmap_mode="r").view(CountingMap))
        made = []
        for _ in range(2):
            store = SegmentPageStore(arrays, record_bytes=100, page_size=300)
            assert store.records_per_page == 3 and store.mapped_rows == 13
            self.spy_on_touches(store)
            made.append(store)
        return made

    @staticmethod
    def spy_on_touches(store):
        """Record the rows every ``_touch_rows`` call covers."""
        store.touched = []
        touch = store._touch_rows  # noqa: SLF001

        def touch_and_record(start, stop):
            store.touched.extend(range(start, stop))
            return touch(start, stop)

        store._touch_rows = touch_and_record  # noqa: SLF001

    def segments_overlapped(self, first, stop):
        rows = set(range(first * 3, min(stop * 3, 13)))
        bounds = np.cumsum((0,) + self.SEGMENT_ROWS)
        return sum(1 for low, high in zip(bounds[:-1], bounds[1:]) if rows & set(range(low, high)))

    def test_every_run_equals_the_per_page_loop(self, tmp_path):
        """All 45 runs ``0 <= first <= stop <= 8``: inside one segment
        (0, 1), across two (1, 3), across all (0, 5), the straddling page
        alone (1, 2), the partial page (4, 5), across ``mapped_rows``
        (3, 7), wholly past it (5, 8), empty (2, 2)."""
        reference, run = self.stores(tmp_path)
        for first in range(self.LAST_PAGE + 1):
            for stop in range(first, self.LAST_PAGE + 1):
                reference.touched.clear()
                run.touched.clear()
                one_page_runs(reference, first, stop)
                CountingMap.reductions = 0
                run.read_run(first, stop)
                assert CountingMap.reductions == self.segments_overlapped(first, stop)
                assert sorted(run.touched) == sorted(reference.touched)
                assert len(set(run.touched)) == len(run.touched)  # each byte once
                assert run.stats == reference.stats
                assert run.mapped_reads == reference.mapped_reads

    def test_the_per_page_pass_runs_on_an_engine_built_backend(self, tmp_path):
        """What ``scan_backend()`` hands out after a checkpoint: the
        reference pool over a store built the same way ends exactly where the
        backend's pool ends — a pool smaller than the data, rows inserted
        since the checkpoint past the mappings, a second pass that hits what
        the first left resident, a third that evicts it."""
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:  # checkpoints on exit
            session.relation("walks").insert_many(random_walk_collection(40, 32, seed=3))
        session = repro.connect(path=path, buffer_pages=4)
        session.relation("walks").insert_many(random_walk_collection(10, 32, seed=4))
        states = []
        for per_page in (True, False):
            pool = session.database.scan_backend("walks")["buffer"]
            store = pool.store
            if per_page:
                pool = PerPagePool(store, pool.capacity)
            data_pages = -(-50 // store.records_per_page)
            assert store.mapped_rows == 40 and data_pages > 6
            self.spy_on_touches(store)
            for first, stop in [(0, data_pages), (data_pages - 3, data_pages), (0, 2)]:
                if per_page:
                    pool.read_pages(first, stop)
                else:
                    pool.read_run(first, stop)
            assert pool.stats.hits == 3 and pool.stats.evictions == data_pages - 2
            frames = list(pool._frames)  # noqa: SLF001
            state = (pool.stats, frames, store.stats, store.mapped_reads, sorted(store.touched))
            states.append(state)
        session.close()
        assert states[0] == states[1]
        assert 0 < states[0][3] < states[0][2].reads  # some pages lie past the mappings

    def test_the_named_runs(self, tmp_path):
        _, run = self.stores(tmp_path)
        for first, stop, rows, mapped_pages in [
            (0, 1, range(0, 3), 1),
            (1, 3, range(3, 9), 2),
            (0, 5, range(0, 13), 5),
            (1, 2, range(3, 6), 1),
            (4, 5, range(12, 13), 1),
            (3, 7, range(9, 13), 2),
            (5, 8, range(0), 0),
            (2, 2, range(0), 0),
        ]:
            run.touched.clear()
            reads, mapped = run.stats.reads, run.mapped_reads
            run.read_run(first, stop)
            assert run.touched == list(rows)
            assert run.stats.reads - reads == stop - first
            assert run.mapped_reads - mapped == mapped_pages

    def test_a_run_reads_every_mapped_byte(self, tmp_path):
        _, run = self.stores(tmp_path)
        expected = 0
        for array in run._arrays:  # noqa: SLF001
            expected ^= int(np.asarray(array).view(np.uint64).sum())
        assert run._touch_rows(0, 13) == expected  # noqa: SLF001


class TestSegmentStore:
    """A :class:`SegmentPageStore` over in-memory arrays: its page
    arithmetic, its counters and the pages that lie past the mappings."""

    @staticmethod
    def arrays(*rows):
        return [np.arange(4 * count, dtype=np.complex128).reshape(count, 4) for count in rows]

    def test_records_per_page_is_the_scan_arithmetic(self):
        assert SegmentPageStore([], record_bytes=100).records_per_page == records_per_page(100)
        store = SegmentPageStore(self.arrays(5, 2), record_bytes=64, page_size=128)
        assert (store.records_per_page, store.mapped_rows) == (2, 7)
        with pytest.raises(StorageError):
            SegmentPageStore([], record_bytes=64, page_size=0)

    def test_counters_start_at_zero(self):
        store = SegmentPageStore(self.arrays(3), record_bytes=64)
        assert store.stats == IOStatistics() and store.stats.reads == 0
        assert store.mapped_reads == 0

    def test_an_empty_or_reversed_run_reads_nothing(self):
        store = SegmentPageStore(self.arrays(5, 2), record_bytes=64, page_size=128)
        store.read_run(2, 2)
        store.read_run(3, 1)
        assert (store.stats.reads, store.mapped_reads) == (0, 0)

    def test_pages_past_the_mappings_are_counted_and_touch_nothing(self):
        """Rows inserted since the last checkpoint lie past the mapped
        segments: their pages are reads, none of them a mapped read."""
        empty = SegmentPageStore([], record_bytes=64, page_size=128)
        empty.read_run(0, 5)
        assert (empty.stats.reads, empty.mapped_reads, empty.mapped_rows) == (5, 0, 0)
        store = SegmentPageStore(self.arrays(5, 2), record_bytes=64, page_size=128)
        store.read_run(2, 9)  # rows 4 … 6 are mapped: pages 2 and 3
        assert (store.stats.reads, store.mapped_reads) == (7, 2)

    def test_repr(self):
        store = SegmentPageStore(self.arrays(5, 2), record_bytes=64, page_size=128)
        store.read_run(0, 3)
        assert repr(store) == ("SegmentPageStore(segments=2, mapped_rows=7, "
                               "records_per_page=2, reads=3)")
