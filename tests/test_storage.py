"""Tests for the simulated page store, the buffer pool and the mapped
segment store — among them the differentials of a *page run*
(``read_run``) against the per-page loop it replaced in the scan, which is
kept here as the reference: the pool's ``read`` and ``read_run`` share no
code; the segment store's ``read`` is the one-page run, so there the loop
checks that a run equals its one-page pieces, and the rows touched are
spied on and checked against literal row sets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.durable import SegmentPageStore
from repro.storage.pages import PageStore
from repro.timeseries.generators import random_walk_collection


class TestPageStore:
    def test_allocate_and_read(self):
        store = PageStore()
        page_id = store.allocate(payload={"a": 1})
        assert store.read(page_id) == {"a": 1}
        assert page_id in store
        assert len(store) == 1

    def test_write_overwrites(self):
        store = PageStore()
        page_id = store.allocate("old")
        store.write(page_id, "new")
        assert store.read(page_id) == "new"

    def test_counters(self):
        store = PageStore()
        page_id = store.allocate()
        store.read(page_id)
        store.read(page_id)
        store.write(page_id, 1)
        assert store.stats.reads == 2
        assert store.stats.writes == 2  # allocation counts as one write
        assert store.stats.allocations == 1
        assert store.stats.total == 4
        store.stats.reset()
        assert store.stats.total == 0

    def test_free(self):
        store = PageStore()
        page_id = store.allocate()
        store.free(page_id)
        assert page_id not in store
        with pytest.raises(StorageError):
            store.read(page_id)

    def test_missing_page(self):
        with pytest.raises(StorageError):
            PageStore().read(12345)

    def test_entries_per_page(self):
        store = PageStore(page_size=4096)
        assert store.entries_per_page(100) == 40
        assert store.entries_per_page(10000) == 1
        with pytest.raises(StorageError):
            store.entries_per_page(0)

    def test_invalid_page_size(self):
        with pytest.raises(StorageError):
            PageStore(page_size=0)

    def test_snapshot(self):
        store = PageStore()
        store.allocate()
        snapshot = store.stats.snapshot()
        assert snapshot["allocations"] == 1
        assert "total" in snapshot


class TestBufferPool:
    def test_miss_then_hit(self):
        store = PageStore()
        page_id = store.allocate("payload")
        pool = BufferPool(store, capacity=4)
        assert pool.read(page_id) == "payload"
        assert pool.read(page_id) == "payload"
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.hit_ratio == pytest.approx(0.5)

    def test_eviction_lru(self):
        store = PageStore()
        ids = [store.allocate(i) for i in range(5)]
        pool = BufferPool(store, capacity=2)
        pool.read(ids[0])
        pool.read(ids[1])
        pool.read(ids[2])  # evicts ids[0]
        assert pool.stats.evictions == 1
        store_reads_before = store.stats.reads
        pool.read(ids[1])  # still resident
        assert store.stats.reads == store_reads_before
        pool.read(ids[0])  # miss again
        assert pool.stats.misses == 4

    def test_write_back(self):
        store = PageStore()
        page_id = store.allocate("v1")
        pool = BufferPool(store, capacity=2)
        writes_before = store.stats.writes
        pool.write(page_id, "v2")
        # No write-through: the store is untouched until flush/eviction.
        assert store.stats.writes == writes_before
        assert store.read(page_id) == "v1"
        assert pool.read(page_id) == "v2"
        assert pool.stats.hits == 1  # the cached copy served the read
        assert pool.flush() == 1
        assert store.read(page_id) == "v2"
        assert pool.flush() == 0  # clean after the write-back

    def test_write_back_on_eviction(self):
        store = PageStore()
        ids = [store.allocate(f"v{i}") for i in range(3)]
        pool = BufferPool(store, capacity=2)
        pool.write(ids[0], "dirty0")
        pool.read(ids[1])
        pool.read(ids[2])  # evicts ids[0], which is dirty
        assert pool.stats.evictions == 1
        assert store.read(ids[0]) == "dirty0"
        assert pool.flush() == 0  # the eviction already wrote it back

    def test_invalidate_and_clear(self):
        store = PageStore()
        page_id = store.allocate("x")
        pool = BufferPool(store, capacity=2)
        pool.read(page_id)
        pool.invalidate(page_id)
        pool.read(page_id)
        assert pool.stats.misses == 2
        pool.clear()
        assert len(pool) == 0

    def test_a_refused_read_is_not_a_miss(self):
        pool = BufferPool(PageStore(), capacity=2)
        with pytest.raises(StorageError):
            pool.read(0)
        assert (pool.stats.misses, len(pool)) == (0, 0)

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(PageStore(), capacity=0)

    def test_hit_ratio_with_no_accesses(self):
        assert BufferPool(PageStore()).stats.hit_ratio == 0.0


# ----------------------------------------------------------------------
# page runs against the per-page loop
# ----------------------------------------------------------------------
def per_page_pass(reader, first: int, stop: int) -> None:
    """The loop ``read_run`` replaced — one ``read`` per page, in order —
    kept as the reference for pools and stores alike."""
    for page_id in range(first, stop):
        reader.read(page_id)


class LoggingStore(PageStore):
    """A page store that records what reaches it: every page read and
    written, in order, and the runs it was asked for."""

    def __init__(self, pages: int) -> None:
        super().__init__()
        for _ in range(pages):
            self.allocate(payload=[])
        self.stats.reset()
        self.log: list[tuple[str, int]] = []
        self.runs: list[tuple[int, int]] = []
        self.single_reads = 0

    def read(self, page_id):
        self.single_reads += 1
        self.log.append(("read", page_id))
        return super().read(page_id)

    def read_run(self, first, stop):
        self.runs.append((first, stop))
        self.log.extend(("read", page_id) for page_id in range(first, stop))
        super().read_run(first, stop)

    def write(self, page_id, payload):
        self.log.append(("write", page_id))
        super().write(page_id, payload)


def maximal_read_runs(log: list[tuple[str, int]]) -> list[tuple[int, int]]:
    """The device's view of a per-page pass cut into runs: adjacent log
    entries that read consecutive pages (a hit leaves a gap in the ids, a
    write-back an entry in between)."""
    runs: list[tuple[int, int]] = []
    previous = None
    for entry in log:
        if entry[0] == "read" and previous == ("read", entry[1] - 1):
            runs[-1] = (runs[-1][0], entry[1] + 1)
        elif entry[0] == "read":
            runs.append((entry[1], entry[1] + 1))
        previous = entry
    return runs


PAGES = 40
_page = st.integers(0, PAGES - 1)
_single = st.tuples(st.sampled_from(["read", "write"]), _page)
_run = st.tuples(st.just("run"), st.integers(0, PAGES), st.integers(0, 30))


def pool_state(pool: BufferPool, store: LoggingStore):
    return (pool.stats.hits, pool.stats.misses, pool.stats.evictions,
            list(pool._frames), set(pool._dirty),  # noqa: SLF001
            store.stats.reads, store.stats.writes, store.log)


class TestReadRunEqualsThePerPageLoop:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 12),
           before=st.lists(_single, max_size=30),
           steps=st.lists(st.one_of(_run, _run, _single), min_size=1, max_size=12))
    def test_pool_run_equals_the_loop_after_every_step(self, capacity, before, steps):
        """Frames in arbitrary LRU order, some dirty; then runs — empty, one
        page, longer than the pool, overlapping the resident set anywhere,
        repeated — between single reads and writes."""
        reference_store, run_store = LoggingStore(PAGES), LoggingStore(PAGES)
        reference = BufferPool(reference_store, capacity)
        pool = BufferPool(run_store, capacity)
        for kind, *arguments in before + steps:
            if kind == "run":
                first, length = arguments
                stop = min(first + length, PAGES)
                mark = len(reference_store.log)
                hits, misses = reference.stats.hits, reference.stats.misses
                per_page_pass(reference, first, stop)
                run_store.runs.clear()
                singles = run_store.single_reads
                assert pool.read_run(first, stop) == (
                    reference.stats.hits - hits, reference.stats.misses - misses)
                # One store call per maximal run of misses, none per page.
                assert run_store.runs == maximal_read_runs(reference_store.log[mark:])
                assert run_store.single_reads == singles
            elif kind == "read":
                reference.read(arguments[0])
                pool.read(arguments[0])
            else:
                reference.write(arguments[0], "dirty")
                pool.write(arguments[0], "dirty")
            assert pool_state(pool, run_store) == pool_state(reference, reference_store)

    def test_a_dirty_victim_is_written_back_between_the_reads_around_it(self):
        reference_store, run_store = LoggingStore(8), LoggingStore(8)
        pools = [BufferPool(reference_store, 2), BufferPool(run_store, 2)]
        for pool in pools:
            pool.write(6, "dirty")
            pool.read(7)
        per_page_pass(pools[0], 0, 4)
        assert pools[1].read_run(0, 4) == (0, 4)
        assert run_store.log == reference_store.log == [
            ("read", 7), ("read", 0), ("write", 6), ("read", 1), ("read", 2),
            ("read", 3)]
        assert run_store.runs == [(0, 1), (1, 4)]

    def test_a_pass_that_misses_everywhere_is_one_lock_and_one_store_call(self):
        class CountingLock:
            def __init__(self, lock):
                self.lock, self.acquisitions = lock, 0

            def __enter__(self):
                self.acquisitions += 1
                return self.lock.__enter__()

            def __exit__(self, *exc_info):
                return self.lock.__exit__(*exc_info)

        store = LoggingStore(0)  # a run names pages by arithmetic
        pool = BufferPool(store, capacity=16)
        pool._lock = CountingLock(pool._lock)  # noqa: SLF001
        assert pool.read_run(0, 100) == (0, 100)
        assert pool._lock.acquisitions == 1  # noqa: SLF001
        assert store.runs == [(0, 100)] and store.single_reads == 0
        assert (store.stats.reads, store.stats.allocations) == (100, 0)
        assert list(pool._frames) == list(range(84, 100))  # noqa: SLF001
        assert pool.stats.evictions == 84
        # Resident pages are hits and reach no store; the pages after them
        # are one more run.
        assert pool.read_run(90, 100) == (10, 0)
        assert pool.read_run(98, 102) == (2, 2)
        assert store.runs == [(0, 100), (100, 102)]

    def test_a_run_resident_page_has_no_payload(self):
        store = LoggingStore(4)
        pool = BufferPool(store, capacity=4)
        pool.read_run(0, 2)
        assert pool.read(1) is None and pool.read(2) == []
        assert (pool.stats.hits, pool.stats.misses) == (1, 3)

    def test_store_run_counts_reads_and_penalties(self, monkeypatch):
        from repro.storage import pages

        spun = []
        monkeypatch.setattr(pages, "_spin", spun.append)
        store = PageStore(read_penalty=0.5)
        store.read_run(3, 7)
        store.read_run(5, 5)
        assert store.stats.snapshot() == {"reads": 4, "writes": 0,
                                          "allocations": 0, "total": 4}
        assert spun == [2.0, 0.0]


class CountingMap(np.memmap):
    """A mapping that counts the reductions run over it (slices and dtype
    views of a mapping are mappings of the same class)."""

    reductions = 0

    def sum(self, *args, **kwargs):
        CountingMap.reductions += 1
        return super().sum(*args, **kwargs)


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
        return sum(1 for low, high in zip(bounds[:-1], bounds[1:])
                   if rows & set(range(low, high)))

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
                per_page_pass(reference, first, stop)
                CountingMap.reductions = 0
                run.read_run(first, stop)
                assert CountingMap.reductions == self.segments_overlapped(first, stop)
                assert sorted(run.touched) == sorted(reference.touched)
                assert len(set(run.touched)) == len(run.touched)  # each byte once
                assert run.stats.reads == reference.stats.reads
                assert run.mapped_reads == reference.mapped_reads
        assert run.stats.allocations == 0

    def test_the_per_page_pass_runs_on_an_engine_built_backend(self, tmp_path):
        """What ``scan_backend()`` hands out after a checkpoint allocates no
        pages: the per-page loop runs there all the same and leaves pool and
        store exactly as the runs do — a pool smaller than the data, rows
        inserted since the checkpoint past the mappings, a second pass
        that hits what the first left resident, a third that evicts it."""
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:  # checkpoints on exit
            session.relation("walks").insert_many(random_walk_collection(40, 32, seed=3))
        session = repro.connect(path=path, buffer_pages=4)
        session.relation("walks").insert_many(random_walk_collection(10, 32, seed=4))
        states = []
        for one_pass in (per_page_pass, BufferPool.read_run):
            backend = session.database.scan_backend("walks")
            pool, store = backend["buffer"], backend["page_store"]
            data_pages = -(-50 // backend["records_per_page"])
            assert store.mapped_rows == 40 and len(store) == 0 and data_pages > 6
            self.spy_on_touches(store)
            for first, stop in [(0, data_pages), (data_pages - 3, data_pages), (0, 2)]:
                one_pass(pool, first, stop)
            assert pool.stats.hits == 3 and pool.stats.evictions == data_pages - 2
            states.append((pool.stats, list(pool._frames), store.stats,  # noqa: SLF001
                           store.mapped_reads, store.touched))
        session.close()
        assert states[0] == states[1]
        assert 0 < states[0][3] < states[0][2].reads  # some pages lie past the mappings

    def test_the_named_runs(self, tmp_path):
        _, run = self.stores(tmp_path)
        for first, stop, rows, mapped_pages in [
                (0, 1, range(0, 3), 1), (1, 3, range(3, 9), 2),
                (0, 5, range(0, 13), 5), (1, 2, range(3, 6), 1),
                (4, 5, range(12, 13), 1), (3, 7, range(9, 13), 2),
                (5, 8, range(0), 0), (2, 2, range(0), 0)]:
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
