"""Durable storage: persistent segments, WAL, crash-safe recovery.

The crash model: a process dies at an arbitrary instant, which on disk
means the write-ahead log is truncated at an arbitrary byte offset — in
the middle of a record, in the middle of a header, anywhere.  With
``wal_sync="always"`` every *acknowledged* write is fully on disk before
the call returns, so recovery must land exactly on the acknowledged state
whose last record survived, never on a torn or invented one.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import struct
import weakref
import zlib

import numpy as np
import pytest

import repro
from repro import (
    ColumnarRecordStore,
    GenericObject,
    KIndex,
    MetricIndex,
    PackedRTree,
    QueryEngine,
    SequentialScan,
    SeriesFeatureExtractor,
    StringObject,
    edit_distance_provider,
    euclidean,
    moving_average_spectral,
    random_walk_collection,
)
from repro.core.errors import IndexError_, StorageError
from repro.index import kindex as kindex_module
from repro.storage import codec
from repro.storage.durable import DurableDatabase, WriteAheadLog
from repro.storage.durable import segments as segments_module
from repro.storage.durable.manifest import FORMAT_VERSION
from repro.storage.durable.segments import ColumnSegment
from repro.storage.durable.serde import (build_index_from_spec, deserialize_index,
                                        index_spec, load_index_page, serialize_index)
from repro.storage.durable.wal import wal_filename
from test_storage import LoggingStore, PerPagePool

RANGE_SQL = "SELECT FROM walks WHERE dist(series, $q) < 5.0"


def _answers(session, query_obj, sql=RANGE_SQL):
    out = session.sql(sql, q=query_obj)
    return [(obj.object_id, distance) for obj, distance in out.answers]


def _ids(session, name="walks"):
    return [obj.object_id for obj in session.relation(name).objects()]


def _read_page(path):
    """The codec message of a framed file, every block a writable copy."""
    def thawed(value):
        if isinstance(value, np.ndarray):
            return value.copy()
        if isinstance(value, dict):
            return {key: thawed(item) for key, item in value.items()}
        if isinstance(value, list):
            return [thawed(item) for item in value]
        return value

    with open(path, "rb") as handle:
        return thawed(codec.unframe(handle.read())[0])


def _framed(payload):
    """Any bytes as a frame whose length and checksum fit them."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _damages(valid):
    """Every single-byte flip and every truncation of ``valid``."""
    for position in range(len(valid)):
        flipped = bytearray(valid)
        flipped[position] ^= 0xFF
        yield bytes(flipped)
    for stop in range(len(valid)):
        yield valid[:stop]


def _snapshot(root):
    """Every file under ``root``: its bytes and its modification time."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[path] = (handle.read(), os.stat(path).st_mtime_ns)
    return found


class TestRoundTrip:
    def test_checkpointed_reopen_is_bit_identical(self, tmp_path):
        data = random_walk_collection(40, 64, seed=11)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data).with_index(KIndex())
            expected_answers = _answers(session, data[3])
            expected_ids = _ids(session)

        reopened = repro.connect(path=path)
        assert reopened.database.recovered
        assert _ids(reopened) == expected_ids
        # Bit-identical: ids and exact float distances.
        assert _answers(reopened, data[3]) == expected_answers
        reopened.close()

    def test_reopen_skips_index_rebuild(self, tmp_path):
        data = random_walk_collection(50, 64, seed=12)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data).with_index(KIndex())
            expected = _answers(session, data[0])

        reopened = repro.connect(path=path)
        database = reopened.database
        assert database.deserialized_indexes == 1
        assert database.cold_index_builds == 0
        assert database.replayed_wal_records == 0
        assert _answers(reopened, data[0]) == expected
        # One query, one planner invocation: nothing was re-planned or
        # rebuilt behind the scenes.
        assert reopened.engine.planner.invocations == 1
        reopened.close()

    def test_new_inserts_after_reopen_get_fresh_ids(self, tmp_path):
        data = random_walk_collection(10, 32, seed=13)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data)
            recovered_ids = set(_ids(session))

        reopened = repro.connect(path=path)
        more = random_walk_collection(3, 32, seed=14)
        reopened.relation("walks").insert_many(more)
        fresh = [obj.object_id for obj in more]
        assert not set(fresh) & recovered_ids
        assert min(fresh) > max(recovered_ids)
        reopened.close()

    def test_strings_relation_with_metric_index(self, tmp_path):
        words = [StringObject(w) for w in
                 ("kitten", "sitting", "mitten", "bitten", "smitten")]
        path = str(tmp_path / "db")
        sql = "SELECT FROM words WHERE dist(OBJECT, $q) < 2.5"
        with repro.connect(path=path) as session:
            provider = edit_distance_provider()
            (session.relation("words").insert_many(words)
             .with_distance(provider)
             .with_index(MetricIndex(provider.distance)))
            expected = _answers(session, StringObject("mitten"), sql=sql)

        reopened = repro.connect(path=path)
        assert reopened.database.deserialized_indexes == 1
        assert _answers(reopened, StringObject("mitten"), sql=sql) == expected
        reopened.close()

    @pytest.mark.parametrize("crash", [False, True])
    def test_a_mixed_relation_reopens_bit_for_bit(self, tmp_path, crash):
        """A relation that is not all series is an object segment, series
        rows included: written at checkpoint, read at reopen (and, after a
        crash, replayed from the log) with every value's bits, id, name,
        payload and attributes as they were."""
        walks = random_walk_collection(3, 16, seed=15)
        rows = [*walks, StringObject("ab", payload={"k": [1, None]}),
                GenericObject([-0.0, 5e-324, 1e308], name="g")]
        path = str(tmp_path / "db")
        database = DurableDatabase(path, wal_sync="always")
        relation = database.create_relation("mixed", rows[:2])
        relation.insert(rows[2], {"tag": "third"})
        for obj in rows[3:]:
            relation.insert(obj)
        if not crash:
            database.checkpoint()
            segments = os.listdir(os.path.join(path, "segments", "mixed"))
            assert segments == ["seg-00000000-000005-objects.bin"]
        database.close()

        reopened = DurableDatabase(path)
        assert reopened.replayed_wal_records == (4 if crash else 0)
        restored = list(reopened.relation("mixed").rows())
        assert [row.obj.object_id for row in restored] == [obj.object_id for obj in rows]
        for row, obj in zip(restored, rows):
            assert type(row.obj) is type(obj) and row.obj.name == obj.name
            assert row.obj.payload == obj.payload
        assert [row.attributes for row in restored][2] == {"tag": "third"}
        for row, walk in zip(restored, walks):
            assert row.obj.values.tobytes() == walk.values.tobytes()
        assert restored[3].obj.text == "ab"
        assert restored[4].obj.feature_vector().values.tobytes() == \
            rows[4].feature_vector().values.tobytes()
        reopened.close()


def _probe(index, queries, transformation):
    """Everything a probe reports: answers with their distance bits, and
    every counter but the clock."""
    seen = []
    for query in queries:
        for found in (index.range_query(query, 4.0, transformation=transformation),
                      index.nearest_neighbors(query, 5, transformation=transformation),
                      *index.range_query_batch(queries, 3.0, transformation=transformation)):
            counters = found.statistics.as_dict()
            del counters["elapsed_seconds"]
            seen.append(([(series.object_id, distance.hex())
                          for series, distance in found.answers], counters))
    return seen


class TestIndexPageRoundTrip:
    """The version-3 page: what is written is the level arrays, and what
    comes back is the tree that was running — no rebuild, no first-probe
    pack, the same answers to the bit and the same node counts."""

    @pytest.mark.parametrize("build", ["str", "insertion", "tailed"])
    def test_reopened_index_is_the_one_checkpointed(self, tmp_path, build):
        data = random_walk_collection(460, 32, seed=71)
        loaded = 300 if build == "tailed" else 400
        if build == "insertion":
            index = KIndex.build_by_insertion(data[:loaded], max_entries=6)
        else:
            index = KIndex.bulk_load(data[:loaded])
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        handle = session.relation("walks").insert_many(data[:loaded]).with_index(index)
        if build == "tailed":
            handle.insert_many(data[300:400])
            assert index.tail_rows == 100
        queries = [data[3], data[399], data[-1]]
        transformation = moving_average_spectral(32, 5)
        before = [_probe(index, queries, T) for T in (None, transformation)]
        session.checkpoint()
        session.close()

        reopened = repro.connect(path=path)
        database = reopened.database
        assert (database.deserialized_indexes, database.cold_index_builds,
                database.replayed_wal_records) == (1, 0, 0)
        twin = database.index("walks")
        assert type(twin) is type(index) and twin.max_entries == index.max_entries
        assert (len(twin), len(twin.tree), twin.tail_rows) == \
            (len(index), len(index.tree), index.tail_rows)
        assert np.array_equal(twin._points[:len(twin)], index._points[:len(index)])
        tree, other = index.tree, twin.tree
        assert type(other) is PackedRTree
        assert (tree.dimension, tree.max_entries) == (other.dimension, other.max_entries)
        for level, restored in zip(tree.levels, other.levels, strict=True):
            assert level.is_leaf == restored.is_leaf
            for name in ("counts", "starts", "lows", "highs", "payloads"):
                written, read = getattr(level, name), getattr(restored, name)
                assert written.dtype == read.dtype and np.array_equal(written, read)
        assert [_probe(twin, queries, T) for T in (None, transformation)] == before
        assert twin.structure_summary() == index.structure_summary()
        reopened.close()

    def test_an_empty_indexed_relation_reopens_and_grows(self, tmp_path):
        """A relation checkpointed with an index and no rows is of kind
        ``"objects"`` on disk; its k-index page must still decode (it did
        not: ``connect`` raised and the directory was lost), and the index
        that comes back must take rows like any other."""
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        session.relation("walks").with_index(KIndex(SeriesFeatureExtractor(2)))
        session.checkpoint()
        session.close()

        data = random_walk_collection(90, 32, seed=73)
        scan = SequentialScan()
        scan.extend(data)

        def pairs(answers):
            return [(series.object_id, distance) for series, distance in answers]

        def index_agrees_with_the_scan(database):
            index = database.index("walks")
            assert len(index) == len(database.relation("walks")) == 90
            for query in (data[0], data[57], random_walk_collection(1, 32, seed=74)[0]):
                assert pairs(index.range_query(query, 4.0).answers) == \
                    pairs(scan.range_query(query, 4.0).answers)
                assert pairs(index.nearest_neighbors(query, 5).answers) == \
                    pairs(scan.nearest_neighbors(query, 5))

        reopened = repro.connect(path=path)
        database = reopened.database
        assert (database.deserialized_indexes, database.cold_index_builds) == (1, 0)
        assert len(database.index("walks")) == 0
        reopened.relation("walks").insert_many(data)
        index_agrees_with_the_scan(database)
        reopened.checkpoint()
        reopened.close()

        again = repro.connect(path=path)
        assert (again.database.deserialized_indexes, again.database.cold_index_builds,
                again.database.replayed_wal_records) == (1, 0, 0)
        index_agrees_with_the_scan(again.database)
        again.close()

    def test_the_page_holds_arrays_not_a_node_graph(self, tmp_path):
        data = random_walk_collection(300, 32, seed=72)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data).with_index(KIndex())
            tree = session.database.index("walks").tree
        page = os.path.join(path, "indexes", "walks", "default.bin")
        document = _read_page(page)
        assert document["format_version"] == FORMAT_VERSION == 5
        assert "tree_kind" not in document and "paged" not in document
        (written,) = document["trees"]
        assert written["size"] == 300 and len(written["levels"]) == tree.height()
        *internal, leaves = written["levels"]
        assert all(sorted(level) == ["counts", "highs", "lows", "payloads"]
                   for level in internal)
        assert all(block.dtype == np.int64 for level in written["levels"]
                   for block in (level["counts"], level["payloads"]))
        # The leaves' corners are rows of the points the page already holds.
        assert sorted(leaves) == ["counts", "payloads"]
        assert np.sort(leaves["payloads"]).tolist() == list(range(300))
        points = document["point_rows"].reshape(300, -1)
        assert np.array_equal(points[leaves["payloads"]], tree.levels[-1].lows)


class TestWalReplay:
    def test_uncheckpointed_writes_survive(self, tmp_path):
        data = random_walk_collection(25, 64, seed=21)
        path = str(tmp_path / "db")
        session = repro.connect(path=path, wal_sync="always")
        session.relation("walks").insert_many(data[:20])
        session.relation("walks").insert(data[20])
        expected_ids = _ids(session)
        expected = _answers(session, data[2])
        del session  # crash: no checkpoint, no close

        reopened = repro.connect(path=path)
        assert reopened.database.replayed_wal_records > 0
        assert _ids(reopened) == expected_ids
        assert _answers(reopened, data[2]) == expected
        reopened.close()

    def test_ddl_replays_from_wal_tail(self, tmp_path):
        words = [StringObject(w) for w in ("abc", "abd", "xyz")]
        path = str(tmp_path / "db")
        sql = "SELECT FROM words WHERE dist(OBJECT, $q) < 1.5"
        session = repro.connect(path=path, wal_sync="always")
        provider = edit_distance_provider()
        (session.relation("words").insert_many(words)
         .with_distance(provider)
         .with_index(MetricIndex(provider.distance)))
        expected = _answers(session, StringObject("abe"), sql=sql)
        del session  # crash before any checkpoint

        reopened = repro.connect(path=path)
        database = reopened.database
        # No snapshot existed, so the index is cold-rebuilt from its spec.
        assert database.cold_index_builds == 1
        assert database.deserialized_indexes == 0
        assert database.has_distance_provider("words")
        assert _answers(reopened, StringObject("abe"), sql=sql) == expected
        reopened.close()

    def test_drop_relation_replays(self, tmp_path):
        path = str(tmp_path / "db")
        session = repro.connect(path=path, wal_sync="always")
        session.relation("walks").insert_many(
            random_walk_collection(5, 32, seed=22))
        session.drop_relation("walks")
        del session

        reopened = repro.connect(path=path)
        assert "walks" not in reopened.database
        reopened.close()


class TestCrashInjection:
    """Truncate the WAL at randomized byte offsets — including mid-record —
    and assert recovery lands exactly on an acknowledged prefix."""

    @pytest.fixture(params=["bare", "indexed"])
    def indexed(self, request, monkeypatch):
        """The same kill points over a bare relation, a row per record, and
        over an indexed one fed five rows per record — with the seal floor
        lowered so that the stream seals the index's tail five times, and
        recovery replays its way across every one of those seals."""
        if request.param == "indexed":
            monkeypatch.setattr(kindex_module, "SEAL_MIN_ROWS", 8)
        return request.param == "indexed"

    def _build_workload(self, path, indexed):
        data = random_walk_collection(60 if indexed else 16, 32, seed=31)
        session = repro.connect(path=path, wal_sync="always")
        handle = session.relation("walks")
        snapshots = {0: ([], [])}  # row count -> (ids, answers)
        if indexed:
            handle.with_index(KIndex())
        packed = set()
        for start in range(0, len(data), 5 if indexed else 1):
            if indexed:
                handle.insert_many(data[start:start + 5])
                packed.add(len(session.database.index("walks").tree))
            else:
                handle.insert(data[start])
            snapshots[len(handle)] = (_ids(session),
                                      _answers(session, data[0]))
        assert len(packed) == (6 if indexed else 0)  # the first load + five seals
        token = session.database.state_token("walks")
        del session  # crash
        return data, snapshots, token

    def test_randomized_truncation_recovers_acknowledged_prefix(self, tmp_path, indexed):
        path = str(tmp_path / "db")
        data, snapshots, final_token = self._build_workload(path, indexed)
        wal_path = os.path.join(path, wal_filename(0))
        wal_size = os.path.getsize(wal_path)
        assert wal_size > 0
        rng = random.Random(777)
        offsets = {0, wal_size, wal_size - 3}  # empty, whole, torn tail
        while len(offsets) < 10:
            offsets.add(rng.randrange(1, wal_size))
        for offset in sorted(offsets):
            copy = str(tmp_path / f"crash-{offset}")
            shutil.copytree(path, copy)
            with open(os.path.join(copy, wal_filename(0)), "r+b") as fh:
                fh.truncate(offset)
            reopened = repro.connect(path=copy)
            database = reopened.database
            if "walks" not in database:
                # Truncation cut even the create_relation record: the
                # acknowledged prefix of length zero.
                reopened.close()
                continue
            count = len(reopened.relation("walks"))
            assert count in snapshots, \
                f"offset {offset}: {count} rows is not an acknowledged state"
            expected_ids, expected_answers = snapshots[count]
            assert _ids(reopened) == expected_ids
            assert _answers(reopened, data[0]) == expected_answers
            if indexed and database.has_index("walks"):
                assert len(database.index("walks")) == count
            # Epoch monotonicity: the reopened catalog version sorts
            # strictly after the crashed process's, so no token the old
            # process handed out can alias the recovered state.
            token = database.state_token("walks")
            assert token[0] > final_token[0]
            reopened.close()

    def test_full_wal_recovers_final_state_with_newer_token(self, tmp_path, indexed):
        path = str(tmp_path / "db")
        data, snapshots, final_token = self._build_workload(path, indexed)
        reopened = repro.connect(path=path)
        count = len(reopened.relation("walks"))
        assert count == len(data)
        expected_ids, expected_answers = snapshots[count]
        assert _ids(reopened) == expected_ids
        assert _answers(reopened, data[0]) == expected_answers
        assert reopened.database.state_token("walks")[0] > final_token[0]
        reopened.close()

    def test_torn_tail_garbage_is_ignored(self, tmp_path):
        wal_path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(wal_path, sync="always")
        records = [{"op": "insert", "n": i} for i in range(5)]
        for record in records:
            wal.append(record)
        wal.close()
        with open(wal_path, "ab") as fh:
            fh.write(b"\x07\x00\x00\x00garbage-no-checksum")
        assert WriteAheadLog.replay(wal_path) == records

    def test_corrupt_mid_record_stops_at_the_corruption(self, tmp_path):
        wal_path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(wal_path, sync="always")
        for i in range(4):
            wal.append({"op": "insert", "n": i})
        wal.close()
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.seek(size // 2)
            fh.write(b"\xff")
        replayed = WriteAheadLog.replay(wal_path)
        # A prefix survives; the corrupted record and everything after it
        # (no resynchronisation is attempted) are dropped.
        assert replayed == [{"op": "insert", "n": i}
                            for i in range(len(replayed))]
        assert len(replayed) < 4


NEAREST_SQL = "SELECT FROM walks NEAREST 3 TO $q"


class TestTheTailIsDurable:
    """A k-index's unindexed tail survives checkpoints, reopens and crashes:
    whatever happened to the process, answers, ``len(index)`` and the order
    of state tokens are those of a twin that was never interrupted.  (How
    the rows split between tree and tail is the index's own business.)"""

    def _pair(self, tmp_path, data, loaded=300, **options):
        """A durable session and its in-memory twin over the same index."""
        sessions = [repro.connect(path=str(tmp_path / "db"), **options),
                    repro.connect()]
        for session in sessions:
            session.relation("walks").insert_many(data[:loaded]).with_index(
                KIndex.bulk_load(data[:loaded]))
        return sessions

    @staticmethod
    def _feed(sessions, data, start, stop, batch=40):
        for begin in range(start, stop, batch):
            for session in sessions:
                session.relation("walks").insert_many(data[begin:min(begin + batch, stop)])

    @staticmethod
    def _agree(durable, twin, queries):
        index, other = durable.database.index("walks"), twin.database.index("walks")
        assert len(index) == len(other) == len(durable.relation("walks"))
        def pairs(answers):
            return [(obj.object_id, distance) for obj, distance in answers]

        for query in queries:
            for sql in (RANGE_SQL, NEAREST_SQL):  # whatever plan each picks
                assert pairs(durable.sql(sql, q=query).answers) == \
                    pairs(twin.sql(sql, q=query).answers)
            assert pairs(index.range_query(query, 3.0).answers) == \
                pairs(other.range_query(query, 3.0).answers)
            assert pairs(index.nearest_neighbors(query, 3).answers) == \
                pairs(other.nearest_neighbors(query, 3).answers)

    def test_checkpoint_with_a_tail_leaves_the_live_index_alone(self, tmp_path):
        data = random_walk_collection(700, 32, seed=61)
        durable, twin = self._pair(tmp_path, data)
        self._feed([durable, twin], data, 300, 420)
        index = durable.database.index("walks")
        assert index.tail_rows == 120
        tokens = [durable.database.state_token("walks")]
        durable.checkpoint()
        document = _read_page(os.path.join(durable.database.path, "indexes",
                                           "walks", "default.bin"))
        assert len(document["point_rows"]) == 420 * index.space.dimension
        assert [tree["size"] for tree in document["trees"]] == [300]
        assert index.tail_rows == 120
        self._agree(durable, twin, [data[0], data[419], data[-1]])
        self._feed([durable, twin], data, 420, 700)  # seals on the way
        assert len(index.tree) > 420
        tokens.append(durable.database.state_token("walks"))
        assert tokens == sorted(tokens) and tokens[0] != tokens[1]
        self._agree(durable, twin, [data[0], data[419], data[-1]])
        durable.close()

    def test_reopen_restores_the_tail_as_the_rows_beyond_the_tree(self, tmp_path):
        data = random_walk_collection(700, 32, seed=62)
        durable, twin = self._pair(tmp_path, data)
        self._feed([durable, twin], data, 300, 420)
        before = durable.database.state_token("walks")
        durable.checkpoint()
        durable.close()
        durable = repro.connect(path=str(tmp_path / "db"))
        database = durable.database
        assert (database.deserialized_indexes, database.cold_index_builds,
                database.replayed_wal_records) == (1, 0, 0)
        index = database.index("walks")
        assert (len(index.tree), index.tail_rows) == (300, 120)
        assert database.columnar_store("walks") is index.store
        assert database.state_token("walks") > before
        self._agree(durable, twin, [data[0], data[419], data[-1]])
        self._feed([durable, twin], data, 420, 700)  # the restored tail seals
        assert len(index.tree) > 420
        self._agree(durable, twin, [data[0], data[419], data[-1]])
        durable.close()

    @pytest.mark.parametrize("checkpointed_rows", [300, 500])
    def test_crash_whose_wal_spans_a_seal(self, tmp_path, checkpointed_rows):
        """One ``index.extend`` per replayed insert record carries the index
        across the seal the crashed process had already made (or, from a
        checkpointed tail of 200 rows, was about to)."""
        data = random_walk_collection(700, 32, seed=63)
        durable, twin = self._pair(tmp_path, data, wal_sync="always")
        self._feed([durable, twin], data, 300, checkpointed_rows)
        durable.checkpoint()
        self._feed([durable, twin], data, checkpointed_rows, 660)
        assert len(durable.database.index("walks").tree) > 300  # it sealed
        before = durable.database.state_token("walks")
        del durable  # crash: no checkpoint, no close
        durable = repro.connect(path=str(tmp_path / "db"))
        database = durable.database
        assert database.deserialized_indexes == 1 and database.cold_index_builds == 0
        assert database.replayed_wal_records == -(-(660 - checkpointed_rows) // 40)
        assert database.state_token("walks") > before
        assert len(database.index("walks").tree) > 300
        self._agree(durable, twin, [data[0], data[659], data[-1]])
        self._feed([durable, twin], data, 660, 700)
        self._agree(durable, twin, [data[0], data[699], data[-1]])
        durable.close()

    def test_failed_batch_reaches_neither_the_index_nor_the_log(self, tmp_path):
        data = random_walk_collection(42, 32, seed=64)
        path = str(tmp_path / "db")
        session = repro.connect(path=path, wal_sync="always")
        handle = session.relation("w").insert_many(data[:40]).with_index(
            KIndex.bulk_load(data[:40]))
        index = session.database.index("w")
        log = os.path.join(path, wal_filename(0))
        records = len(WriteAheadLog.replay(log))
        with pytest.raises(IndexError_, match="is not a time series"):
            handle.insert_many([data[40], data[41], StringObject("oops")])
        assert len(index) == len(handle) == 40
        assert len(WriteAheadLog.replay(log)) == records
        handle.insert_many(data[40:])
        assert len(WriteAheadLog.replay(log)) == records + 1
        del session, handle  # crash
        reopened = repro.connect(path=path)
        assert len(reopened.database.index("w")) == len(reopened.relation("w")) == 42
        reopened.close()


class TestDurableGuards:
    def test_unreconstructible_provider_is_rejected_and_rolled_back(self, tmp_path):
        database = DurableDatabase(str(tmp_path / "db"))
        database.create_relation(
            "words", [StringObject(w) for w in ("ab", "cd")])
        with pytest.raises(StorageError, match="not reconstructible"):
            database.register_distance(
                "words", lambda a, b: abs(len(a.text) - len(b.text)),
                name="ad-hoc-length")
        assert not database.has_distance_provider("words")
        database.close()

    def test_a_refused_provider_changes_nothing(self, tmp_path, monkeypatch):
        """The journal refuses an unreconstructible provider before the
        catalog applies it: no registration to roll back, no statistics
        collected, the state token and the log as they were."""
        from repro.core import stats as stats_module

        path = str(tmp_path / "db")
        database = DurableDatabase(path, wal_sync="always")
        database.create_relation("walks", random_walk_collection(40, 32, seed=70))
        database.analyze("walks")
        token = database.state_token("walks")
        log = os.path.join(path, wal_filename(0))
        logged = open(log, "rb").read()
        collections = []
        original = stats_module.collect_statistics

        def counting(*args, **kwargs):
            collections.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(stats_module, "collect_statistics", counting)
        with pytest.raises(StorageError, match="not reconstructible"):
            database.register_distance(
                "walks", lambda a, b: 0.0, name="ad-hoc-constant")
        assert collections == []
        assert database.state_token("walks") == token
        assert open(log, "rb").read() == logged
        assert not database.has_distance_provider("walks")
        database.close()

    def test_metric_index_requires_registered_provider(self, tmp_path):
        database = DurableDatabase(str(tmp_path / "db"))
        database.create_relation(
            "words", [StringObject(w) for w in ("ab", "cd")])
        provider = edit_distance_provider()
        index = MetricIndex(provider.distance)
        index.extend(database.relation("words"))
        with pytest.raises(StorageError, match="distance provider"):
            database.register_index("words", index)
        database.close()

    def test_session_rejects_database_and_path_together(self, tmp_path):
        from repro import CatalogError, Database

        with pytest.raises(CatalogError):
            repro.connect(Database(), path=str(tmp_path / "db"))

    def test_corrupt_manifest_fails_loudly(self, tmp_path):
        path = str(tmp_path / "db")
        repro.connect(path=path).close()
        with open(os.path.join(path, "MANIFEST.json"), "w") as fh:
            fh.write("{not json")
        with pytest.raises(StorageError):
            repro.connect(path=path)

    def test_every_flip_and_truncation_of_the_manifest(self, tmp_path):
        """The manifest is outside input too.  Every one-bit flip and every
        truncation of a small one reopens to a ``StorageError`` naming
        ``MANIFEST.json`` — never a bare ``KeyError`` from whichever line
        reads the damaged key — or to the undamaged directory's answers (a
        flipped watermark or epoch, which recovery only takes a maximum
        with or counts on from, say).  A refused reopen touches nothing, so
        the directory is copied afresh only after one that succeeded."""
        data = random_walk_collection(24, 32, seed=47)
        base, work = str(tmp_path / "base"), str(tmp_path / "work")
        with repro.connect(path=base) as session:
            session.relation("walks").insert_many(data).with_index(
                KIndex(SeriesFeatureExtractor(2)))
        valid = open(os.path.join(base, "MANIFEST.json"), "rb").read()

        def answers(database):
            engine = QueryEngine(database, answer_cache_size=0)
            found = [[(obj.object_id, distance) for obj, distance
                      in engine.execute(sql, {"q": query}).answers]
                     for query in data[:3]
                     for sql in (RANGE_SQL, "SELECT FROM walks NEAREST 3 TO $q")]
            database.close()
            return found

        shutil.copytree(base, work)
        expected = answers(DurableDatabase(work))
        flips = [valid[:at] + bytes([valid[at] ^ (1 << bit)]) + valid[at + 1:]
                 for at in range(len(valid)) for bit in range(8)]
        truncations = [valid[:stop] for stop in range(len(valid))]
        reopened = 0
        for damaged in flips + truncations:
            with open(os.path.join(work, "MANIFEST.json"), "wb") as fh:
                fh.write(damaged)
            try:
                database = DurableDatabase(work)
            except StorageError as error:
                assert "MANIFEST.json" in str(error)
                continue
            reopened += 1
            assert answers(database) == expected
            shutil.rmtree(work)
            shutil.copytree(base, work)
        assert reopened  # flips in the numbers recovery tolerates

    @pytest.mark.parametrize("opener, option, value", [
        (repro.connect, "wal_sync", "sometimes"),
        (repro.connect, "buffer_pages", 0),
        (repro.connect, "buffer_pages", -5),
        (DurableDatabase, "partition_rows", 0),  # not a session option
    ])
    def test_a_bad_option_is_refused_before_the_disk_is_touched(
            self, tmp_path, opener, option, value):
        path = str(tmp_path / "db")
        with pytest.raises(StorageError, match=f"{option}.*{value!r}"):
            opener(path=path, **{option: value})
        assert not os.path.exists(path)

    def test_other_format_versions_are_refused_untouched(self, tmp_path):
        """One decoder: a directory written by another build — older or
        newer — is refused by the manifest check, typed, with both versions
        in the message, and nothing on disk is touched (above all, no fresh
        manifest is written over the one that could not be read)."""
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(
                random_walk_collection(20, 32, seed=42)).with_index(KIndex())
        manifest_path = os.path.join(path, "MANIFEST.json")
        manifest = json.load(open(manifest_path))
        assert manifest["format_version"] == FORMAT_VERSION
        for other in (FORMAT_VERSION - 1, FORMAT_VERSION + 1, None):
            manifest["format_version"] = other
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh)
            before = _snapshot(path)
            with pytest.raises(StorageError, match=rf"version {other!r}.*version "
                                                   rf"{FORMAT_VERSION}") as refused:
                repro.connect(path=path)
            assert "MANIFEST.json" in str(refused.value)
            assert _snapshot(path) == before

    DAMAGES = ["truncated", "not-a-codec-payload", "dangling-child", "duplicate-leaf-id",
               "leaf-id-out-of-range", "short-point-rows", "overfull-node", "empty-node",
               "ragged-corners", "fractional-count", "nan-corner", "missing-level-field",
               "wrong-size", "wrong-page-version", "missing", "box-short-of-its-child"]

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_a_damaged_index_page_fails_at_open(self, tmp_path, damage):
        """An index page is outside input.  Whatever is wrong with it is a
        ``StorageError`` naming the file, raised by ``connect`` — not a raw
        ``CodecError``, and not an error (or a wrong answer) from whichever
        later probe reaches the damage.  Every case but the two that damage
        the bytes themselves is a frame that verifies."""
        self._damaged_page_fails_at_open(tmp_path, damage,
                                         random_walk_collection(120, 32, seed=43), 8)

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_a_damaged_page_capacity_index_fails_at_open(self, tmp_path, damage):
        """The same damages to a tree of page-sized (39-entry) nodes: 1 600
        rows give it three levels too."""
        self._damaged_page_fails_at_open(tmp_path, damage,
                                         random_walk_collection(1600, 32, seed=43), None)

    @staticmethod
    def _damaged_page_fails_at_open(tmp_path, damage, data, max_entries):
        rows = len(data)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data).with_index(
                KIndex(max_entries=max_entries))
        page = os.path.join(path, "indexes", "walks", "default.bin")
        raw = open(page, "rb").read()
        document = _read_page(page)
        levels = document["trees"][0]["levels"]
        assert len(levels) == 3
        if damage == "truncated":
            raw = raw[:len(raw) // 2]
        elif damage == "not-a-codec-payload":
            raw = _framed(b"\x00" + raw[codec.FRAME_HEADER:])
        elif damage == "dangling-child":
            levels[0]["payloads"][0] = 99999
        elif damage == "duplicate-leaf-id":
            levels[-1]["payloads"][0] = levels[-1]["payloads"][1]
        elif damage == "leaf-id-out-of-range":
            levels[-1]["payloads"][0] = rows
        elif damage == "short-point-rows":
            document["point_rows"] = document["point_rows"][:-len(document["point_rows"]) // rows]
        elif damage == "overfull-node":
            levels[1]["counts"][0] += 1
            levels[1]["counts"][1] -= 1
        elif damage == "empty-node":
            levels[-1]["counts"][0] += levels[-1]["counts"][1]
            levels[-1]["counts"][1] = 0
        elif damage == "ragged-corners":
            levels[1]["lows"] = levels[1]["lows"][:-1]
        elif damage == "fractional-count":
            levels[1]["counts"] = levels[1]["counts"].astype(np.float64)  # an f8 block
            levels[1]["counts"][0] += 0.5
        elif damage == "nan-corner":
            levels[1]["highs"][0] = float("nan")
        elif damage == "missing-level-field":
            del levels[1]["highs"]
        elif damage == "wrong-size":
            document["trees"][0]["size"] -= 1
        elif damage == "wrong-page-version":
            document["format_version"] = 2
        elif damage == "box-short-of-its-child":
            # Every box of the root collapses to its low corner: the page
            # decoded before its boxes were checked, and 118 of 120
            # self-queries at epsilon 3 then lost answers.
            levels[0]["highs"] = levels[0]["lows"].copy()
        if damage == "missing":
            os.remove(page)
        else:
            with open(page, "wb") as fh:
                fh.write(raw if damage in ("truncated", "not-a-codec-payload")
                         else codec.frame(document))
        with pytest.raises(StorageError, match="default.bin") as refused:
            repro.connect(path=path)
        assert "index page" in str(refused.value)

    def test_every_flip_and_truncation_of_a_page_is_refused(self, tmp_path):
        """Every single-byte flip and every truncation of a small page is a
        ``StorageError`` naming the file; with the checksum recomputed, so
        that the codec and the decoder's checks have to catch it, it is a
        ``StorageError`` or an index whose answers are the scan's."""
        data = random_walk_collection(24, 16, seed=45)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data).with_index(KIndex(max_entries=4))
        database = DurableDatabase(path)
        assert database.index("walks").tree.height() == 3
        store, objects = database.columnar_store("walks"), list(database.relation("walks").objects())
        database.close()
        page = os.path.join(path, "indexes", "walks", "default.bin")
        valid = open(page, "rb").read()
        scan = SequentialScan()
        scan.extend(data)
        queries = [(query, epsilon) for query in data[::5] for epsilon in (1.0, 3.0)]
        expected = [[(obj.object_id, distance) for obj, distance
                     in scan.range_query(query, epsilon).answers] for query, epsilon in queries]

        def load(raw):
            with open(page, "wb") as fh:
                fh.write(raw)
            return load_index_page(page, store=store, objects=objects)

        for damaged in _damages(valid):
            with pytest.raises(StorageError, match="default.bin"):
                load(damaged)
        decoded = 0
        for damaged in _damages(valid[codec.FRAME_HEADER:]):
            try:
                index = load(_framed(damaged))
            except StorageError as error:
                assert "default.bin" in str(error)
                continue
            decoded += 1
            assert [[(obj.object_id, distance) for obj, distance
                     in index.range_query(query, epsilon).answers]
                    for query, epsilon in queries] == expected
        assert decoded  # flips deep in the corners survive every check

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    @pytest.mark.parametrize("kind", ["columnar", "objects"])
    def test_a_damaged_segment_fails_at_open_untouched(self, tmp_path, kind, damage):
        """A segment file is outside input too: cut short or with its first
        byte flipped, each file a segment owns is a ``StorageError`` naming
        it, raised by ``connect`` — not a raw ``ValueError`` from numpy or the
        codec — and the refused reopen leaves every file as it found it.
        (The ``.npy`` arrays carry no checksum of their data: a flip past
        their header is not detectable; every ``.bin`` byte is.)"""
        rows = random_walk_collection(12, 16, seed=46)
        if kind == "objects":
            rows.append(StringObject("ab"))
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("r").insert_many(rows)
        directory = os.path.join(path, "segments", "r")
        names = ColumnSegment("r", 0, len(rows), kind).files()
        assert sorted(os.listdir(directory)) == sorted(names)
        for name in names:
            file = os.path.join(directory, name)
            valid = open(file, "rb").read()
            damaged = bytearray(valid[:len(valid) // 2] if damage == "truncated" else valid)
            if damage == "flipped":
                damaged[0] ^= 0xFF
            with open(file, "wb") as fh:
                fh.write(damaged)
            before = _snapshot(path)
            with pytest.raises(StorageError, match=name):
                repro.connect(path=path)
            assert _snapshot(path) == before
            with open(file, "wb") as fh:
                fh.write(valid)
        reopened = repro.connect(path=path)
        assert [obj.object_id for obj in reopened.relation("r").objects()] == \
            [obj.object_id for obj in rows]
        reopened.close()

    @pytest.mark.parametrize("where", ["page", "wal"])
    @pytest.mark.parametrize("kind", ["partitioned-kindex", "partitioned-metric"])
    def test_a_partitioned_kind_is_refused_by_name(self, tmp_path, kind, where):
        """There are no partitioned index kinds.  An index page or a logged
        ``register_index`` spec naming one is a ``StorageError`` that names
        the kind — from the decoders and from ``connect`` alike, never a
        ``KeyError`` for a field the kind carried — and a refused reopen
        leaves every file as it found it."""
        data = random_walk_collection(40, 32, seed=44)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data).with_index(KIndex())
            document = serialize_index(session.database.index("walks"))
        # The configuration the partitioned kinds carried.
        spec = ({**index_spec(KIndex()), "kind": kind} if kind == "partitioned-kindex"
                else {"kind": kind, "leaf_capacity": 8})
        spec.update(partition_rows=128, workers=1)
        page = {**document, **spec}
        with pytest.raises(StorageError, match=kind):
            deserialize_index(page, store=ColumnarRecordStore(), objects=data,
                              distance=euclidean)
        with pytest.raises(StorageError, match=kind):
            build_index_from_spec(spec, data, euclidean)
        if where == "page":
            with open(os.path.join(path, "indexes", "walks", "default.bin"), "wb") as fh:
                fh.write(codec.frame(page))
        else:
            manifest = json.load(open(os.path.join(path, "MANIFEST.json")))
            with WriteAheadLog(os.path.join(path, manifest["wal"]), sync="always") as wal:
                wal.append({"op": "register_index", "relation": "walks",
                            "index_name": "legacy", "spec": spec})
        before = _snapshot(path)
        for _ in range(2):  # refused alike twice: the first attempt left nothing behind
            with pytest.raises(StorageError, match=kind):
                repro.connect(path=path)
        assert _snapshot(path) == before

    def test_exception_in_with_block_skips_checkpoint(self, tmp_path):
        path = str(tmp_path / "db")
        data = random_walk_collection(6, 32, seed=41)
        with pytest.raises(RuntimeError):
            with repro.connect(path=path, wal_sync="always") as session:
                session.relation("walks").insert_many(data)
                raise RuntimeError("boom")
        manifest = json.load(open(os.path.join(path, "MANIFEST.json")))
        assert manifest["epoch"] == 0  # no checkpoint happened...
        reopened = repro.connect(path=path)
        assert len(reopened.relation("walks")) == len(data)  # ...WAL covers it
        reopened.close()

    def test_checkpoint_is_a_noop_in_memory(self):
        session = repro.connect()
        session.checkpoint()  # must not raise
        session.close()
        with repro.connect() as session:
            session.relation("walks")


class TestMeasuredIO:
    def test_scan_reads_go_through_the_buffer_pool(self, tmp_path):
        data = random_walk_collection(120, 64, seed=51)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data)

        reopened = repro.connect(path=path)
        first = reopened.sql(RANGE_SQL, q=data[0])
        second = reopened.sql(RANGE_SQL, q=data[1])
        # Cold pass faults every page in; the warm pass is all hits.
        assert first.statistics.buffer_misses > 0
        assert first.statistics.buffer_hits == 0
        assert second.statistics.buffer_hits == first.statistics.buffer_misses
        assert second.statistics.buffer_misses == 0
        # The device-side counters of the scan the queries ran saw real
        # mmap touches.
        store = reopened.engine._scan_for("walks").buffer.store  # noqa: SLF001
        assert store.stats.reads == first.statistics.buffer_misses
        assert store.mapped_reads > 0
        # EXPLAIN renders the measured hit rate.
        assert "buffer: " in reopened.explain(second)
        assert "100.0% hit rate" in reopened.explain(second)
        # The observed miss rate reached the planner's cost model.
        assert reopened.engine.planner.cost_model.buffer_miss_rate < 1.0
        reopened.close()

    def test_larger_than_ram_relation_forces_evictions(self, tmp_path):
        data = random_walk_collection(200, 64, seed=52)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data)
            expected = _answers(session, data[0])

        tiny = repro.connect(path=path, buffer_pages=2)
        tiny.sql(RANGE_SQL, q=data[0])
        outcome = tiny.sql(RANGE_SQL, q=data[0])
        pool = tiny.engine._scan_for("walks").buffer  # noqa: SLF001
        assert pool.capacity == 2
        assert pool.stats.evictions > 0
        # Bounded memory changes the I/O profile, never the answers.
        assert outcome.statistics.buffer_misses > 0
        assert _answers(tiny, data[0]) == expected
        assert pool.store.stats.reads > 0
        tiny.close()

    @pytest.mark.parametrize("buffer_pages", [5, 16, 40],
                             ids=["below", "equal", "above"])
    def test_every_scan_family_reports_the_per_page_counts(self, tmp_path,
                                                           buffer_pages):
        """Range, k-NN and join scans through pools smaller than, equal to
        and larger than the 16 mapped pages report the hits and misses of
        the per-page pass — ``test_storage.PerPagePool``, one ``read`` per
        page — also once rows live past the mapped segments, and after the
        checkpoint that maps them."""
        data = random_walk_collection(64 + 10, 64, seed=54)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data[:64])
        session = repro.connect(path=path, buffer_pages=buffer_pages,
                                answer_cache_size=0)
        queries = ((RANGE_SQL, {"q": data[2]}), (NEAREST_SQL, {"q": data[3]}),
                   ("SELECT PAIRS FROM walks WHERE dist < 2.0", {}))

        def passes_agree(pages):
            # The executor builds a scan — with a fresh store and pool — per
            # relation version and per checkpoint; so does the reference.
            reference = PerPagePool(LoggingStore(), capacity=buffer_pages)
            for _ in range(2):  # cold, then whatever the pool kept
                for sql, parameters in queries:
                    hits, misses = reference.stats.hits, reference.stats.misses
                    reference.read_pages(0, pages)
                    outcome = session.sql(sql, **parameters)
                    work = outcome.statistics
                    assert work.node_accesses == pages
                    assert (work.buffer_hits, work.buffer_misses) == (
                        reference.stats.hits - hits, reference.stats.misses - misses)
                    assert f"buffer: {work.buffer_hits}/{pages} hits" \
                        in session.explain(outcome)
            pool = session.engine._scan_for("walks").buffer  # noqa: SLF001
            assert pool.stats == reference.stats and len(pool) == len(reference)
            assert pool.store.stats == reference.store.stats
            return pool.store

        # 64 rows, 4 to a page: every page is mapped.
        mapped = passes_agree(16)
        assert mapped.mapped_reads == mapped.stats.reads > 0
        # Ten more rows: pages 16 … 18 are counted and touch no mapping.
        session.relation("walks").insert_many(data[64:])
        grown = passes_agree(19)
        assert grown.mapped_rows == 64
        assert grown.stats.reads - grown.mapped_reads == \
            3 * grown.stats.reads // 19 > 0
        session.checkpoint()
        remapped = passes_agree(19)
        assert remapped.mapped_rows == 74
        assert remapped.mapped_reads == remapped.stats.reads
        session.close()

    def test_scan_backend_lets_failures_surface(self, tmp_path, monkeypatch):
        """A failure while sizing the pages is an error, not a scan that
        silently stops charging I/O."""
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(
                random_walk_collection(8, 32, seed=55))
        database = repro.connect(path=path).database
        assert database.scan_backend("walks") is not None
        assert database.scan_backend("nothing-mapped") is None

        def broken(name):
            raise RuntimeError(f"no store for {name}")

        monkeypatch.setattr(database, "columnar_store", broken)
        with pytest.raises(RuntimeError, match="no store for walks"):
            database.scan_backend("walks")
        database.close()

    def test_checkpoint_mid_session_attaches_backends(self, tmp_path):
        data = random_walk_collection(60, 64, seed=53)
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        session.relation("walks").insert_many(data)
        before = session.sql(RANGE_SQL, q=data[0])
        assert before.statistics.buffer_hits == 0
        assert before.statistics.buffer_misses == 0  # no segments yet
        session.checkpoint()
        after = session.sql(RANGE_SQL, q=data[1])
        assert after.statistics.buffer_misses > 0  # now on real segments
        session.close()


class TestCheckpointHousekeeping:
    def test_checkpoint_rolls_the_wal_epoch(self, tmp_path):
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        session.relation("walks").insert_many(
            random_walk_collection(8, 32, seed=61))
        session.checkpoint()
        session.checkpoint()
        session.close()
        wal_files = [name for name in os.listdir(path)
                     if name.startswith("wal-")]
        assert wal_files == [wal_filename(2)]
        manifest = json.load(open(os.path.join(path, "MANIFEST.json")))
        assert manifest["epoch"] == 2

    def test_immutable_full_spans_are_not_rewritten(self, tmp_path):
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        # Two full partition spans plus a tail.
        data = random_walk_collection(80, 32, seed=62)
        session.database.partition_rows = 32
        session.relation("walks").insert_many(data)
        session.checkpoint()
        directory = os.path.join(path, "segments", "walks")
        full_span = [name for name in os.listdir(directory)
                     if name.startswith("seg-00000000-")]
        stamps = {name: os.path.getmtime(os.path.join(directory, name))
                  for name in full_span}
        session.relation("walks").insert_many(
            random_walk_collection(5, 32, seed=63))
        session.checkpoint()
        for name, stamp in stamps.items():
            assert os.path.getmtime(os.path.join(directory, name)) == stamp
        session.close()

    def test_dropped_relation_files_are_swept(self, tmp_path):
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        session.relation("walks").insert_many(
            random_walk_collection(8, 32, seed=64))
        session.checkpoint()
        assert os.listdir(os.path.join(path, "segments", "walks"))
        session.drop_relation("walks")
        session.checkpoint()
        assert not os.listdir(os.path.join(path, "segments", "walks"))
        session.close()


class _Killed(BaseException):
    """The process dying inside a write: nothing below may catch it."""


class TestATornSegmentIsRewritten:
    """A checkpoint killed while writing a segment's last file leaves that
    file torn under the segment's stem.  The next checkpoint must not trust
    it: it rewrites the segment before the manifest names it and the WAL
    that still holds the rows is retired."""

    @pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 0.99])
    def test_acknowledged_rows_survive_the_next_checkpoint(self, tmp_path, monkeypatch, share):
        path = str(tmp_path / "db")
        data = random_walk_collection(40, 32, seed=65)
        session = repro.connect(path=path, wal_sync="always")
        session.relation("walks").insert_many(data)
        expected_ids = _ids(session)
        expected = _answers(session, data[3])
        assert len(expected_ids) == 40

        def torn(target, message, relation):
            framed = codec.frame(message)
            with open(target, "wb") as handle:
                handle.write(framed[: int(len(framed) * share)])
            raise _Killed(target)

        with monkeypatch.context() as patch:
            patch.setattr(segments_module, "_write_framed", torn)
            with pytest.raises(_Killed, match="-rows.bin"):
                session.checkpoint()
        del session  # the process is gone: no close

        reopened = repro.connect(path=path)
        assert _ids(reopened) == expected_ids
        reopened.checkpoint()
        del reopened

        reopened = repro.connect(path=path)
        assert reopened.database.replayed_wal_records == 0
        assert _ids(reopened) == expected_ids
        assert _answers(reopened, data[3]) == expected
        reopened.close()


class TestADroppedSessionIsFreed:
    """A durable catalog is not a reference cycle: the last reference to a
    session going away frees its arrays there and then, not whenever the
    cycle collector next runs."""

    def test_without_the_cycle_collector(self, tmp_path):
        data = random_walk_collection(30, 32, seed=65)
        path = str(tmp_path / "db")
        gc.collect()
        gc.disable()
        try:
            session = repro.connect(path=path)
            session.relation("walks").insert_many(data).with_index(KIndex())
            session.checkpoint()
            _answers(session, data[0])
            session.relation("walks").insert_many(random_walk_collection(3, 32, seed=66))
            session.close()
            database = weakref.ref(session.database)
            del session
            assert database() is None
        finally:
            gc.enable()

    def test_a_relation_that_outlived_its_database_refuses_writes(self, tmp_path):
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        session.relation("walks").insert_many(random_walk_collection(4, 32, seed=67))
        relation = session.database.relation("walks")
        session.close()
        del session
        gc.collect()
        with pytest.raises(StorageError, match="outlived its durable database"):
            relation.extend(random_walk_collection(2, 32, seed=68))
        with pytest.raises(StorageError, match="outlived its durable database"):
            relation.insert(random_walk_collection(1, 32, seed=69)[0])
        assert len(relation) == 4


class TestWalTimeBound:
    """``batch`` mode's durability window is bounded in time, not only in
    record count: a lone acknowledged insert is flushed once it is
    ``batch_interval_ms`` old, instead of waiting for 31 siblings."""

    def _wal(self, tmp_path, clock, **kwargs):
        kwargs.setdefault("sync", "batch")
        kwargs.setdefault("batch_size", 32)
        kwargs.setdefault("batch_interval_ms", 50.0)
        return WriteAheadLog(str(tmp_path / "wal.log"), clock=clock,
                             start_timer=False, **kwargs)

    def test_young_record_is_not_flushed_early(self, tmp_path):
        clock = [0.0]
        wal = self._wal(tmp_path, lambda: clock[0])
        wal.append({"op": "x"})
        clock[0] = 0.049  # 49 ms: inside the window
        assert wal.maybe_flush() is False
        assert wal.interval_flushes == 0
        wal.close()

    def test_aged_record_is_flushed_by_the_time_bound(self, tmp_path):
        clock = [0.0]
        wal = self._wal(tmp_path, lambda: clock[0])
        wal.append({"op": "x"})
        clock[0] = 0.050  # exactly the bound
        assert wal.maybe_flush() is True
        assert wal.interval_flushes == 1
        # The record is on disk: replay of the live file sees it.
        assert WriteAheadLog.replay(wal.path) == [{"op": "x"}]
        assert wal.maybe_flush() is False  # nothing pending any more
        wal.close()

    def test_window_starts_at_the_oldest_pending_record(self, tmp_path):
        clock = [0.0]
        wal = self._wal(tmp_path, lambda: clock[0])
        wal.append({"op": "first"})
        clock[0] = 0.030
        wal.append({"op": "second"})  # must not reset the window
        clock[0] = 0.051  # first is 51 ms old, second only 21 ms
        assert wal.maybe_flush() is True
        assert WriteAheadLog.replay(wal.path) == [{"op": "first"},
                                                  {"op": "second"}]
        wal.close()

    def test_count_bound_still_flushes_first_when_hit(self, tmp_path):
        clock = [0.0]
        wal = self._wal(tmp_path, lambda: clock[0], batch_size=2)
        wal.append({"op": "a"})
        wal.append({"op": "b"})  # batch full: flushed by count at t=0
        assert wal.interval_flushes == 0
        clock[0] = 1.0
        assert wal.maybe_flush() is False
        wal.close()

    def test_always_mode_never_needs_the_timer(self, tmp_path):
        clock = [0.0]
        wal = self._wal(tmp_path, lambda: clock[0], sync="always")
        wal.append({"op": "x"})
        clock[0] = 10.0
        assert wal.maybe_flush() is False  # flushed at append already
        assert wal.interval_flushes == 0
        wal.close()

    def test_zero_interval_disables_the_time_bound(self, tmp_path):
        clock = [0.0]
        wal = self._wal(tmp_path, lambda: clock[0], batch_interval_ms=0.0)
        wal.append({"op": "x"})
        clock[0] = 100.0
        assert wal.maybe_flush() is False  # count-only batching
        wal.close()

    def test_background_timer_flushes_a_lone_insert(self, tmp_path):
        import time as _time
        wal = WriteAheadLog(str(tmp_path / "timer.log"), sync="batch",
                            batch_size=32, batch_interval_ms=20.0)
        wal.append({"op": "lone"})
        deadline = _time.monotonic() + 5.0
        while _time.monotonic() < deadline:
            if wal.interval_flushes >= 1:
                break
            _time.sleep(0.005)
        assert wal.interval_flushes >= 1
        assert WriteAheadLog.replay(wal.path) == [{"op": "lone"}]
        wal.close()

    def test_interval_knob_reaches_the_durable_engine(self, tmp_path):
        database = DurableDatabase(str(tmp_path / "db"),
                                   wal_batch_interval_ms=125.0)
        assert database.wal_batch_interval_ms == 125.0
        assert database._wal.batch_interval_ms == 125.0
        database.checkpoint()  # the next epoch's log keeps the knob
        assert database._wal.batch_interval_ms == 125.0
        database.close()
