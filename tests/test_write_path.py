"""The catalog's one write path: ``Database.insert_rows``.

A batch enters a relation in one order — validate, extend every registered
index, commit (where a durable catalog logs), refresh the statistics — and
every catalog write ends by refreshing the relation's statistics.  The
handle loops this path replaced are kept below as the reference: the same
batches run through them, through ``insert_rows`` behind the session's
handle, and back out of a durable reopen by WAL replay, and the three
catalogs must agree bit for bit — rows, ids, attributes and versions, index
stores, points and trees, the log's bytes, the state token.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

import repro
from repro import KIndex, random_walk_collection
from repro.bench.workloads import WorkloadSpec, generate_workload
from repro.core.advisor import ADVISOR_PROVIDER_NAME, series_exact_distance
from repro.core.database import Database, DistanceProvider, Relation, Row
from repro.core.errors import CatalogError
from repro.core.stats import statistics_basis
from repro.index import kindex as kindex_module
from repro.index.metric import MetricIndex
from repro.storage.durable.wal import WriteAheadLog


# ---------------------------------------------------------------------------
# the reference: the handle bodies insert_rows replaced
# ---------------------------------------------------------------------------
def reference_insert(database, name, row, attributes=None):
    """``RelationHandle.insert`` before the one write path."""
    relation = database.relation(name)
    prepared = relation._prepare_batch([Relation._coerce_row(row, attributes)])
    for index in list(database.indexes_on(name).values()):
        index.insert(prepared[0].obj)
    relation._commit_batch(prepared)
    database.refresh_statistics(name)
    return prepared[0]


def reference_insert_many(database, name, rows):
    """``RelationHandle.insert_many`` before the one write path."""
    relation = database.relation(name)
    prepared = relation._prepare_batch(rows)
    if prepared:
        objects = [row.obj for row in prepared]
        for index in list(database.indexes_on(name).values()):
            index.extend(objects)
        relation._commit_batch(prepared)
        database.refresh_statistics(name)
    return prepared


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
@pytest.fixture()
def data():
    return random_walk_collection(44, 32, seed=41)


@pytest.fixture(autouse=True)
def small_seals(monkeypatch):
    """Seal the k-index's tail every few rows, so the batches below move
    its tree (and the statistics' basis) more than once."""
    monkeypatch.setattr(kindex_module, "SEAL_MIN_ROWS", 4)


def _writes(data):
    """The batches every route runs, in order: ``("one", row, attributes)``
    or ``("many", rows)``.  The fifth and sixth hold an id already stored
    and an id twice: the catalog refuses each whole."""
    return [
        ("one", data[12], {"tag": "a"}),
        ("one", Row(data[13], {"tag": "b"}), {"extra": 1}),
        ("many", data[14:30]),
        ("many", []),
        ("many", [data[30], data[5]]),
        ("many", [data[31], data[31]]),
        ("many", [Row(obj, {"i": i}) for i, obj in enumerate(data[31:42])]),
        ("one", data[42], None),
    ]


def _open(path, data, *, through_handle):
    """A durable catalog holding ``data[:12]``, the advisor's provider, a
    k-index and a metric index, analyzed — loaded through the route."""
    session = repro.connect(path=path)
    handle = session.relation("walks")
    if through_handle:
        handle.insert_many(data[:12])
    else:
        reference_insert_many(session.database, "walks", data[:12])
    provider = DistanceProvider(distance=series_exact_distance(), name=ADVISOR_PROVIDER_NAME)
    handle.with_distance(provider).with_index(KIndex())
    handle.with_index(MetricIndex(provider.distance), "metric")
    session.analyze("walks")
    return session


def _run(session, data, *, through_handle):
    """Every write of :func:`_writes`; returns what each one returned
    (the stored rows' ids, or ``None`` for a refused batch)."""
    database = session.database
    handle = session.relation("walks")
    returned = []
    for write in _writes(data):
        try:
            if write[0] == "one":
                if through_handle:
                    row = handle.insert(write[1], write[2])
                else:
                    row = reference_insert(database, "walks", write[1], write[2])
                returned.append([row.obj.object_id])
            elif through_handle:
                handle.insert_many(write[1])
                returned.append(len(write[1]))
            else:
                returned.append(len(reference_insert_many(database, "walks", write[1])))
        except CatalogError:
            returned.append(None)
    return returned


def _state(database):
    """Everything a write could move, as comparable Python values."""
    relation = database.relation("walks")
    kindex = database.index("walks")
    metric = database.index("walks", "metric")
    store = kindex.store
    return {
        "rows": [(row.obj.object_id, row.attributes) for row in relation.rows()],
        "version": relation.version,
        "kindex": (
            [series.object_id for series in store.series_list()],
            store.coefficients.tobytes(),
            store.lengths.tobytes(),
            store.means.tobytes(),
            store.stds.tobytes(),
            kindex.points(np.arange(len(kindex))).tobytes(),
            len(kindex.tree),
        ),
        "metric": [obj.object_id for obj in metric._objects],
        "token": database.state_token("walks"),
    }


def _log_path(path):
    (log,) = glob.glob(os.path.join(path, "wal-*.log"))
    return log


def _wal_bytes(path):
    with open(_log_path(path), "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# three routes, one result
# ---------------------------------------------------------------------------
class TestThreeRoutesOneCatalog:
    def test_the_handle_equals_the_reference_loop(self, tmp_path, data):
        reference = _open(str(tmp_path / "reference"), data, through_handle=False)
        written = _open(str(tmp_path / "written"), data, through_handle=True)
        returned = _run(reference, data, through_handle=False)
        assert _run(written, data, through_handle=True) == returned
        # Two refused batches (an id already stored; an id twice in a batch).
        assert returned.count(None) == 2
        assert _state(written.database) == _state(reference.database)
        stats = written.database.statistics_for("walks", collect=False)
        expected = reference.database.statistics_for("walks", collect=False)
        assert (stats.basis, stats.epoch) == (expected.basis, expected.epoch)
        assert stats.basis == statistics_basis(written.database, "walks")
        reference.close()
        written.close()
        assert _wal_bytes(str(tmp_path / "written")) == _wal_bytes(str(tmp_path / "reference"))

    def test_replay_equals_the_live_catalog(self, tmp_path, data):
        path = str(tmp_path / "db")
        live = _open(path, data, through_handle=True)
        _run(live, data, through_handle=True)
        expected = _state(live.database)
        live.close()
        logged = _wal_bytes(path)

        reopened = repro.connect(path=path)
        database = reopened.database
        assert database.recovered and database.replayed_wal_records > 0
        replayed = _state(database)
        # A reopened catalog's token sorts after every token handed out
        # before: its catalog version is one past the live one's.
        assert replayed.pop("token") == (expected["token"][0] + 1, *expected["token"][1:3], 0)
        del expected["token"]
        assert replayed == expected
        reopened.close()
        # Replay logs nothing: the log is the live catalog's, byte for byte.
        assert _wal_bytes(path) == logged

    def test_each_committed_batch_is_one_log_record(self, tmp_path, data):
        """Rows are logged in one place: a one-row insert, by the handle or
        by hand on the relation, is one ``insert`` record of one row."""
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        handle = session.relation("walks")
        handle.insert(data[0])
        handle.relation.insert(data[1], {"by": "hand"})
        handle.insert_many(data[2:5])
        session.close()
        records = WriteAheadLog.replay(_log_path(path))
        assert [(record["op"], len(record.get("rows", ()))) for record in records] == [
            ("create_relation", 0),
            ("insert", 1),
            ("insert", 1),
            ("insert", 3),
        ]


# ---------------------------------------------------------------------------
# every catalog write refreshes its own statistics
# ---------------------------------------------------------------------------
def _analyzed(data, *, provider, index):
    """An in-memory catalog over ``data`` with the given registrations,
    then analyzed (epoch 1)."""
    database = Database()
    database.create_relation("walks", data)
    if provider:
        database.register_distance(
            "walks",
            DistanceProvider(distance=series_exact_distance(), name=ADVISOR_PROVIDER_NAME),
        )
    if index:
        database.register_index("walks", KIndex.bulk_load(data, KIndex().extractor))
    database.analyze("walks")
    return database


DDL = {
    "register_index": (
        dict(provider=False, index=False),
        lambda database, data: database.register_index(
            "walks", KIndex.bulk_load(data, KIndex().extractor)
        ),
    ),
    "drop_index": (
        dict(provider=False, index=True),
        lambda database, data: database.drop_index("walks"),
    ),
    "register_distance": (
        dict(provider=False, index=False),
        lambda database, data: database.register_distance(
            "walks",
            DistanceProvider(distance=series_exact_distance(), name=ADVISOR_PROVIDER_NAME),
        ),
    ),
    "drop_distance": (
        dict(provider=True, index=False),
        lambda database, data: database.drop_distance("walks"),
    ),
}


class TestEveryCatalogWriteRefreshesItsStatistics:
    @pytest.mark.parametrize("write", sorted(DDL))
    def test_ddl_on_an_analyzed_relation(self, data, write):
        setup, apply = DDL[write]
        database = _analyzed(data, **setup)
        before = database.statistics_for("walks", collect=False).basis
        apply(database, data)
        stats = database.statistics_for("walks", collect=False)
        assert stats.basis != before
        assert stats.basis == statistics_basis(database, "walks")
        assert stats.epoch == 1

    def test_autotune(self):
        spec = WorkloadSpec(
            name="selective",
            num_series=150,
            length=32,
            data_seed=3,
            seed=5,
            num_queries=12,
            mix={"range": 1.0},
            selectivity=(0.005, 0.02),
        )
        workload = generate_workload(spec)
        session = repro.connect()
        session.relation(spec.relation, workload.data())
        session.analyze(spec.relation)
        recommendation = session.autotune(spec.relation, workload)
        assert recommendation.kind != "none"
        stats = session.database.statistics_for(spec.relation, collect=False)
        assert stats.basis == statistics_basis(session.database, spec.relation)
        assert stats.epoch == 1

    def test_a_write_below_the_catalog_is_the_callers(self, data):
        """``relation.insert`` by hand stays below the write path: no index
        hears of the row, and the statistics wait for the next read."""
        database = _analyzed(data[:10], provider=False, index=True)
        stored = database.statistics_for("walks", collect=False)
        database.relation("walks").insert(data[10])
        assert len(database.index("walks")) == 10
        assert database.statistics_for("walks", collect=False) is stored
