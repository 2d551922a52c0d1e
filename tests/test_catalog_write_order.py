"""One catalog write order: refuse, apply, bump, log, refresh — written once.

``Database`` runs every catalog write through one order (``Database._write``
and ``Database.catalog_write``); a durable catalog only supplies the journal
the records go to, so it overrides none of the mutations and swaps no
relation's class.  Held here:

* the structure — nothing outside ``core/database.py`` bumps the catalog
  version or refreshes statistics, and ``DurableDatabase`` defines none of
  the six mutations;
* the log — the record stream of every kind of catalog write, written out
  below as the reference, byte for byte;
* the refresh — a composed write (``autotune``) collects statistics once,
  at its end, and a collection that raises cannot separate memory from log;
* the relation's journal reference — a relation dropped from its catalog
  logs nothing more.
"""

from __future__ import annotations

import ast
import glob
import os
from pathlib import Path

import pytest

import repro
from repro import KIndex, Row, SeriesFeatureExtractor, random_walk_collection
from repro.bench.workloads import WorkloadSpec, generate_workload
from repro.core import stats as stats_module
from repro.core.advisor import ADVISOR_PROVIDER_NAME, series_exact_distance
from repro.core.database import DistanceProvider
from repro.core.errors import StorageError
from repro.index.metric import MetricIndex
from repro.storage import codec
from repro.storage import durable as durable_package
from repro.storage.durable import DurableDatabase, WriteAheadLog
from repro.storage.durable.segments import encode_row

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MUTATIONS = (
    "create_relation",
    "drop_relation",
    "register_index",
    "drop_index",
    "register_distance",
    "drop_distance",
)
#: Attributes only ``core/database.py`` assigns.
CATALOG_OWNED = ("_catalog_version", "__class__")


def _log_path(path):
    (log,) = glob.glob(os.path.join(path, "wal-*.log"))
    return log


def _provider():
    return DistanceProvider(distance=series_exact_distance(), name=ADVISOR_PROVIDER_NAME)


@pytest.fixture()
def collected(monkeypatch):
    """Count ``collect_statistics`` calls (the catalog imports it per call)."""
    calls = [0]
    original = stats_module.collect_statistics

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(stats_module, "collect_statistics", counting)
    return calls


# ---------------------------------------------------------------------------
# the structure
# ---------------------------------------------------------------------------
class TestTheOrderIsWrittenOnce:
    def test_the_durable_catalog_overrides_no_mutation(self):
        assert [name for name in MUTATIONS if name in vars(DurableDatabase)] == []

    def test_no_durable_relation_class_is_exported(self):
        assert "DurableRelation" not in durable_package.__all__

    def test_only_the_catalog_bumps_its_version_or_refreshes(self):
        """No module outside ``core/database.py`` assigns ``_catalog_version``,
        calls ``refresh_statistics`` or assigns an object's ``__class__``."""
        found = []
        for path in sorted(SOURCE.rglob("*.py")):
            if path == SOURCE / "core" / "database.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "refresh_statistics":
                        found.append((path.name, node.lineno, "refresh_statistics"))
                    continue
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr in CATALOG_OWNED:
                        found.append((path.name, node.lineno, target.attr))
        assert found == []


# ---------------------------------------------------------------------------
# the log
# ---------------------------------------------------------------------------
class TestTheRecordStream:
    def test_every_catalog_write_logs_the_same_records(self, tmp_path):
        """The records every kind of catalog write appends, in order — the
        stream the per-method overrides wrote before the one order, kept as
        the reference; the log's bytes are exactly their frames."""
        data = random_walk_collection(9, 16, seed=3)
        first = Row(data[0], {"tag": "a"})
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        database = session.database
        database.create_relation("walks", [first, *data[1:6]])
        session.relation("walks").insert_many(data[6:9])
        provider = _provider()
        database.register_distance("walks", provider)
        database.register_index("walks", KIndex.bulk_load(data, SeriesFeatureExtractor(2)))
        metric = MetricIndex(provider.distance)
        metric.extend(data)
        database.register_index("walks", metric, "metric")
        database.drop_index("walks", "metric")
        database.drop_distance("walks")
        database.drop_relation("walks")
        session.close()

        expected = [
            {
                "op": "create_relation",
                "name": "walks",
                "rows": [encode_row(first)] + [encode_row(Row(obj)) for obj in data[1:6]],
            },
            {
                "op": "insert",
                "relation": "walks",
                "rows": [encode_row(Row(obj)) for obj in data[6:9]],
            },
            {"op": "register_distance", "relation": "walks", "factory": "advisor-exact-series"},
            {
                "op": "register_index",
                "relation": "walks",
                "index_name": "default",
                "spec": {
                    "kind": "kindex",
                    "extractor": {
                        "num_coefficients": 2,
                        "representation": "polar",
                        "include_stats": True,
                    },
                    "max_entries": 39,
                },
            },
            {
                "op": "register_index",
                "relation": "walks",
                "index_name": "metric",
                "spec": {"kind": "metric", "leaf_capacity": 8},
            },
            {"op": "drop_index", "relation": "walks", "index_name": "metric"},
            {"op": "drop_distance", "relation": "walks"},
            {"op": "drop_relation", "name": "walks"},
        ]
        records = WriteAheadLog.replay(_log_path(path))
        assert [record["op"] for record in records] == [record["op"] for record in expected]
        with open(_log_path(path), "rb") as handle:
            assert handle.read() == b"".join(codec.frame(record) for record in expected)

    def test_a_dropped_relation_logs_nothing_more(self, tmp_path):
        """A write to a relation object the catalog dropped stays in that
        object: it is neither refused nor logged under the name a newer
        relation now holds, so the reopened catalog is the live one.  Nor
        does the newer relation scan the dropped one's mapped segments."""
        path = str(tmp_path / "db")
        session = repro.connect(path=path)
        dropped = session.relation("walks").insert_many(random_walk_collection(4, 16, seed=5))
        session.checkpoint()
        assert session.database.scan_backend("walks") is not None
        session.drop_relation("walks")
        session.relation("walks").insert_many(random_walk_collection(2, 16, seed=6))
        assert session.database.scan_backend("walks") is None
        dropped.relation.insert(random_walk_collection(1, 16, seed=7)[0])
        assert len(dropped.relation) == 5
        session.close()
        reopened = repro.connect(path=path)
        assert len(reopened.database.relation("walks")) == 2
        reopened.close()


# ---------------------------------------------------------------------------
# the refresh
# ---------------------------------------------------------------------------
class TestOneRefreshPerWrite:
    def test_autotune_collects_once_per_catalog_write(self, collected):
        """``autotune`` is two catalog writes — the reset, then the install
        (reset, provider, index) — so it collects at most twice, and only
        once when the reset finds nothing to drop."""
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
        counts = []
        for _ in range(2):
            collected[0] = 0
            assert session.autotune(spec.relation, workload).kind == "metric"
            counts.append(collected[0])
        assert counts == [1, 2]

    def test_a_raising_collection_leaves_memory_and_log_agreeing(self, tmp_path, monkeypatch):
        """The journal takes a write's record before its statistics are
        refreshed, so a collection that raises inside a durable registration
        leaves a registration that is both held and logged."""
        original = stats_module.collect_statistics
        failures = [1]

        def failing_once(*args, **kwargs):
            if failures[0]:
                failures[0] -= 1
                raise RuntimeError("collection failed")
            return original(*args, **kwargs)

        path = str(tmp_path / "db")
        database = DurableDatabase(path)
        data = random_walk_collection(40, 32, seed=8)
        database.create_relation("walks", data)
        database.analyze("walks")
        monkeypatch.setattr(stats_module, "collect_statistics", failing_once)
        with pytest.raises(RuntimeError, match="collection failed"):
            database.register_index("walks", KIndex.bulk_load(data, SeriesFeatureExtractor(2)))
        database.register_distance("walks", _provider())

        def registrations(catalog):
            return catalog.indexes(), catalog.distance_provider("walks").name

        live = registrations(database)
        assert live == ([("walks", "default")], ADVISOR_PROVIDER_NAME)
        database.close()
        reopened = DurableDatabase(path)
        assert registrations(reopened) == live
        reopened.close()


# ---------------------------------------------------------------------------
# the refusal
# ---------------------------------------------------------------------------
class TestARefusedWriteAppliesNothing:
    """A durable catalog's journal frames a write's record before the write
    applies, so a write the log could not take — a row attribute the codec
    cannot encode, a log already closed — is refused with the relation, its
    k-index and the reopened directory all at the row count before it."""

    @pytest.mark.parametrize("how", ["set-valued-attribute", "after-close"])
    def test_a_batch_is_refused_before_any_index_extends(self, tmp_path, how):
        path = str(tmp_path / "db")
        data = random_walk_collection(5, 16, seed=9)
        database = DurableDatabase(path)
        database.create_relation("walks", data[:4])
        database.register_index("walks", KIndex.bulk_load(data[:4], SeriesFeatureExtractor(2)))
        index = database.indexes_on("walks")["default"]
        if how == "set-valued-attribute":
            batch, message = [Row(data[4], {"tags": {1, 2}})], "not encodable"
        else:
            database.close()
            batch, message = [data[4]], "is closed"
        with pytest.raises(StorageError, match=message):
            database.insert_rows("walks", batch)
        with pytest.raises(StorageError, match=message):
            database.relation("walks").insert(batch[0])
        assert (len(database.relation("walks")), len(index)) == (4, 4)
        database.close()
        reopened = DurableDatabase(path)
        assert len(reopened.relation("walks")) == 4
        assert len(reopened.indexes_on("walks")["default"]) == 4
        reopened.close()

    def test_a_registration_after_close_is_refused_before_it_applies(self, tmp_path):
        path = str(tmp_path / "db")
        database = DurableDatabase(path)
        database.create_relation("walks", random_walk_collection(4, 16, seed=9))
        database.close()
        with pytest.raises(StorageError, match="is closed"):
            database.register_index("walks", KIndex(SeriesFeatureExtractor(2)))
        with pytest.raises(StorageError, match="is closed"):
            database.create_relation("pairs")
        assert (database.indexes(), database.relations()) == ([], ["walks"])
