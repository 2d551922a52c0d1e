"""Tests for the relational substrate (Relation, Database)."""

from __future__ import annotations

import pytest

from repro.core.database import Database, Relation, Row
from repro.core.errors import CatalogError
from repro.core.objects import GenericObject
from repro.index.metric import MetricIndex
from repro.index.scan import SequentialScan


def _objects(count: int):
    return [GenericObject([float(i)], name=f"o{i}") for i in range(count)]


def _index(size: int = 0) -> MetricIndex:
    """A real index holding ``size`` objects: the catalog admits a KIndex or
    a MetricIndex and nothing else."""
    index = MetricIndex(lambda x, y: abs(x - y))
    index.extend(range(size))
    return index


class TestRelation:
    def test_insert_and_iterate(self):
        relation = Relation("r", _objects(3))
        assert len(relation) == 3
        assert [obj.name for obj in relation] == ["o0", "o1", "o2"]

    def test_insert_with_attributes(self):
        relation = Relation("r")
        row = relation.insert(GenericObject([1.0], name="x"), {"source": "nyse"})
        assert row["source"] == "nyse"
        assert row.get("missing", "default") == "default"

    def test_duplicate_object_id_rejected(self):
        relation = Relation("r")
        obj = GenericObject([1.0], object_id=77)
        relation.insert(obj)
        with pytest.raises(CatalogError):
            relation.insert(GenericObject([2.0], object_id=77))

    def test_get_by_object_id(self):
        objects = _objects(3)
        relation = Relation("r", objects)
        assert relation.get(objects[1].object_id).obj is objects[1]
        assert objects[1].object_id in relation
        with pytest.raises(CatalogError):
            relation.get(-1)

    def test_select(self):
        relation = Relation("r", _objects(5))
        filtered = relation.select(lambda row: row.obj.feature_vector()[0] >= 3.0)
        assert len(filtered) == 2

    def test_rows_and_objects_views(self):
        relation = Relation("r", _objects(2))
        assert all(isinstance(row, Row) for row in relation.rows())
        assert len(relation.objects()) == 2

    def test_extend(self):
        relation = Relation("r")
        relation.extend(_objects(4))
        assert len(relation) == 4


class TestDatabase:
    def test_create_and_lookup(self):
        database = Database("test")
        relation = database.create_relation("prices", _objects(2))
        assert database.relation("prices") is relation
        assert "prices" in database
        assert database.relations() == ["prices"]

    def test_duplicate_relation_rejected(self):
        database = Database()
        database.create_relation("r")
        with pytest.raises(CatalogError):
            database.create_relation("r")

    def test_unknown_relation(self):
        with pytest.raises(CatalogError):
            Database().relation("missing")

    def test_register_and_get_index(self):
        database = Database()
        database.create_relation("r")
        marker = _index()
        database.register_index("r", marker)
        assert database.index("r") is marker
        assert database.has_index("r")
        assert not database.has_index("r", "secondary")
        assert database.indexes() == [("r", "default")]

    def test_index_requires_relation(self):
        with pytest.raises(CatalogError):
            Database().register_index("missing", _index())

    @pytest.mark.parametrize("candidate", [object(), [1, 2, 3], SequentialScan()])
    def test_register_index_refuses_a_non_index(self, candidate):
        database = Database()
        database.create_relation("r")
        before = database.state_token("r")
        with pytest.raises(CatalogError, match="KIndex or a MetricIndex"):
            database.register_index("r", candidate)
        assert not database.has_index("r")
        assert database.state_token("r") == before

    def test_missing_index(self):
        database = Database()
        database.create_relation("r")
        with pytest.raises(CatalogError):
            database.index("r")

    def test_drop_relation_removes_indexes(self):
        database = Database()
        database.create_relation("r")
        database.register_index("r", _index())
        database.drop_relation("r")
        assert "r" not in database
        assert database.indexes() == []
        with pytest.raises(CatalogError):
            database.drop_relation("r")

    def test_drop_index(self):
        database = Database()
        database.create_relation("r")
        database.register_index("r", _index())
        before = database.state_token("r")
        database.drop_index("r")
        assert not database.has_index("r")
        assert database.state_token("r") != before
        with pytest.raises(CatalogError):
            database.drop_index("r")

    def test_drop_index_keeps_siblings(self):
        database = Database()
        database.create_relation("r")
        database.register_index("r", _index(), index_name="a")
        database.register_index("r", _index(), index_name="b")
        database.drop_index("r", "a")
        assert not database.has_index("r", "a")
        assert database.has_index("r", "b")

    def test_drop_distance(self):
        from repro.core.database import DistanceProvider
        database = Database()
        database.create_relation("r")
        database.register_distance("r", DistanceProvider(lambda a, b: 0.0))
        before = database.state_token("r")
        database.drop_distance("r")
        assert not database.has_distance_provider("r")
        assert database.state_token("r") != before
        with pytest.raises(CatalogError):
            database.drop_distance("r")


class TestInsertDoesNotMutateCaller:
    """Regression: insert(row, attributes) used to update the caller's dict."""

    def test_callers_row_attributes_untouched(self):
        relation = Relation("r")
        caller_row = Row(GenericObject([1.0], name="x"), {"kept": 1})
        stored = relation.insert(caller_row, {"added": 2})
        assert caller_row.attributes == {"kept": 1}
        assert stored.attributes == {"kept": 1, "added": 2}
        assert stored is not caller_row

    def test_row_without_extra_attributes_is_stored_as_is(self):
        relation = Relation("r")
        caller_row = Row(GenericObject([1.0], name="x"), {"kept": 1})
        assert relation.insert(caller_row) is caller_row

    def test_callers_attribute_mapping_untouched(self):
        relation = Relation("r")
        attributes = {"source": "nyse"}
        stored = relation.insert(GenericObject([1.0], name="x"), attributes)
        stored.attributes["mutated"] = True
        assert attributes == {"source": "nyse"}


class TestBulkExtend:
    """Regression: extend used to bump version once per row."""

    def test_extend_bumps_version_once(self):
        relation = Relation("r")
        before = relation.version
        relation.extend(_objects(10))
        assert relation.version == before + 1
        assert len(relation) == 10

    def test_empty_extend_does_not_bump(self):
        relation = Relation("r", _objects(2))
        before = relation.version
        relation.extend([])
        assert relation.version == before

    def test_extend_is_atomic_on_duplicates(self):
        relation = Relation("r")
        relation.insert(GenericObject([0.0], object_id=5))
        before = relation.version
        batch = [GenericObject([1.0], object_id=6),
                 GenericObject([2.0], object_id=5)]  # collides with stored row
        with pytest.raises(CatalogError):
            relation.extend(batch)
        assert len(relation) == 1
        assert relation.version == before

    def test_extend_rejects_duplicates_within_the_batch(self):
        relation = Relation("r")
        batch = [GenericObject([1.0], object_id=9),
                 GenericObject([2.0], object_id=9)]
        with pytest.raises(CatalogError):
            relation.extend(batch)
        assert len(relation) == 0

    def test_insert_still_bumps_per_row(self):
        relation = Relation("r")
        relation.insert(GenericObject([1.0]))
        relation.insert(GenericObject([2.0]))
        assert relation.version == 2


class TestStateTokenScoping:
    """state_token only enumerates indexes registered on the asked relation."""

    def test_token_lists_only_own_indexes(self):
        database = Database()
        database.create_relation("a", _objects(2))
        database.create_relation("b")
        database.register_index("a", _index(3), "primary")
        database.register_index("b", _index(1))
        _, _, index_sizes, _ = database.state_token("a")
        assert index_sizes == (("primary", 3),)

    def test_token_changes_on_own_index_growth(self):
        database = Database()
        database.create_relation("a", _objects(2))
        index = _index(1)
        database.register_index("a", index)
        before = database.state_token("a")
        index.insert(2)
        assert database.state_token("a") != before

    def test_token_order_independent_of_registration_order(self):
        first = Database()
        first.create_relation("a")
        first.register_index("a", _index(1), "x")
        first.register_index("a", _index(2), "y")
        second = Database()
        second.create_relation("a")
        second.register_index("a", _index(2), "y")
        second.register_index("a", _index(1), "x")
        assert first.state_token("a")[2] == second.state_token("a")[2]

    def test_indexes_on_lists_one_relations_indexes(self):
        database = Database()
        database.create_relation("a")
        database.create_relation("b")
        primary, other = _index(), _index()
        database.register_index("a", primary, "primary")
        database.register_index("b", other)
        assert database.indexes_on("a") == {"primary": primary}
        assert database.indexes_on("b") == {"default": other}
        assert database.indexes_on("missing") == {}
