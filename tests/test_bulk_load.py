"""Tests for the Sort-Tile-Recursive bulk loader and the batched tree probes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import IndexError_
from repro.index.geometry import Rect, mindist, mindist_batch, rects_overlap
from repro.index.kindex import SEAL_MIN_ROWS, SEAL_SHARE, KIndex
from repro.index.partitioned import PartitionedIndex
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import random_walk_collection
from repro.timeseries.series import TimeSeries


def _check_invariants(tree: RTree) -> None:
    """Structural invariants every (bulk-loaded) R-tree must satisfy."""
    seen_records = 0
    for node_id, node in tree._nodes.items():
        if node_id != tree.root_id:
            assert tree.min_entries <= len(node.entries) <= tree.max_entries, (
                f"node {node_id} has {len(node.entries)} entries outside "
                f"[{tree.min_entries}, {tree.max_entries}]")
        else:
            assert len(node.entries) <= tree.max_entries
        if node.is_leaf:
            seen_records += len(node.entries)
        else:
            for entry in node.entries:
                child = tree.node(entry.child_id)
                assert child.parent_id == node.node_id
                assert entry.rect.contains(child.mbr()), (
                    f"entry rectangle of node {node_id} does not contain child MBR")
    assert seen_records == len(tree)


def _shape(tree: RTree) -> list:
    """The node graph as nested record lists (leaf entry order included)."""
    def walk(node_id):
        node = tree.node(node_id)
        return [entry.record if node.is_leaf else walk(entry.child_id)
                for entry in node.entries]
    return walk(tree.root_id)


def _insert_built(cls, points: np.ndarray, max_entries: int = 8) -> RTree:
    tree = cls(dimension=points.shape[1], max_entries=max_entries)
    for record, point in enumerate(points):
        tree.insert(point, record)
    return tree


class TestSTRBulkLoad:
    @pytest.mark.parametrize("cls", [RTree, RStarTree])
    def test_invariants_and_size(self, cls):
        rng = np.random.default_rng(41)
        points = rng.uniform(0, 100, size=(500, 3))
        tree = cls.bulk_load(points, list(range(500)), max_entries=8)
        assert len(tree) == 500
        _check_invariants(tree)

    @pytest.mark.parametrize("cls", [RTree, RStarTree])
    def test_same_answers_as_insert_built(self, cls):
        rng = np.random.default_rng(42)
        points = rng.uniform(0, 100, size=(400, 4))
        loaded = cls.bulk_load(points, list(range(400)), max_entries=8)
        inserted = _insert_built(cls, points)
        for center in rng.uniform(0, 100, size=(25, 4)):
            window = Rect(center - 6, center + 6)
            assert sorted(loaded.search(window)) == sorted(inserted.search(window))

    def test_no_taller_than_insert_built(self):
        rng = np.random.default_rng(43)
        points = rng.uniform(0, 100, size=(800, 2))
        loaded = RTree.bulk_load(points, list(range(800)), max_entries=8)
        inserted = _insert_built(RTree, points)
        assert loaded.height() <= inserted.height()

    def test_no_more_node_accesses_than_insert_built(self):
        rng = np.random.default_rng(44)
        points = rng.uniform(0, 100, size=(1000, 4))
        loaded = RTree.bulk_load(points, list(range(1000)), max_entries=8)
        inserted = _insert_built(RTree, points)
        windows = [Rect(center - 4, center + 4)
                   for center in rng.uniform(0, 100, size=(30, 4))]
        loaded.reset_stats()
        inserted.reset_stats()
        for window in windows:
            loaded.search(window)
            inserted.search(window)
        assert loaded.access_stats.total <= inserted.access_stats.total

    def test_nearest_neighbors_agree(self):
        rng = np.random.default_rng(45)
        points = rng.uniform(0, 100, size=(300, 3))
        loaded = RTree.bulk_load(points, list(range(300)), max_entries=8)
        inserted = _insert_built(RTree, points)
        for query in rng.uniform(0, 100, size=(10, 3)):
            got = [record for _, record in loaded.nearest_neighbors(query, 5)]
            expected = [record for _, record in inserted.nearest_neighbors(query, 5)]
            assert got == expected

    def test_small_and_empty_loads(self):
        empty = RTree.bulk_load(np.empty((0, 2)), [])
        assert len(empty) == 0
        assert empty.search(Rect([0.0, 0.0], [1.0, 1.0])) == []
        tiny = RTree.bulk_load(np.array([[1.0, 1.0], [2.0, 2.0]]), ["a", "b"])
        assert len(tiny) == 2
        assert tiny.height() == 1
        assert sorted(tiny.search(Rect([0.0, 0.0], [3.0, 3.0]))) == ["a", "b"]

    def test_validation_errors(self):
        points = np.random.default_rng(46).uniform(0, 1, size=(10, 2))
        with pytest.raises(IndexError_):
            RTree.bulk_load(points, list(range(5)))
        with pytest.raises(IndexError_):
            RTree.bulk_load(points.reshape(-1), list(range(20)))
        tree = RTree(dimension=2)
        tree.insert([0.5, 0.5], "x")
        with pytest.raises(IndexError_):
            tree.bulk_load_points(points, list(range(10)))

    def test_insert_after_bulk_load(self):
        rng = np.random.default_rng(47)
        points = rng.uniform(0, 100, size=(200, 2))
        tree = RTree.bulk_load(points, list(range(200)), max_entries=8)
        tree.insert([50.0, 50.0], "late")
        assert len(tree) == 201
        assert "late" in tree.search(Rect([49.0, 49.0], [51.0, 51.0]))
        _check_invariants(tree)


class TestKIndexBulkLoad:
    def test_same_query_answers_as_insert_built(self, walk_collection, polar_extractor):
        inserted = KIndex.build_by_insertion(walk_collection, polar_extractor)
        loaded = KIndex.bulk_load(walk_collection, polar_extractor)
        assert inserted.tail_rows == loaded.tail_rows == 0
        for query in walk_collection[:10]:
            a = inserted.range_query(query, 3.0)
            b = loaded.range_query(query, 3.0)
            assert sorted((s.object_id, round(d, 9)) for s, d in a.answers) == \
                sorted((s.object_id, round(d, 9)) for s, d in b.answers)
            nn_a = inserted.nearest_neighbors(query, 3)
            nn_b = loaded.nearest_neighbors(query, 3)
            assert [s.object_id for s, _ in nn_a.answers] == \
                [s.object_id for s, _ in nn_b.answers]

    def test_tree_invariants(self, walk_collection, polar_extractor):
        loaded = KIndex.bulk_load(walk_collection, polar_extractor)
        _check_invariants(loaded.tree)

    def test_no_more_accesses_than_insert_built(self):
        data = random_walk_collection(600, 64, seed=23)
        extractor = SeriesFeatureExtractor(num_coefficients=2,
                                           representation="polar")
        inserted = KIndex.build_by_insertion(data, extractor)
        loaded = KIndex.bulk_load(data, extractor)
        queries = data[:20]
        inserted_accesses = sum(
            inserted.range_query(q, 4.0).statistics.node_accesses for q in queries)
        loaded_accesses = sum(
            loaded.range_query(q, 4.0).statistics.node_accesses for q in queries)
        assert loaded_accesses <= inserted_accesses

    def test_empty_collection(self, polar_extractor):
        loaded = KIndex.bulk_load([], polar_extractor)
        assert len(loaded) == 0

    def test_insert_built_tree_is_the_dynamic_tree(self, walk_collection,
                                                   polar_extractor):
        """``build_by_insertion`` grows exactly the tree one ``RTree.insert``
        per point grows — the evaluation's figures depend on it."""
        for tree_kind, cls in (("rstar", RStarTree), ("rtree-linear", RTree)):
            index = KIndex.build_by_insertion(walk_collection, polar_extractor,
                                              tree_kind=tree_kind, max_entries=6)
            points = polar_extractor.extract_many(walk_collection)[0]
            tree = cls(points.shape[1], max_entries=6,
                       **({} if cls is RStarTree else {"split": "linear"}))
            for record, point in enumerate(points):
                tree.insert(point, record)
            assert type(index.tree) is cls and len(index.tree) == len(walk_collection)
            _check_invariants(index.tree)
            assert _shape(index.tree) == _shape(tree)
        with pytest.raises(IndexError_, match="no single tree"):
            PartitionedIndex.build_by_insertion(walk_collection, polar_extractor)

    def test_seals_pack_a_bounded_number_of_rows(self, monkeypatch):
        """Counted, not timed: over 10 000 rows appended 16 at a time the STR
        loader is handed at most ``SEAL_SHARE + 2`` rows per appended row
        (12.7 here; a seal at ``n`` rows packs ``n`` and the next comes
        ``n // SEAL_SHARE`` rows later, a geometric series), and the tail
        never outgrows its bound."""
        rows = 10_000
        rng = np.random.default_rng(31)
        data = [TimeSeries(values) for values in rng.normal(size=(rows, 8)).cumsum(axis=1)]
        packed = []
        loader = RTree.bulk_load_points

        def counting(tree, points, records):
            packed.append(len(points))
            return loader(tree, points, records)

        monkeypatch.setattr(RTree, "bulk_load_points", counting)
        index = KIndex(SeriesFeatureExtractor(2))
        for start in range(0, rows, 16):
            index.extend(data[start:start + 16])
            assert index.tail_rows <= max(SEAL_MIN_ROWS, len(index.tree) // SEAL_SHARE)
        assert len(index) == rows and packed == sorted(packed)
        assert sum(packed) <= (SEAL_SHARE + 2) * rows
        # The floor dominates while the tree is small, the share afterwards.
        assert len(packed) < rows / SEAL_MIN_ROWS


class TestBatchedProbes:
    def test_search_many_matches_single_searches(self):
        rng = np.random.default_rng(48)
        points = rng.uniform(0, 100, size=(500, 3))
        tree = RTree.bulk_load(points, list(range(500)), max_entries=8)
        windows = [Rect(center - 5, center + 5)
                   for center in rng.uniform(0, 100, size=(12, 3))]
        batched = tree.search_many(windows)
        for window, records in zip(windows, batched):
            assert sorted(records) == sorted(tree.search(window))

    def test_search_many_shares_node_accesses(self):
        rng = np.random.default_rng(49)
        points = rng.uniform(0, 100, size=(500, 2))
        tree = RTree.bulk_load(points, list(range(500)), max_entries=8)
        windows = [Rect([10.0, 10.0], [30.0, 30.0])] * 8
        tree.reset_stats()
        for window in windows:
            tree.search(window)
        single = tree.access_stats.total
        tree.reset_stats()
        tree.search_many(windows)
        assert tree.access_stats.total * 2 <= single

    def test_range_query_batch_matches_single(self, loaded_index, walk_collection):
        queries = walk_collection[:8]
        epsilons = [2.0, 3.0, 4.0, 5.0, 2.5, 3.5, 4.5, 5.5]
        batched = loaded_index.range_query_batch(queries, epsilons)
        for query, epsilon, result in zip(queries, epsilons, batched):
            single = loaded_index.range_query(query, epsilon)
            assert sorted((s.object_id, round(d, 9)) for s, d in result.answers) == \
                sorted((s.object_id, round(d, 9)) for s, d in single.answers)

    def test_range_query_batch_with_transformation(self, loaded_index,
                                                   walk_collection):
        from repro.timeseries.transforms import moving_average_spectral
        transformation = moving_average_spectral(64, 8)
        queries = walk_collection[:4]
        batched = loaded_index.range_query_batch(queries, 3.0,
                                                 transformation=transformation)
        for query, result in zip(queries, batched):
            single = loaded_index.range_query(query, 3.0,
                                              transformation=transformation)
            assert sorted((s.object_id, round(d, 9)) for s, d in result.answers) == \
                sorted((s.object_id, round(d, 9)) for s, d in single.answers)

    def test_nearest_neighbors_batch_matches_single(self, loaded_index,
                                                    walk_collection):
        queries = walk_collection[:5]
        batched = loaded_index.nearest_neighbors_batch(queries, 4)
        for query, result in zip(queries, batched):
            single = loaded_index.nearest_neighbors(query, 4)
            assert [s.object_id for s, _ in result.answers] == \
                [s.object_id for s, _ in single.answers]


class TestBatchKernels:
    def test_mindist_batch_matches_scalar(self):
        rng = np.random.default_rng(50)
        lows = rng.uniform(-10, 10, size=(40, 3))
        highs = lows + rng.uniform(0, 5, size=(40, 3))
        point = rng.uniform(-12, 12, size=3)
        batched = mindist_batch(point, lows, highs)
        for i in range(40):
            assert batched[i] == pytest.approx(mindist(point, Rect(lows[i], highs[i])))

    def test_rects_overlap_matches_intersects(self):
        rng = np.random.default_rng(51)
        lows = rng.uniform(-10, 10, size=(30, 3))
        highs = lows + rng.uniform(0, 6, size=(30, 3))
        window_lows = rng.uniform(-10, 10, size=(7, 3))
        window_highs = window_lows + rng.uniform(0, 6, size=(7, 3))
        matrix = rects_overlap(lows[:, None], highs[:, None],
                               window_lows[None], window_highs[None])
        for i in range(30):
            rect = Rect(lows[i], highs[i])
            for j in range(7):
                window = Rect(window_lows[j], window_highs[j])
                assert matrix[i, j] == rect.intersects(window)

    def test_rects_overlap_periodic_matches_angle_intervals(self):
        from repro.core.spaces import PolarSpace
        rng = np.random.default_rng(52)
        lows = rng.uniform(-np.pi, np.pi, size=(50, 1))
        highs = lows + rng.uniform(0, 2 * np.pi + 0.5, size=(50, 1))
        window_lows = rng.uniform(-np.pi, np.pi, size=(9, 1))
        window_highs = window_lows + rng.uniform(0, 2 * np.pi + 0.5, size=(9, 1))
        matrix = rects_overlap(lows[:, None], highs[:, None],
                               window_lows[None], window_highs[None],
                               periodic_dims=np.array([True]))
        for i in range(50):
            for j in range(9):
                expected = PolarSpace.angle_intervals_overlap(
                    lows[i, 0], highs[i, 0], window_lows[j, 0], window_highs[j, 0])
                assert matrix[i, j] == expected, (i, j)
