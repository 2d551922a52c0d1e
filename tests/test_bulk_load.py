"""Tests for the Sort-Tile-Recursive bulk loader, the growers' hand-over to the
packed form and the batched tree probes.

The loader and the pack are checked against things that share no array code
with them: :func:`reference_bulk_load` is the node-graph loader
``PackedRTree.bulk_load`` replaced — one ``RTreeNode`` per tile, one
``RTreeEntry`` and ``Rect`` per row, kept here as the reference — and
:func:`graph_shape` walks a grower's node objects an entry at a time.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.index import rtree as rtree_module
from repro.index.geometry import Rect, mindist, mindist_batch, rects_overlap
from repro.index.kindex import SEAL_MIN_ROWS, SEAL_SHARE, KIndex
from repro.index.rstar import RStarTree
from repro.index.rtree import PackedRTree, RTree, RTreeEntry
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import random_walk_collection
from repro.timeseries.series import TimeSeries


def reference_bulk_load(points: np.ndarray, records: list, max_entries: int) -> RTree:
    """The STR loader as it was: tile by tile into node objects, level by
    level, each internal entry under the bounding rectangle of its child."""
    tree = RTree(points.shape[1], max_entries=max_entries)
    if not len(points):
        return tree
    del tree._nodes[tree.root_id]
    level_lows = level_highs = points
    payloads, is_leaf = records, True
    while True:
        tiles = rtree_module._str_tiles((level_lows + level_highs) / 2.0,
                                        tree.max_entries, tree.min_entries)
        nodes = []
        for tile in tiles:
            node = tree._new_node(is_leaf=is_leaf)
            for row in tile.tolist():
                rect = Rect(level_lows[row], level_highs[row])
                node.entries.append(RTreeEntry(rect, record=payloads[row]) if is_leaf
                                    else RTreeEntry(rect, child_id=payloads[row]))
                if not is_leaf:
                    tree.node(payloads[row]).parent_id = node.node_id
            nodes.append(node)
        if len(nodes) == 1:
            tree.root_id = nodes[0].node_id
            tree._size = len(points)
            return tree
        level_lows = np.array([node.mbr().low for node in nodes])
        level_highs = np.array([node.mbr().high for node in nodes])
        payloads, is_leaf = [node.node_id for node in nodes], False


def graph_shape(tree: RTree, node_id: int | None = None) -> list:
    """A grower's node graph from ``node_id`` down, an entry at a time:
    nested ``[low, high, record or child's shape]`` lists, entry order kept."""
    node = tree.node(tree.root_id if node_id is None else node_id)
    return [[entry.rect.low.tolist(), entry.rect.high.tolist(),
             entry.record if node.is_leaf else graph_shape(tree, entry.child_id)]
            for entry in node.entries]


def packed_shape(tree: PackedRTree, depth: int = 0, slot: int = 0) -> list:
    """The same nesting read from the level arrays: a child is wherever its
    entry's payload says, so two packs of one tree that number their nodes
    differently have one shape."""
    level = tree.levels[depth]
    rows = range(int(level.starts[slot]), int(level.starts[slot] + level.counts[slot]))
    return [[level.lows[row].tolist(), level.highs[row].tolist(),
             level.payloads[row].item() if level.is_leaf
             else packed_shape(tree, depth + 1, int(level.payloads[row]))]
            for row in rows]


def reference_summary(tree: RTree) -> dict[str, float]:
    """``structure_summary`` as it was: a walk of the node graph, one
    ``Rect.union_of`` per node, radii added up in visiting order."""
    leaf_count = internal_count = leaf_entries = internal_entries = 0
    leaf_radius_total = internal_radius_total = 0.0
    pending = [tree.root_id]
    while pending:
        node = tree.node(pending.pop())
        radius = 0.0
        if node.entries:
            mbr = node.mbr()
            radius = 0.5 * float(np.linalg.norm(mbr.high - mbr.low))
        if node.is_leaf:
            leaf_count += 1
            leaf_entries += len(node.entries)
            leaf_radius_total += radius
        else:
            internal_count += 1
            internal_entries += len(node.entries)
            internal_radius_total += radius
            pending.extend(entry.child_id for entry in node.entries)
    return {
        "height": float(tree.height()),
        "leaf_count": float(leaf_count),
        "internal_count": float(internal_count),
        "node_count": float(leaf_count + internal_count),
        "avg_leaf_fanout": leaf_entries / leaf_count if leaf_count else 0.0,
        "avg_internal_fanout": internal_entries / internal_count if internal_count else 0.0,
        "avg_leaf_radius": leaf_radius_total / leaf_count if leaf_count else 0.0,
        "avg_internal_radius": (internal_radius_total / internal_count
                                if internal_count else 0.0),
    }


def _check_invariants(tree: PackedRTree) -> None:
    """Structural invariants every STR-packed tree must satisfy."""
    minimum = rtree_module._min_entries(tree.max_entries)
    for depth, level in enumerate(tree.levels):
        assert level.is_leaf == (depth == tree.height() - 1)
        assert level.counts.max() <= tree.max_entries
        if depth:
            assert level.counts.min() >= minimum
            # Every node has exactly one parent entry, whose rectangle is the
            # node's bounding rectangle.
            above = tree.levels[depth - 1]
            assert sorted(above.payloads.tolist()) == list(range(len(level.counts)))
            assert np.array_equal(above.lows[np.argsort(above.payloads)],
                                  np.minimum.reduceat(level.lows, level.starts))
            assert np.array_equal(above.highs[np.argsort(above.payloads)],
                                  np.maximum.reduceat(level.highs, level.starts))
        else:
            assert len(level.counts) == 1
        assert len(level.lows) == len(level.highs) == len(level.payloads) \
            == level.counts.sum()
    assert tree.levels[-1].counts.sum() == len(tree)


def _insert_built(cls, points: np.ndarray, max_entries: int = 8) -> RTree:
    tree = cls(dimension=points.shape[1], max_entries=max_entries)
    for record, point in enumerate(points):
        tree.insert(point, record)
    return tree


def _cloud(rng, count: int, dimension: int, kind: str) -> np.ndarray:
    points = rng.uniform(-50.0, 50.0, size=(count, dimension))
    if kind == "duplicates" and count:
        points = points[rng.integers(0, max(1, count // 5), size=count)]
    elif kind == "flat":  # one dimension far under STR_SPREAD_CUTOFF of the widest
        points[:, -1] *= rtree_module.STR_SPREAD_CUTOFF / 100.0
    elif kind == "one-point" and count:
        points[:] = points[0]
    return points


class TestLoaderAndPackDifferential:
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 400),
           dimension=st.integers(1, 6), max_entries=st.integers(2, 16),
           kind=st.sampled_from(["uniform", "duplicates", "flat", "one-point"]))
    @settings(max_examples=120, deadline=None)
    def test_loader_builds_the_reference_loaders_tree(self, seed, count, dimension,
                                                      max_entries, kind):
        """Same nodes, same entries in the same (tile) order, same rectangles
        to the bit — chunks that borrow for a short remainder, a lone leaf
        root, duplicate points and flat dimensions included."""
        points = _cloud(np.random.default_rng(seed), count, dimension, kind)
        records = list(range(count))
        loaded = PackedRTree.bulk_load(points, records, max_entries=max_entries)
        reference = reference_bulk_load(points, records, max_entries)
        assert packed_shape(loaded) == graph_shape(reference) \
            == packed_shape(reference.packed())
        assert [len(level.counts) for level in loaded.levels] == \
            [len(level.counts) for level in reference.packed().levels]
        assert (len(loaded), loaded.height()) == (count, reference.height())
        _check_invariants(loaded)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 150),
           dimension=st.integers(1, 4), max_entries=st.integers(2, 9),
           grower=st.sampled_from(["rstar", "linear", "quadratic"]),
           kind=st.sampled_from(["uniform", "duplicates"]))
    @settings(max_examples=60, deadline=None)
    def test_packed_equals_a_walk_of_the_node_graph(self, seed, count, dimension,
                                                    max_entries, grower, kind):
        """After any insert sequence — splits, forced reinsertions, new
        roots — and again after more inserts."""
        points = _cloud(np.random.default_rng(seed), count + 20, dimension, kind)
        tree = (RStarTree(dimension, max_entries=max_entries) if grower == "rstar"
                else RTree(dimension, max_entries=max_entries, split=grower))
        for stop in (count, count + 20):
            for record in range(len(tree), stop):
                tree.insert(points[record], record)
            pack = tree.packed()
            assert packed_shape(pack) == graph_shape(tree)
            assert (len(pack), pack.height()) == (len(tree), tree.height())
            assert (pack.dimension, pack.max_entries) == (dimension, max_entries)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 300),
           dimension=st.integers(1, 6), max_entries=st.integers(2, 12),
           builder=st.sampled_from(["str", "rstar", "linear"]))
    @settings(max_examples=40, deadline=None)
    def test_structure_summary_equals_the_node_walk(self, seed, count, dimension,
                                                    max_entries, builder):
        """Same keys; counts and fanouts exactly, radii to 1e-12 relative (one
        ``reduceat`` and one sum per level add them up in another order)."""
        points = _cloud(np.random.default_rng(seed), count, dimension, "uniform")
        if builder == "str":
            graph = reference_bulk_load(points, list(range(count)), max_entries)
            packed = PackedRTree.bulk_load(points, np.arange(count), max_entries=max_entries)
        else:
            graph = (RStarTree(dimension, max_entries=max_entries) if builder == "rstar"
                     else RTree(dimension, max_entries=max_entries, split="linear"))
            for record, point in enumerate(points[:120]):
                graph.insert(point, record)
            packed = graph.packed()
        expected, summary = reference_summary(graph), packed.structure_summary()
        assert list(summary) == list(expected)
        for key, value in expected.items():
            assert summary[key] == (pytest.approx(value, rel=1e-12, abs=0.0)
                                    if key.endswith("radius") else value)

    def test_index_summaries_equal_the_node_walk(self, walk_collection, polar_extractor):
        """STR-packed and insert-built: the tree an index holds."""
        for grown, index in (
                (False, KIndex.bulk_load(walk_collection, polar_extractor)),
                (True, KIndex.build_by_insertion(walk_collection[:150], polar_extractor))):
            tree = index.tree
            assert len(tree) == len(index) - index.tail_rows > 0
            rows = np.sort(tree.levels[-1].payloads)
            if grown:
                graph = RStarTree(tree.dimension, max_entries=tree.max_entries)
                for row in rows.tolist():
                    graph.insert(index._points[row], row)
            else:
                graph = reference_bulk_load(index._points[rows], rows.tolist(),
                                            tree.max_entries)
            expected, summary = reference_summary(graph), tree.structure_summary()
            assert list(summary) == list(expected)
            for key, value in expected.items():
                assert summary[key] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_rectangle_data_and_object_records(self):
        rng = np.random.default_rng(40)
        lows = rng.uniform(0, 100, size=(150, 2))
        highs = lows + rng.uniform(0, 5, size=(150, 2))
        labels = [("row", step) for step in range(150)]
        loaded = PackedRTree.bulk_load_rects(lows, highs, labels, max_entries=6)
        _check_invariants(loaded)
        window = Rect([20.0, 20.0], [60.0, 60.0])
        assert sorted(loaded.search(window)) == [
            label for label, low, high in zip(labels, lows, highs)
            if Rect(low, high).intersects(window)]

    def test_loading_allocates_arrays_not_objects(self):
        """Loading 5 000 six-dimensional points peaks under three times the
        level arrays' own bytes (~0.6 MB; the sorts' index arrays and one
        level's gathers are the rest).  The node graph this loader replaced
        held 3.2 MB of entries, rectangles and per-entry arrays, so a quiet
        return to per-entry objects fails here."""
        points = np.random.default_rng(39).uniform(-50, 50, size=(5000, 6))
        records = np.arange(5000)
        PackedRTree.bulk_load(points[:100], records[:100])  # imports, caches
        tracemalloc.start()
        try:
            loaded = PackedRTree.bulk_load(points, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(array.nbytes for level in loaded.levels for array in
                   (level.counts, level.starts, level.lows, level.highs, level.payloads))
        assert 500_000 < held < 700_000
        assert peak < 3 * held


class TestSTRBulkLoad:
    def test_invariants_and_size(self):
        rng = np.random.default_rng(41)
        points = rng.uniform(0, 100, size=(500, 3))
        tree = PackedRTree.bulk_load(points, list(range(500)), max_entries=8)
        assert len(tree) == 500
        _check_invariants(tree)

    @pytest.mark.parametrize("cls", [RTree, RStarTree])
    def test_same_answers_as_insert_built(self, cls):
        rng = np.random.default_rng(42)
        points = rng.uniform(0, 100, size=(400, 4))
        loaded = PackedRTree.bulk_load(points, list(range(400)), max_entries=8)
        inserted = _insert_built(cls, points)
        for center in rng.uniform(0, 100, size=(25, 4)):
            window = Rect(center - 6, center + 6)
            assert sorted(loaded.search(window)) == sorted(inserted.search(window))

    def test_no_taller_than_insert_built(self):
        rng = np.random.default_rng(43)
        points = rng.uniform(0, 100, size=(800, 2))
        loaded = PackedRTree.bulk_load(points, list(range(800)), max_entries=8)
        inserted = _insert_built(RTree, points)
        assert loaded.height() <= inserted.height()

    def test_no_more_node_accesses_than_insert_built(self):
        rng = np.random.default_rng(44)
        points = rng.uniform(0, 100, size=(1000, 4))
        loaded = PackedRTree.bulk_load(points, list(range(1000)), max_entries=8)
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
        loaded = PackedRTree.bulk_load(points, list(range(300)), max_entries=8)
        inserted = _insert_built(RTree, points)
        for query in rng.uniform(0, 100, size=(10, 3)):
            got = [record for _, record in loaded.nearest_neighbors(query, 5)]
            expected = [record for _, record in inserted.nearest_neighbors(query, 5)]
            assert got == expected

    def test_small_and_empty_loads(self):
        empty = PackedRTree.bulk_load(np.empty((0, 2)), [])
        assert len(empty) == 0 and empty.height() == 1
        assert empty.search(Rect([0.0, 0.0], [1.0, 1.0])) == []
        tiny = PackedRTree.bulk_load(np.array([[1.0, 1.0], [2.0, 2.0]]), ["a", "b"])
        assert len(tiny) == 2
        assert tiny.height() == 1
        assert sorted(tiny.search(Rect([0.0, 0.0], [3.0, 3.0]))) == ["a", "b"]

    def test_validation_errors(self):
        points = np.random.default_rng(46).uniform(0, 1, size=(10, 2))
        with pytest.raises(IndexError_):
            PackedRTree.bulk_load(points, list(range(5)))
        with pytest.raises(IndexError_):
            PackedRTree.bulk_load(points.reshape(-1), list(range(20)))
        with pytest.raises(IndexError_):
            PackedRTree.bulk_load(points, list(range(10)), max_entries=1)
        with pytest.raises(IndexError_):
            PackedRTree.bulk_load_rects(points, points[:5], list(range(10)))
        with pytest.raises(ValueError, match="low coordinate"):
            PackedRTree.bulk_load_rects(points + 1.0, points, list(range(10)))

    def test_a_packed_tree_is_immutable(self):
        """"Bulk load, then insert" is gone: a loaded tree has no ``insert``
        (an index that outgrows its tree packs a fresh one), the growers no
        loader (``RTree.bulk_load`` built a tree that stayed dynamic)."""
        rng = np.random.default_rng(47)
        tree = PackedRTree.bulk_load(rng.uniform(0, 100, size=(200, 2)), list(range(200)))
        assert not hasattr(tree, "insert")
        for grower in (RTree, RStarTree):
            assert not any(hasattr(grower, name) for name in
                           ("bulk_load", "bulk_load_points", "bulk_load_rects"))


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
        """``build_by_insertion`` hands over exactly the R*-tree one
        ``RStarTree.insert`` per point grows — the evaluation's figures
        depend on it — as a packed tree, with no graph kept beside it."""
        index = KIndex.build_by_insertion(walk_collection, polar_extractor,
                                          max_entries=6)
        points = polar_extractor.extract_many(walk_collection)[0]
        tree = RStarTree(points.shape[1], max_entries=6)
        for record, point in enumerate(points):
            tree.insert(point, record)
        assert type(index.tree) is PackedRTree
        assert len(index.tree) == len(walk_collection) and index.tail_rows == 0
        assert packed_shape(index.tree) == graph_shape(tree)
        with pytest.raises(TypeError):
            KIndex.build_by_insertion(walk_collection, polar_extractor,
                                      tree_kind="rtree-linear")

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
        loader = PackedRTree.bulk_load

        def counting(points, records, **options):
            packed.append(len(points))
            return loader(points, records, **options)

        monkeypatch.setattr(PackedRTree, "bulk_load", counting)
        index = KIndex(SeriesFeatureExtractor(2))
        del packed[:]  # the empty tree an index is born with
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
        tree = PackedRTree.bulk_load(points, list(range(500)), max_entries=8)
        windows = [Rect(center - 5, center + 5)
                   for center in rng.uniform(0, 100, size=(12, 3))]
        batched = tree.search_many(windows)
        for window, records in zip(windows, batched):
            assert sorted(records) == sorted(tree.search(window))

    def test_search_many_shares_node_accesses(self):
        rng = np.random.default_rng(49)
        points = rng.uniform(0, 100, size=(500, 2))
        tree = PackedRTree.bulk_load(points, list(range(500)), max_entries=8)
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
