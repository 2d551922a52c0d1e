"""Differential tests of the level-synchronous frontier kernel.

The packed-form traversal (:meth:`RTree.window_search`) is the only range
traversal in the index layer, so it is checked here against two things that
share no code with it:

* a **per-entry reference traversal** — a plain recursive walk over the nodes
  of :func:`materialize_transformed_tree` (Algorithm 1), one entry at a time —
  which must find the same records *and* open the same nodes;
* a **brute-force oracle** over the raw points (and, at the ``KIndex`` level,
  the sequential scan): no false dismissals, no false hits.

Hypothesis draws the shapes (sizes, dimensions, builders, which scales are
negative or zero, batch sizes) and a seed; coordinates come from a numpy
generator under that seed, so two boundaries coincide with probability zero
and the independent oracle formulas agree exactly.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KIndex, SequentialScan, SeriesFeatureExtractor, random_walk_collection
from repro.core.errors import IndexError_
from repro.core.spaces import PolarSpace, RectangularSpace
from repro.core.transformations import RealLinearTransformation
from repro.index.geometry import Rect, rects_overlap
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree
from repro.index.transformed import materialize_transformed_tree, transformed_range_search
from repro.storage.durable.serde import _deserialize_rtree, _serialize_rtree
from repro.storage.pages import PageStore
from repro.timeseries.transforms import moving_average_spectral, scale_spectral

TWO_PI = 2.0 * math.pi
SPACES = {"rect": RectangularSpace(1, 1), "polar": PolarSpace(1, 1),
          "polar2": PolarSpace(2, 2)}
BUILDERS = ("rstar-insert", "linear-insert", "str")


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def _points(rng, count, periodic):
    points = rng.uniform(-40.0, 40.0, size=(count, periodic.shape[0]))
    points[:, periodic] = rng.uniform(-math.pi, math.pi,
                                      size=(count, int(periodic.sum())))
    return points


def _build(builder, points, max_entries=5, page_store=None):
    dimension = points.shape[1]
    records = list(range(points.shape[0]))
    if builder == "linear-insert":
        tree = RTree(dimension, max_entries=max_entries, split="linear",
                     page_store=page_store)
    else:
        tree = RStarTree(dimension, max_entries=max_entries, page_store=page_store)
    if builder == "str":
        tree.bulk_load_points(points, records)
        return tree
    for record, point in zip(records, points):
        tree.insert(point, record)
    return tree


def _map(rng, dimension, signs):
    """A per-coordinate map; ``signs`` picks negative / zero / positive scales."""
    scale = rng.uniform(0.3, 2.5, size=dimension) * np.resize(signs, dimension)
    return RealLinearTransformation(scale, rng.uniform(-8.0, 8.0, size=dimension))


def _windows(rng, count, periodic, transformation):
    """Windows around images of the data range; some wider than a full turn
    in the periodic dimensions."""
    dimension = periodic.shape[0]
    centers = rng.uniform(-40.0, 40.0, size=(count, dimension))
    centers[:, periodic] = rng.uniform(-math.pi, math.pi,
                                       size=(count, int(periodic.sum())))
    if transformation is not None:
        centers = transformation.apply(centers)
    half = rng.uniform(1.0, 45.0, size=(count, dimension))
    half[:, periodic] = rng.uniform(0.05, 1.5, size=(count, int(periodic.sum())))
    wide = rng.random(size=(count, dimension)) < 0.2
    half[wide & periodic] = rng.uniform(math.pi, 3 * math.pi,
                                        size=int((wide & periodic).sum()))
    return centers - half, centers + half


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def reference_traversal(tree, window_low, window_high, periodic):
    """Per-entry recursive window search; returns (records, visited node ids)."""
    found, visited = [], set()

    def walk(node_id):
        visited.add(node_id)
        node = tree.node(node_id)
        for entry in node.entries:
            if rects_overlap(entry.rect.low, entry.rect.high,
                             window_low, window_high, periodic):
                if node.is_leaf:
                    found.append(entry.record)
                else:
                    walk(entry.child_id)

    walk(tree.root_id)
    return sorted(found), visited


def brute_force(points, transformation, window_low, window_high, periodic):
    """Ids of the points whose image lies in the window, the periodic
    coordinates taken modulo a full turn (shift test, not the kernel's
    centre/half-width test)."""
    images = points if transformation is None else transformation.apply(points)
    inside = (images >= window_low) & (images <= window_high)
    turns = np.ceil((window_low - images) / TWO_PI)
    inside[:, periodic] = (images + turns * TWO_PI <= window_high)[:, periodic]
    return np.nonzero(inside.all(axis=1))[0].tolist()


def check_tree(tree, points, transformation, window_lows, window_highs, periodic):
    """Kernel == reference traversal == brute force, singly and batched."""
    clone = tree if transformation is None else \
        materialize_transformed_tree(tree, transformation)
    union = set()
    for low, high in zip(window_lows, window_highs):
        expected, visited = reference_traversal(clone, low, high, periodic)
        union |= visited
        tree.reset_stats()
        got = transformed_range_search(tree, Rect(low, high), transformation,
                                       periodic_dims=periodic)
        assert got == expected == brute_force(points, transformation, low, high,
                                              periodic)
        assert tree.access_stats.total == len(visited)
    tree.reset_stats()
    batched = tree.window_search(window_lows, window_highs,
                                 transformation=transformation,
                                 periodic_dims=periodic)
    assert [found.tolist() for found in batched] == [
        reference_traversal(clone, low, high, periodic)[0]
        for low, high in zip(window_lows, window_highs)]
    # A node opened for several windows of the batch is counted once.
    assert tree.access_stats.total == len(union)
    # Counters stay plain ints (they are serialized into JSON frames).
    assert type(tree.access_stats.internal) is type(tree.access_stats.leaf) is int


# ----------------------------------------------------------------------
# range probes
# ----------------------------------------------------------------------
class TestWindowSearchDifferential:
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 140),
           space=st.sampled_from(sorted(SPACES)), builder=st.sampled_from(BUILDERS),
           signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=6),
           transformed=st.booleans(), batch=st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_kernel_equals_reference_and_oracle(self, seed, count, space, builder,
                                                signs, transformed, batch):
        rng = np.random.default_rng(seed)
        periodic = SPACES[space].periodic_dimension_mask()
        points = _points(rng, count, periodic)
        tree = _build(builder, points)
        transformation = _map(rng, periodic.shape[0], signs) if transformed else None
        lows, highs = _windows(rng, batch, periodic, transformation)
        check_tree(tree, points, transformation, lows, highs, periodic)

    @given(seed=st.integers(0, 2**32 - 1), builder=st.sampled_from(BUILDERS),
           first=st.integers(0, 60), more=st.integers(1, 60),
           stride=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_probe_insert_probe(self, seed, builder, first, more, stride):
        """A probe restacks the nodes the inserts before it changed — in
        place, into new slots after splits and reinsertions, all over again
        under a new root — and sees every record inserted so far."""
        rng = np.random.default_rng(seed)
        periodic = SPACES["polar2"].periodic_dimension_mask()
        points = _points(rng, first + more, periodic)
        tree = _build(builder, points[:first])
        transformation = _map(rng, periodic.shape[0], [1.0, -1.0])
        lows, highs = _windows(rng, 3, periodic, transformation)
        check_tree(tree, points[:first], transformation, lows, highs, periodic)
        for record in range(first, first + more):
            tree.insert(points[record], record)
            if (record - first) % stride == 0:
                check_tree(tree, points[:record + 1], transformation, lows, highs,
                           periodic)
        check_tree(tree, points, transformation, lows, highs, periodic)

    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_tree_rebuilt_from_its_serialized_pages(self, builder, paged):
        """``serde`` fills ``_nodes`` directly; the packed form is assembled
        from whatever the first probe finds there."""
        rng = np.random.default_rng(7)
        periodic = SPACES["polar2"].periodic_dimension_mask()
        points = _points(rng, 90, periodic)
        tree = _build(builder, points, page_store=PageStore() if paged else None)
        restored = _deserialize_rtree(_serialize_rtree(tree))
        assert (restored.buffer is not None) == paged
        transformation = _map(rng, periodic.shape[0], [-1.0, 1.0, 0.0])
        lows, highs = _windows(rng, 4, periodic, transformation)
        check_tree(restored, points, transformation, lows, highs, periodic)
        restored.insert(points[0], 90)
        assert 90 in restored.search(Rect(points[0] - 1e-6, points[0] + 1e-6))

    def test_buffer_reads_follow_node_visits(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0, 100, size=(120, 2))
        tree = RTree(2, max_entries=4, page_store=PageStore(), buffer_capacity=512)
        for record, point in enumerate(points):
            tree.insert(point, record)
        tree.reset_stats()
        tree.search_many([Rect([0.0, 0.0], [60.0, 60.0])] * 3)
        # Three identical windows share every node: one read each.
        assert tree.buffer.stats.accesses == tree.access_stats.total > 1
        _, visited = reference_traversal(tree, np.zeros(2), np.full(2, 60.0), None)
        assert tree.access_stats.total == len(visited)

    def test_concurrent_readers_after_writes_repack_once(self):
        """The server lets readers in together once a write is done: the
        first repacks the dirty nodes, none probes a half-written level."""
        rng = np.random.default_rng(12)
        points = rng.uniform(0, 100, size=(1800, 3))
        tree = _build("str", points[:600])
        window = Rect([10.0] * 3, [80.0] * 3)
        tree.search(window)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for written in range(600, 1800, 150):
                    for record in range(written, written + 150):
                        tree.insert(points[record], record)
                    expected = brute_force(points[:written + 150], None, window.low,
                                           window.high, np.zeros(3, dtype=bool))
                    probes = [pool.submit(tree.search, window) for _ in range(8)]
                    assert all(probe.result(timeout=30) == expected for probe in probes)
        finally:
            sys.setswitchinterval(interval)

    def test_empty_tree_and_single_leaf_root(self):
        for tree in (RTree(3), RStarTree.bulk_load(np.zeros((0, 3)), [])):
            tree.reset_stats()
            assert tree.search(Rect([-1.0] * 3, [1.0] * 3)) == []
            assert tree.search_many([]) == []
            assert (tree.access_stats.leaf, tree.access_stats.internal) == (1, 0)
        leaf = RTree(2, max_entries=8)
        for record, point in enumerate([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]):
            leaf.insert(point, record)
        assert leaf.height() == 1
        leaf.reset_stats()
        assert leaf.search(Rect([-0.5, -0.5], [1.5, 1.5])) == [0, 1]
        assert leaf.access_stats.total == leaf.access_stats.leaf == 1

    def test_dimension_mismatch_is_one_error(self):
        """Every range entry point hands its windows to the kernel, which
        rejects a wrong shape itself: same error from all of them."""
        tree = RTree.bulk_load(np.random.default_rng(11).uniform(size=(20, 3)),
                               list(range(20)))
        flat = Rect([0.0, 0.0], [1.0, 1.0])
        solid = Rect([0.0] * 3, [1.0] * 3)
        for probe in (lambda: tree.search(flat),
                      lambda: tree.search_many([flat, flat]),
                      lambda: tree.search_many([solid, flat]),
                      lambda: transformed_range_search(tree, flat),
                      lambda: tree.window_search(np.zeros(3), np.ones(3)),
                      lambda: tree.window_search(np.zeros((2, 3)), np.ones((1, 3)))):
            with pytest.raises(IndexError_, match="tree of dimension 3"):
                probe()

    def test_non_integer_records_keep_leaf_order(self):
        tree = RTree(2, max_entries=4)
        labels = [("row", i) for i in range(30)]
        rng = np.random.default_rng(9)
        for label, point in zip(labels, rng.uniform(0, 10, size=(30, 2))):
            tree.insert(point, label)
        assert sorted(tree.search(Rect([0.0, 0.0], [10.0, 10.0]))) == labels

    def test_records_come_back_as_inserted(self):
        """Only integers that fit an index take the numeric path; a later
        record of another kind turns an already packed level into objects."""
        everywhere = Rect([0.0, 0.0], [10.0, 10.0])
        tree = RTree(2, max_entries=4)
        rng = np.random.default_rng(10)
        for record, point in enumerate(rng.uniform(0, 10, size=(9, 2))):
            tree.insert(point, record)
        assert tree.search(everywhere) == list(range(9))
        odd = [True, False, 2**70, -2**70, "nine", None]
        for record, point in zip(odd, rng.uniform(0, 10, size=(len(odd), 2))):
            tree.insert(point, record)
            found = tree.search(everywhere)
            assert any(record is got for got in found)
        assert sorted(map(repr, found)) == sorted(map(repr, list(range(9)) + odd))
        flags = RTree(2)
        flags.insert([1.0, 1.0], True)
        assert flags.search(everywhere)[0] is True
        huge = RTree.bulk_load(np.ones((2, 2)), [2**70, 1])
        assert sorted(huge.search(everywhere)) == [1, 2**70]


# ----------------------------------------------------------------------
# the k-index against the scan
# ----------------------------------------------------------------------
class TestKIndexAgainstScan:
    @given(seed=st.integers(0, 10_000), count=st.integers(5, 60),
           representation=st.sampled_from(["polar", "rectangular"]),
           bulk=st.booleans(), factor=st.sampled_from([None, -1.5, 0.0, 0.5, "mavg"]),
           epsilon=st.floats(0.5, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_range_and_batch_equal_the_scan(self, seed, count, representation,
                                            bulk, factor, epsilon):
        data = random_walk_collection(count + 10, 32, seed=seed)
        extractor = SeriesFeatureExtractor(2, representation=representation)
        if factor == "mavg":
            if representation == "rectangular":
                return  # a complex multiplier is not safe in Srect
            transformation = moving_average_spectral(32, 5)
        else:
            transformation = None if factor is None else scale_spectral(32, factor)
        index = (KIndex.bulk_load(data[:count], extractor) if bulk
                 else KIndex(extractor))
        if not bulk:
            index.extend(data[:count])
        scan = SequentialScan(extractor)
        scan.extend(data[:count])

        def compare():
            queries = data[:3]
            batched = index.range_query_batch(queries, epsilon,
                                              transformation=transformation)
            for query, from_batch in zip(queries, batched):
                expected = scan.range_query(query, epsilon, transformation=transformation)
                single = index.range_query(query, epsilon, transformation=transformation)
                for result in (single, from_batch):
                    assert [(s.object_id, d) for s, d in result.answers] == \
                        [(s.object_id, d) for s, d in expected.answers]

        compare()
        # Staleness: probe, grow through both mutation paths, probe again.
        index.insert(data[count])
        index.extend(data[count + 1:])
        scan.extend(data[count:])
        compare()
