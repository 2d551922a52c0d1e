"""Differential tests of the packed-form kernels.

The level-synchronous frontier kernel (:meth:`PackedRTree.window_search`) is
the only range traversal in the index layer and the blocked best-first kernel
(:meth:`PackedRTree.nearest_search`) the only nearest-neighbour one, so
both are checked here against things that share no code with them.  A range
probe against:

* a **per-entry reference traversal** — a plain recursive walk over the nodes
  of :meth:`PackedRTree.transformed` (Algorithm 1), one entry at a time,
  each node read through :func:`node_entries` —
  which must find the same records *and* open the same nodes;
* a **brute-force oracle** over the raw points (and, at the ``KIndex`` level,
  the sequential scan): no false dismissals, no false hits.

A nearest-neighbour probe against a **per-entry best-first walk** over the
same nodes (one node per pop, one record verified per pop — which opens exactly
the nodes, and verifies exactly the records, whose bound is within the true
k-th distance, the fewest any exact search can), a brute-force ranking, and
at the ``KIndex`` level the sequential scan: same ids, same order, same
distance bits.

Hypothesis draws the shapes (sizes, dimensions, builders, which scales are
negative or zero, batch sizes) and a seed; coordinates come from a numpy
generator under that seed, so two boundaries coincide with probability zero
and the independent oracle formulas agree exactly.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gathered_transform import transformed_records

from repro import (KIndex, SequentialScan, SeriesFeatureExtractor, TimeSeries,
                   random_walk_collection)
from repro.bench.growers import RStarTree, RTree, insertion_built
from repro.core.errors import DimensionMismatchError, IndexError_
from repro.core.objects import FeatureVector
from repro.core.spaces import PolarSpace, RectangularSpace
from repro.core.transformations import RealLinearTransformation
from repro.index import kindex as kindex_module
from repro.index.geometry import Rect, box_bound, rects_overlap
from repro.index.rtree import NEAREST_BLOCK, PackedRTree
from repro.storage import codec
from repro.storage.columnar import exact_distances, query_record, query_records
from repro.storage.durable.serde import _deserialize_tree, _serialize_tree
from repro.timeseries.transforms import moving_average_spectral, scale_spectral

TWO_PI = 2.0 * math.pi
SPACES = {"rect": RectangularSpace(1, 1), "polar": PolarSpace(1, 1),
          "polar2": PolarSpace(2, 2)}
GROWERS = ("rstar-insert", "linear-insert")
BUILDERS = GROWERS + ("str",)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def _points(rng, count, periodic):
    points = rng.uniform(-40.0, 40.0, size=(count, periodic.shape[0]))
    points[:, periodic] = rng.uniform(-math.pi, math.pi,
                                      size=(count, int(periodic.sum())))
    return points


def _grower(builder, points, max_entries=5):
    """An insert builder's grower, fed the points one at a time."""
    dimension = points.shape[1]
    if builder == "linear-insert":
        tree = RTree(dimension, max_entries=max_entries, split="linear")
    else:
        tree = RStarTree(dimension, max_entries=max_entries)
    for record, point in enumerate(points):
        tree.insert(point, record)
    return tree


def _build(builder, points, max_entries=5):
    """A packed tree handed over by a grower, or (``"str"``) loaded in one
    go; the probes and counters of both read the same."""
    if builder == "str":
        return PackedRTree.bulk_load(points, list(range(points.shape[0])),
                                     max_entries=max_entries)
    return _grower(builder, points, max_entries).packed()


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
ROOT = (0, 0)


def node_entries(tree, node):
    """The one place the per-entry references read a packed tree: the entries
    of ``node`` — a ``(depth, slot)`` pair, the root being ``(0, 0)`` — as
    ``(low, high, child node or record)`` triples, and whether it is a leaf."""
    depth, slot = node
    level = tree.levels[depth]
    first = int(level.starts[slot])
    rows = range(first, first + int(level.counts[slot]))
    payloads = level.payloads[rows.start:rows.stop].tolist()
    return level.is_leaf, [
        (level.lows[row], level.highs[row],
         payload if level.is_leaf else (depth + 1, payload))
        for row, payload in zip(rows, payloads)]


def reference_traversal(tree, window_low, window_high, periodic):
    """Per-entry recursive window search; returns (records, visited nodes)."""
    found, visited = [], set()

    def walk(node):
        visited.add(node)
        is_leaf, entries = node_entries(tree, node)
        for low, high, below in entries:
            if rects_overlap(low, high, window_low, window_high, periodic):
                if is_leaf:
                    found.append(below)
                else:
                    walk(below)

    walk(ROOT)
    return sorted(found), visited


def _restored(packed, points):
    """``packed`` through its ``serde`` page — as codec bytes, the way a
    checkpoint writes it — and back over ``points``, its leaves' corners."""
    document = codec.decode(codec.encode(_serialize_tree(packed)))
    return _deserialize_tree(document, points, packed.max_entries)


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
    clone = tree if transformation is None else tree.transformed(transformation)
    union = set()
    for low, high in zip(window_lows, window_highs):
        expected, visited = reference_traversal(clone, low, high, periodic)
        union |= visited
        (got,), visits = tree.window_search(low[None, :], high[None, :], transformation,
                                            periodic)
        assert got.tolist() == expected == brute_force(points, transformation, low, high,
                                                       periodic)
        assert sum(visits) == len(visited)
    batched, visits = tree.window_search(window_lows, window_highs,
                                         transformation=transformation,
                                         periodic_dims=periodic)
    assert [found.tolist() for found in batched] == [
        reference_traversal(clone, low, high, periodic)[0]
        for low, high in zip(window_lows, window_highs)]
    # A node opened for several windows of the batch is counted once.
    assert sum(visits) == len(union)
    # Counters stay plain ints (they are serialized into JSON frames).
    assert type(visits[0]) is type(visits[1]) is int


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

    @given(seed=st.integers(0, 2**32 - 1), builder=st.sampled_from(GROWERS),
           first=st.integers(0, 60), more=st.integers(1, 60),
           stride=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_probe_insert_probe(self, seed, builder, first, more, stride):
        """A probe after inserts runs on a fresh pack of the grower — through
        splits, reinsertions and new roots — and sees every record inserted
        so far.  Both insert builders; the ``"str"`` arm this test once had
        inserted into a bulk-loaded tree, which no longer exists: an
        STR-packed tree is immutable (``test_bulk_load.py`` checks that it
        has no ``insert``), and a k-index grows by tail and seal
        (``TestTailDifferential``)."""
        rng = np.random.default_rng(seed)
        periodic = SPACES["polar2"].periodic_dimension_mask()
        points = _points(rng, first + more, periodic)
        tree = _grower(builder, points[:first])
        transformation = _map(rng, periodic.shape[0], [1.0, -1.0])
        lows, highs = _windows(rng, 3, periodic, transformation)
        check_tree(tree.packed(), points[:first], transformation, lows, highs, periodic)
        for record in range(first, first + more):
            tree.insert(points[record], record)
            if (record - first) % stride == 0:
                check_tree(tree.packed(), points[:record + 1], transformation, lows, highs,
                           periodic)
        check_tree(tree.packed(), points, transformation, lows, highs, periodic)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_tree_rebuilt_from_its_serialized_pages(self, builder):
        """``serde`` writes the level arrays (the leaf level without its
        corners: they are the points) and reads them back bit for bit."""
        rng = np.random.default_rng(7)
        periodic = SPACES["polar2"].periodic_dimension_mask()
        points = _points(rng, 90, periodic)
        packed = _build(builder, points)
        restored = _restored(packed, points)
        for level, twin in zip(packed.levels, restored.levels, strict=True):
            assert level.is_leaf == twin.is_leaf
            for name in ("counts", "starts", "lows", "highs", "payloads"):
                assert np.array_equal(getattr(level, name), getattr(twin, name))
                assert getattr(level, name).dtype == getattr(twin, name).dtype
        transformation = _map(rng, periodic.shape[0], [-1.0, 1.0, 0.0])
        lows, highs = _windows(rng, 4, periodic, transformation)
        check_tree(restored, points, transformation, lows, highs, periodic)

    def test_empty_tree_and_single_leaf_root(self):
        for tree in (RTree(3).packed(), PackedRTree.bulk_load(np.zeros((0, 3)), [])):
            assert tree.search(Rect([-1.0] * 3, [1.0] * 3)) == []
            (found,), visits = tree.window_search(np.full((1, 3), -1.0), np.ones((1, 3)))
            assert found.tolist() == [] and visits == (0, 1)
            assert tree.window_search(np.zeros((0, 3)), np.zeros((0, 3))) == ([], (0, 0))
        leaf = RTree(2, max_entries=8)
        for record, point in enumerate([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]):
            leaf.insert(point, record)
        assert leaf.height() == 1
        leaf = leaf.packed()
        assert leaf.search(Rect([-0.5, -0.5], [1.5, 1.5])) == [0, 1]
        (found,), visits = leaf.window_search(np.full((1, 2), -0.5), np.full((1, 2), 1.5))
        assert found.tolist() == [0, 1] and visits == (0, 1)

    def test_dimension_mismatch_is_one_error(self):
        """Every range entry point hands its windows to the kernel, which
        rejects a wrong shape itself: same error from all of them."""
        tree = PackedRTree.bulk_load(np.random.default_rng(11).uniform(size=(20, 3)),
                                     list(range(20)))
        flat = Rect([0.0, 0.0], [1.0, 1.0])
        solid = Rect([0.0] * 3, [1.0] * 3)
        for probe in (lambda: tree.search(flat),
                      lambda: tree.window_search([flat.low, flat.low], [flat.high, flat.high]),
                      lambda: tree.window_search([solid.low, flat.low], [solid.high, flat.high]),
                      lambda: tree.window_search(flat.low[None, :], flat.high[None, :]),
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
        assert sorted(tree.packed().search(Rect([0.0, 0.0], [10.0, 10.0]))) == labels

    def test_records_come_back_as_inserted(self):
        """Only integers that fit an index take the numeric path; a later
        record of another kind makes the next pack's leaf level one of objects."""
        everywhere = Rect([0.0, 0.0], [10.0, 10.0])
        tree = RTree(2, max_entries=4)
        rng = np.random.default_rng(10)
        for record, point in enumerate(rng.uniform(0, 10, size=(9, 2))):
            tree.insert(point, record)
        assert tree.packed().search(everywhere) == list(range(9))
        odd = [True, False, 2**70, -2**70, "nine", None]
        for record, point in zip(odd, rng.uniform(0, 10, size=(len(odd), 2))):
            tree.insert(point, record)
            found = tree.packed().search(everywhere)
            assert any(record is got for got in found)
        assert sorted(map(repr, found)) == sorted(map(repr, list(range(9)) + odd))
        flags = RTree(2)
        flags.insert([1.0, 1.0], True)
        assert flags.packed().search(everywhere)[0] is True
        huge = PackedRTree.bulk_load(np.ones((2, 2)), [2**70, 1])
        assert sorted(huge.search(everywhere)) == [1, 2**70]


# ----------------------------------------------------------------------
# nearest-neighbour probes
# ----------------------------------------------------------------------
def reference_nearest(tree, k, lower_bound, exact, transform=lambda low, high: (low, high),
                      seeds=()):
    """Best-first search over the tree's nodes, an entry at a time: pop the
    nearest pending node or record (records first at equal bounds), open the
    node or verify the record, stop at the first bound beyond the k-th exact
    distance.  ``seeds`` are ``(point, record)`` leaf entries the tree does
    not hold, pending from the start.  Returns (the ``(distance, record)``
    answers, nodes opened, records verified)."""
    order = itertools.count()
    heap = [(0.0, 1, next(order), ROOT)]
    heap += [(lower_bound(*transform(point, point)), 0, next(order), record)
             for point, record in seeds]
    heapq.heapify(heap)
    verified, opened = [], 0
    while heap:
        bound, is_node, _, payload = heapq.heappop(heap)
        if len(verified) >= k and bound > sorted(verified)[k - 1][0]:
            break
        if not is_node:
            verified.append((exact(payload), payload))
            continue
        opened += 1
        is_leaf, entries = node_entries(tree, payload)
        for low, high, below in entries:
            heapq.heappush(heap, (lower_bound(*transform(low, high)), 0 if is_leaf else 1,
                                  next(order), below))
    return sorted(verified)[:k], opened, len(verified)


def block_allowance(opened):
    """Every step of the blocked kernel opens at least one node the reference
    opens too, so it takes at most ``opened`` steps, each with at most its
    block size less one extra nodes."""
    return sum(min(2 ** step, NEAREST_BLOCK) - 1 for step in range(min(opened, 64)))


def scalar_mindist(point, low, high):
    return float(np.sqrt(np.sum(np.square(point - np.clip(point, low, high)))))


def check_tree_nearest(tree, points, transformation, queries, ks=(1, 5, 10)):
    """Kernel == per-entry best-first == brute force, to the bit; its node
    visits between the reference's and that plus the block allowance."""
    clone = tree if transformation is None else tree.transformed(transformation)
    images = points if transformation is None else transformation.apply(points)
    for query in queries:
        distances = np.sqrt(np.sum(np.square(query - images), axis=1))
        ranked = [(float(distances[record]), int(record))
                  for record in np.lexsort((np.arange(len(points)), distances))]
        for k in ks + (len(points) + 3,):
            expected, opened, _ = reference_nearest(
                clone, k, lambda low, high: scalar_mindist(query, low, high),
                lambda record: float(distances[record]))
            found, records, visits = tree.nearest_search(k, box_bound(query),
                                                         transformation=transformation)
            got = list(zip(found[:k].tolist(), records[:k].tolist()))
            assert got == expected == ranked[:k]
            assert opened <= sum(visits) <= opened + block_allowance(opened)
            assert type(visits[0]) is type(visits[1]) is int


class TestNearestSearchDifferential:
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 140),
           space=st.sampled_from(sorted(SPACES)), builder=st.sampled_from(BUILDERS),
           signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=6),
           transformed=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_reference_and_oracle(self, seed, count, space, builder,
                                                signs, transformed):
        rng = np.random.default_rng(seed)
        periodic = SPACES[space].periodic_dimension_mask()
        points = _points(rng, count, periodic)
        tree = _build(builder, points)
        transformation = _map(rng, periodic.shape[0], signs) if transformed else None
        queries = _points(rng, 3, periodic)
        if transformation is not None:
            queries = transformation.apply(queries)
        check_tree_nearest(tree, points, transformation, queries)

    @given(seed=st.integers(0, 2**32 - 1), builder=st.sampled_from(GROWERS),
           first=st.integers(0, 60), more=st.integers(1, 60),
           stride=st.integers(3, 9))
    @settings(max_examples=20, deadline=None)
    def test_probe_insert_probe(self, seed, builder, first, more, stride):
        """A nearest-neighbour probe after inserts runs on a fresh pack
        exactly as a range probe does (both insert builders; as there, the
        ``"str"`` arm is gone with mutable bulk-loaded trees)."""
        rng = np.random.default_rng(seed)
        periodic = SPACES["polar2"].periodic_dimension_mask()
        points = _points(rng, first + more, periodic)
        tree = _grower(builder, points[:first])
        transformation = _map(rng, periodic.shape[0], [1.0, -1.0])
        queries = transformation.apply(_points(rng, 2, periodic))
        check_tree_nearest(tree.packed(), points[:first], transformation, queries, ks=(1, 5))
        for record in range(first, first + more):
            tree.insert(points[record], record)
            if (record - first) % stride == 0:
                check_tree_nearest(tree.packed(), points[:record + 1], transformation,
                                   queries, ks=(1, 5))
        check_tree_nearest(tree.packed(), points, transformation, queries)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_tree_rebuilt_from_its_serialized_pages(self, builder):
        rng = np.random.default_rng(17)
        periodic = SPACES["polar2"].periodic_dimension_mask()
        points = _points(rng, 90, periodic)
        restored = _restored(_build(builder, points), points)
        transformation = _map(rng, periodic.shape[0], [-1.0, 1.0, 0.0])
        check_tree_nearest(restored, points, transformation,
                           transformation.apply(_points(rng, 4, periodic)))

    def test_concurrent_readers_after_writes(self):
        rng = np.random.default_rng(13)
        points = rng.uniform(0, 100, size=(1200, 3))
        tree = _grower("linear-insert", points[:300])
        query = np.full(3, 50.0)
        tree.packed().nearest_neighbors(query, k=10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for written in range(300, 1200, 150):
                    for record in range(written, written + 150):
                        tree.insert(points[record], record)
                    distances = np.sqrt(np.sum(np.square(query - points[:written + 150]),
                                               axis=1))
                    expected = [(float(distances[i]), int(i))
                                for i in np.argsort(distances, kind="stable")[:10]]
                    pack = tree.packed()
                    probes = [pool.submit(pack.nearest_neighbors, query, 10)
                              for _ in range(8)]
                    assert all(probe.result(timeout=30) == expected for probe in probes)
        finally:
            sys.setswitchinterval(interval)

    def test_empty_tree_and_single_leaf_root(self):
        for tree in (RTree(3).packed(), PackedRTree.bulk_load(np.zeros((0, 3)), [])):
            assert tree.nearest_neighbors(np.zeros(3), k=4) == []
            _, records, visits = tree.nearest_search(4, box_bound(np.zeros(3)))
            assert records.tolist() == [] and visits == (0, 1)
        leaf = RTree(2, max_entries=8)
        for record, point in enumerate([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]]):
            leaf.insert(point, record)
        leaf = leaf.packed()
        assert leaf.nearest_neighbors([0.0, 0.0], k=2) == [(0.0, 0), (5.0, 1)]
        assert leaf.nearest_neighbors([0.0, 0.0], k=9) == [(0.0, 0), (5.0, 1), (5.0, 2)]
        for k in (2, 9):
            _, _, visits = leaf.nearest_search(k, box_bound(np.zeros(2)))
            assert visits == (0, 1)

    def test_non_positive_k_is_one_error(self):
        """Every nearest-neighbour entry point hands ``k`` to the kernel."""
        tree = PackedRTree.bulk_load(np.random.default_rng(11).uniform(size=(20, 3)),
                                     list(range(20)))
        data = random_walk_collection(8, 32, seed=1)
        for probe in (lambda: tree.nearest_neighbors(np.zeros(3), k=0),
                      lambda: tree.nearest_search(-1, box_bound(np.zeros(3))),
                      lambda: KIndex.bulk_load(data).nearest_neighbors(data[0], k=0)):
            with pytest.raises(ValueError, match="k must be positive"):
                probe()

    def test_point_of_another_dimension_is_refused(self):
        tree = PackedRTree.bulk_load(np.random.default_rng(11).uniform(size=(20, 3)),
                                     list(range(20)))
        for point in (np.zeros(1), np.zeros(2), np.zeros(4)):
            with pytest.raises(DimensionMismatchError, match="tree of dimension 3"):
                tree.nearest_neighbors(point, k=2)

    def test_non_integer_records_rank_by_distance(self):
        tree = RTree(2, max_entries=4)
        for step in range(30):
            tree.insert([float(step), 0.0], ("row", step))
        assert tree.packed().nearest_neighbors([11.2, 0.0], k=3) == [
            (pytest.approx(0.2), ("row", 11)), (pytest.approx(0.8), ("row", 12)),
            (pytest.approx(1.2), ("row", 10))]


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
        index = (KIndex.bulk_load if bulk else insertion_built)(
            data[:count], extractor)
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


def _as_pairs(answers):
    return [(series.object_id, distance) for series, distance in answers]


def scalar_bound(space, point, low, high, weight):
    """A k-NN probe's lower bound from ``point`` to one rectangle: the extras'
    interval gaps, and the features' term — the space's own scalar MINDIST
    over the features alone — times ``weight``."""
    extras, values = space.num_extra, point.values
    gaps = np.maximum(np.maximum(low[:extras] - values[:extras],
                                 values[:extras] - high[:extras]), 0.0)
    if isinstance(space, PolarSpace):
        features = PolarSpace(space.num_features).mindist_to_rectangle(
            FeatureVector(values[extras:]), low[extras:], high[extras:])
    else:
        features = scalar_mindist(values[extras:], low[extras:], high[extras:])
    return math.sqrt(float(np.sum(gaps * gaps)) + weight * features * features)


def reference_index_nearest(index, query, k, transformation, weight):
    """The per-entry walk at the k-index level: image rectangles one at a
    time, the space's scalar lower bound (its coefficient term times
    ``weight``), one full record scored per pop.  Returns (``(id,
    distance)`` answers, nodes opened, verified)."""
    linear, real_map = index.lower_transformation(transformation)
    features = index._query_features(query)
    full = (features.full_coefficients, features.mean, features.std, features.length)
    point = features.point
    if transformation is not None:
        full = query_record(features, transformation)
        point = index._transform_point(point, linear)
    slack = kindex_module.BOUND_SLACK
    scale = max(map(abs, point.values), default=0.0)

    def lower_bound(low, high):
        if weight != 1.0:
            bound = scalar_bound(index.space, point, low, high, weight)
        elif isinstance(index.space, PolarSpace):
            bound = index.space.mindist_to_rectangle(point, low, high)
        else:
            bound = scalar_mindist(point.values, low, high)
        return bound * (1.0 - slack) - slack * scale

    records = transformed_records(index.store, transformation)

    def exact(record):
        row = slice(record, record + 1)  # the scan's kernel, a record at a time
        return float(exact_distances(
            records.select(row), query_records([full]), index.extractor.include_stats)[0])

    found, opened, verified = reference_nearest(
        index.tree, k, lower_bound, exact,
        (lambda low, high: (low, high)) if real_map is None else real_map.apply_bounds,
        [(index._points[record], record)
         for record in range(len(index.tree), len(index))])
    brute = sorted((exact(record), record) for record in range(len(index)))[:k]
    assert found == brute
    return [(index.store.series(record).object_id, distance)
            for distance, record in found], opened, verified


@contextmanager
def returned_visits(kernel):
    """The ``(internal, leaf)`` visits each ``PackedRTree.<kernel>`` call
    made in the block returned, in call order."""
    visits = []
    search = getattr(PackedRTree, kernel)

    def spy(tree, *args, **kwargs):
        found = search(tree, *args, **kwargs)
        visits.append(found[-1])
        return found

    setattr(PackedRTree, kernel, spy)
    try:
        yield visits
    finally:
        setattr(PackedRTree, kernel, search)


def _tail_pages(index):
    """What a probe is charged for filtering the unindexed tail."""
    return -(-index.tail_rows // index.max_entries)  # its tree's node capacity


def check_index_nearest(index, scan, queries, transformation, ks):
    for query in queries:
        for k in ks:
            expected, opened, verified = reference_index_nearest(
                index, query, k, transformation,
                index.bound_weight(transformation, length=len(query)))
            with returned_visits("nearest_search") as returned:
                result = index.nearest_neighbors(query, k, transformation=transformation)
            assert _as_pairs(result.answers) == expected == _as_pairs(
                scan.nearest_neighbors(query, k, transformation=transformation))
            work = result.statistics
            visits = work.node_accesses - _tail_pages(index)
            assert returned == [(work.internal_node_accesses,
                                 work.leaf_node_accesses - _tail_pages(index))]
            assert opened <= visits <= opened + block_allowance(opened)
            assert work.node_accesses == (work.internal_node_accesses
                                          + work.leaf_node_accesses)
            assert verified <= work.candidates == work.postprocessed == work.record_fetches


class TestKIndexNearestAgainstScan:
    @given(seed=st.integers(0, 10_000), count=st.integers(0, 60),
           representation=st.sampled_from(["polar", "rectangular"]),
           bulk=st.booleans(), factor=st.sampled_from([None, -1.5, 0.0, 0.5, "mavg"]),
           distinct=st.sampled_from([None, 7]))
    @settings(max_examples=50, deadline=None)
    def test_nearest_equals_reference_brute_force_and_scan(
            self, seed, count, representation, bulk, factor, distinct):
        """STR-packed and insert-built trees; ``distinct`` repeats a few walks
        many times, so ties straddle the cut and only the ``(distance, id)``
        order is right."""
        walks = random_walk_collection(count + 10, 32, seed=seed)
        data = [TimeSeries(walks[n % (distinct or len(walks))].values, name=f"s{n}")
                for n in range(count + 10)]
        extractor = SeriesFeatureExtractor(2, representation=representation)
        if factor == "mavg":
            if representation == "rectangular":
                return  # a complex multiplier is not safe in Srect
            transformation = moving_average_spectral(32, 5)
        else:
            transformation = None if factor is None else scale_spectral(32, factor)
        index = (KIndex.bulk_load if bulk else insertion_built)(
            data[:count], extractor)
        scan = SequentialScan(extractor)
        scan.extend(data[:count])
        queries = [data[0], walks[-1]]
        check_index_nearest(index, scan, queries, transformation, (1, 5, count + 3))
        # Staleness: probe, grow through both mutation paths, probe again.
        index.insert(data[count])
        index.extend(data[count + 1:])
        scan.extend(data[count:])
        check_index_nearest(index, scan, queries, transformation, (1, 10))

    def test_ties_at_the_cut_follow_the_scan(self):
        """400 series drawn from 40 walks: the k-th distance is shared by
        records the cut separates, and the scan keeps the lowest ids."""
        walks = random_walk_collection(40, 64, seed=3)
        rng = np.random.default_rng(5)
        data = [TimeSeries(walks[int(pick)].values, name=f"s{n}")
                for n, pick in enumerate(rng.integers(0, 40, size=400))]
        extractor = SeriesFeatureExtractor(2)
        scan = SequentialScan(extractor)
        scan.extend(data)
        index = KIndex.bulk_load(data, extractor)
        for query in random_walk_collection(40, 64, seed=9):
            assert _as_pairs(index.nearest_neighbors(query, 5).answers) == _as_pairs(
                scan.nearest_neighbors(query, 5))

    def test_counters_count_the_rows_gathered(self, monkeypatch):
        total, reference_total = self._gathered(monkeypatch, max_entries=8)
        # The block schedule's price in node visits over the fewest any exact
        # search opens, summed over the probes (239 against 201 here; the
        # share shrinks as the tree grows).
        assert reference_total <= total <= 1.25 * reference_total

    def test_counters_count_the_rows_gathered_at_the_page_capacity(self, monkeypatch):
        # Two levels of 39-entry nodes: a block of 8 is a larger share of
        # the ~4 nodes the fewest search opens per probe.  Under the mirror
        # bound the fewest are the same 52 (so are blocks of one), but its
        # records become ready later, the k-th distance is known later, and
        # the blocks open 5 more nodes.
        assert self._gathered(monkeypatch, nearest_bound="paper") == (70, 52)
        assert self._gathered(monkeypatch) == (75, 52)

    @staticmethod
    def _gathered(monkeypatch, **options):
        """Node visits of twelve 5-NN probes, and the fewest an exact search
        opens, with every probe's counters checked against the rows its
        verification gathered."""
        data = random_walk_collection(600, 64, seed=4)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2), **options)
        gathered = []
        kernel = kindex_module.exact_distances

        def counting(*args, row_ids, **kwargs):
            gathered.append(len(row_ids))
            return kernel(*args, row_ids=row_ids, **kwargs)

        monkeypatch.setattr(kindex_module, "exact_distances", counting)
        total = reference_total = 0
        for query in random_walk_collection(12, 64, seed=6):
            del gathered[:]
            work = index.nearest_neighbors(query, 5).statistics
            assert (work.candidates == work.postprocessed == work.record_fetches
                    == sum(gathered))
            total += work.node_accesses
            reference_total += reference_index_nearest(
                index, query, 5, None, index.bound_weight(length=len(query)))[1]
        return total, reference_total

    def test_empty_index(self):
        result = KIndex().nearest_neighbors(random_walk_collection(1, 32, seed=2)[0], 3)
        assert result.answers == []
        assert result.statistics.candidates == 0


# ----------------------------------------------------------------------
# the unindexed tail
# ----------------------------------------------------------------------
def reference_index_range(index, query, epsilon, transformation):
    """Candidates of a range probe, an entry at a time: the per-entry walk of
    the index's tree, then one rectangle test per tail row.  Returns
    (ascending candidate ids, the nodes visited)."""
    linear, real_map = index.lower_transformation(transformation)
    point = index._transform_point(index._query_features(query).point, linear)
    low, high = index.space.search_rectangle(point, epsilon)
    periodic = index.space.periodic_dimension_mask()
    tree = index.tree
    clone = tree if real_map is None else tree.transformed(real_map)
    found, visited = reference_traversal(clone, low, high, periodic)
    for record in range(len(index.tree), len(index)):
        image = index._points[record]
        if real_map is not None:
            image = real_map.apply(image)
        if rects_overlap(image, image, low, high, periodic):
            found.append(record)
    return sorted(found), visited


def brute_force_range(index, query, epsilon, transformation):
    """``(object id, distance)`` of every row within ``epsilon``, by the
    scan's kernel a record at a time, in ``(distance, record id)`` order."""
    features = index._query_features(query)
    full = query_records([query_record(features, transformation)])
    records = transformed_records(index.store, transformation)
    ranked = []
    for record in range(len(index)):
        row = slice(record, record + 1)
        distance = float(exact_distances(
            records.select(row), full, index.extractor.include_stats)[0])
        if distance <= epsilon:
            ranked.append((distance, record))
    return [(index.store.series(record).object_id, distance)
            for distance, record in sorted(ranked)]


def check_index_range(index, scan, queries, epsilon, transformation, gathered):
    """Single == batched == scan == brute force, bit for bit; candidates are
    the per-entry reference's; counters count what was done."""
    pages = _tail_pages(index)
    union = set()
    with returned_visits("window_search") as returned:
        batched = index.range_query_batch(queries, epsilon, transformation=transformation)
    (batch_visits,) = map(sum, returned)
    for query, from_batch in zip(queries, batched):
        candidates, visited = reference_index_range(index, query, epsilon, transformation)
        union |= visited
        del gathered[:]
        single = index.range_query(query, epsilon, transformation=transformation)
        expected = _as_pairs(scan.range_query(query, epsilon,
                                              transformation=transformation).answers)
        assert _as_pairs(single.answers) == _as_pairs(from_batch.answers) == expected \
            == brute_force_range(index, query, epsilon, transformation)
        work = single.statistics
        assert (work.candidates == work.postprocessed == work.record_fetches
                == sum(gathered) == len(candidates) == from_batch.statistics.candidates)
        assert work.node_accesses == len(visited) + pages
        assert work.node_accesses == work.internal_node_accesses + work.leaf_node_accesses
        # Unverified: the candidates whose filter distance is within epsilon —
        # every answer among them (Lemma 1), none from outside the candidates.
        loose = index.range_query(query, epsilon, transformation=transformation,
                                  exact=False)
        ids = {series.object_id for series, _ in loose.answers}
        assert {object_id for object_id, _ in expected} <= ids \
            <= {index.store.series(record).object_id for record in candidates}
        assert loose.statistics.candidates == len(candidates)
        assert loose.statistics.postprocessed == loose.statistics.record_fetches == 0
    assert batch_visits == len(union)
    assert batched[0].statistics.node_accesses == len(union) + pages


def check_all_pairs(index, scan, epsilon, transformation):
    pairs, work = index.all_pairs(epsilon, transformation=transformation)
    expected, _ = scan.all_pairs(epsilon, transformation=transformation)
    # The index join reports ordered pairs, the scan each unordered pair once.
    assert sorted((a.object_id, b.object_id, d) for a, b, d in pairs) == sorted(
        pair for a, b, d in expected
        for pair in ((a.object_id, b.object_id, d), (b.object_id, a.object_id, d)))
    assert work.candidates == work.postprocessed == work.record_fetches


@pytest.fixture
def gathered(monkeypatch):
    """Rows the verification kernels gathered since the list was cleared."""
    counts = []
    pairs, exact = kindex_module.verify_pairs, kindex_module.exact_distances

    def counting_pairs(*args):
        counts.append(len(args[1]))
        return pairs(*args)

    def counting_exact(*args, row_ids, **kwargs):
        counts.append(len(row_ids))
        return exact(*args, row_ids=row_ids, **kwargs)

    monkeypatch.setattr(kindex_module, "verify_pairs", counting_pairs)
    monkeypatch.setattr(kindex_module, "exact_distances", counting_exact)
    return counts


#: Rows loaded first, then (rows appended, the tail expected after them)…:
#: tails of 0, 1, seal − 1, just sealed, two seals later — with
#: ``SEAL_MIN_ROWS`` lowered to 12.
TAIL_WALK = (40, [(1, 1), (11, 12), (1, 0), (13, 0), (16, 0), (3, 3)])


class TestTailDifferential:
    @pytest.mark.parametrize("max_entries", [4, 8])
    @pytest.mark.parametrize("build", ["str", "insertion"])
    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    def test_every_probe_equals_the_scan_at_every_tail_size(
            self, representation, build, max_entries, gathered, monkeypatch):
        """Probe → extend → probe, across seals: range (single, batched,
        ``mavg``, ``scale(-1.5)``, unverified), k-NN and all-pairs — from an
        STR-packed or an insert-built first tree (the first seal re-packs
        either by STR), at two node capacities (the tail's page charge)."""
        monkeypatch.setattr(kindex_module, "SEAL_MIN_ROWS", 12)
        loaded, steps = TAIL_WALK
        data = random_walk_collection(loaded + sum(rows for rows, _ in steps) + 2, 32,
                                      seed=21)
        extractor = SeriesFeatureExtractor(2, representation=representation)
        build_index = KIndex.bulk_load if build == "str" else insertion_built
        index = build_index(data[:loaded], extractor, max_entries=max_entries)
        scan = SequentialScan(extractor)
        scan.extend(data[:loaded])
        transformations = [None, scale_spectral(32, -1.5)] + (
            [moving_average_spectral(32, 5)] if representation == "polar" else [])
        stored = loaded
        for rows, tail in [(0, 0)] + steps:
            index.extend(data[stored:stored + rows])
            scan.extend(data[stored:stored + rows])
            stored += rows
            assert (index.tail_rows, len(index)) == (tail, stored)
            # One query in the packed rows, one in the newest, one in neither.
            queries = [data[3], data[stored - 1], data[-1]]
            for transformation in transformations:
                check_index_range(index, scan, queries, 4.0, transformation, gathered)
                check_index_nearest(index, scan, queries[1:], transformation,
                                    (1, 5, stored + 3))
            if tail in (0, 12):
                check_all_pairs(index, scan, 3.0, transformations[-1])

    @pytest.mark.parametrize("build", ["str", "insertion"])
    @pytest.mark.parametrize("factor", [None, -1.5])
    def test_duplicate_of_the_query_in_the_tail(self, factor, build):
        """A tail row and a packed row both at distance zero: ascending id."""
        data = random_walk_collection(300, 32, seed=22)
        build_index = KIndex.bulk_load if build == "str" else insertion_built
        index = build_index(data, SeriesFeatureExtractor(2))
        packed = len(index.tree)
        twin = TimeSeries(data[7].values, name="twin")
        index.extend([twin])
        assert index.tail_rows == len(index) - packed > 0
        transformation = None if factor is None else scale_spectral(32, factor)
        found = index.range_query(data[7], 1e-6, transformation=transformation)
        assert _as_pairs(found.answers) == [(data[7].object_id, 0.0),
                                            (twin.object_id, 0.0)]
        nearest = index.nearest_neighbors(data[7], 1, transformation=transformation)
        assert _as_pairs(nearest.answers) == [(data[7].object_id, 0.0)]
        nearest = index.nearest_neighbors(twin, 2, transformation=transformation)
        assert _as_pairs(nearest.answers) == [(data[7].object_id, 0.0),
                                              (twin.object_id, 0.0)]

    def test_the_seal_rule_with_its_real_constants(self):
        """An empty tree packs its first batch whole; after that the tail
        holds up to ``max(SEAL_MIN_ROWS, len(tree) // SEAL_SHARE)`` rows."""
        data = random_walk_collection(600, 32, seed=23)
        index = KIndex(SeriesFeatureExtractor(2))
        index.extend(data[:5])
        assert (len(index.tree), index.tail_rows) == (5, 0)
        index.extend(data[5:5 + kindex_module.SEAL_MIN_ROWS])
        assert (len(index.tree), index.tail_rows) == (5, kindex_module.SEAL_MIN_ROWS)
        scan = SequentialScan(index.extractor)
        scan.extend(data[:len(index)])
        assert _as_pairs(index.nearest_neighbors(data[-1], 5).answers) == _as_pairs(
            scan.nearest_neighbors(data[-1], 5))
        index.insert(data[5 + kindex_module.SEAL_MIN_ROWS])
        assert (len(index.tree), index.tail_rows) == (len(index), 0)
        assert isinstance(index.tree, PackedRTree)

    def test_a_failed_batch_changes_nothing(self):
        data = random_walk_collection(40, 32, seed=24)
        index = KIndex.bulk_load(data[:30])
        tree, before = index.tree, index.range_query(data[0], 5.0)
        with pytest.raises(IndexError_, match="'oops' is not a time series"):
            index.extend(data[30:] + ["oops"])
        assert len(index) == len(index.store) == 30 and index.tree is tree
        assert _as_pairs(index.range_query(data[0], 5.0).answers) == \
            _as_pairs(before.answers)
        with pytest.raises(IndexError_):
            index.insert(None)
        assert len(index) == 30

    def test_concurrent_readers_across_seals(self, monkeypatch):
        """Readers the server lets in together after each write, some of
        which sealed the tail: all see every row written so far."""
        monkeypatch.setattr(kindex_module, "SEAL_MIN_ROWS", 40)
        data = random_walk_collection(420, 32, seed=25)
        extractor = SeriesFeatureExtractor(2)
        scan = SequentialScan(extractor)
        scan.extend(data[:100])
        index = KIndex.bulk_load(data[:100], extractor)
        query = data[-1]
        tree = index.tree
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for written in range(100, 400, 25):
                    scan.extend(data[written:written + 25])
                    ranged = _as_pairs(scan.range_query(query, 6.0).answers)
                    nearest = _as_pairs(scan.nearest_neighbors(query, 7))
                    index.extend(data[written:written + 25])
                    probes = [pool.submit(index.range_query, query, 6.0)
                              for _ in range(4)]
                    probes += [pool.submit(index.nearest_neighbors, query, 7)
                               for _ in range(4)]
                    found = [_as_pairs(probe.result(timeout=30).answers)
                             for probe in probes]
                    assert found == [ranged] * 4 + [nearest] * 4
        finally:
            sys.setswitchinterval(interval)
        assert index.tree is not tree
