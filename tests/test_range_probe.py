"""The range probe does only the work that depends on its query.

A tree keeps what depends on the tree and the map alone: its image under a
lowered transformation (:meth:`PackedRTree.transformed`, built once per map),
a point level's corners held once (``highs is lows``), and each level's
corner table with the angular centres and half-widths of the periodic test.
A single window is broadcast.  None of that may move an answer or a counter,
so the frontier kernel it replaced is kept here as the reference: it mapped
every gathered level on the fly, repeated each window per entry and charged
nodes through a per-level mask.

Also here: the paper's currency on 5 000 walks pinned by count, the node
access counters of concurrent readers of one tree, and the life cycle of the
caches (a seal publishes a new tree and with it a fresh image; both caches
stay bounded; an unsafe map is never kept).
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    KIndex,
    SequentialScan,
    SeriesFeatureExtractor,
    TimeSeries,
    random_walk_collection,
)
from repro.core.errors import UnsafeTransformationError
from repro.core.transformations import RealLinearTransformation
from repro.index import kindex as kindex_module
from repro.index.geometry import angular_dims, angular_halves, rects_overlap
from repro.index.rstar import RStarTree
from repro.index.rtree import PackedRTree
from repro.storage import codec
from repro.storage.durable.serde import _deserialize_tree, _serialize_tree
from repro.timeseries.transforms import moving_average_spectral

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# the replaced kernel
# ----------------------------------------------------------------------
def reference_overlap(lows, highs, window_lows, window_highs, periodic_dims=None):
    """The overlap rule as it was: the angular index and both sides' centres
    and half-widths derived on every call."""
    hits = (lows <= window_highs) & (window_lows <= highs)
    angular = () if periodic_dims is None else np.flatnonzero(periodic_dims)
    if len(angular):
        entry_half = (highs[..., angular] - lows[..., angular]) * 0.5
        entry_center = lows[..., angular] + entry_half
        window_half = (window_highs[..., angular] - window_lows[..., angular]) * 0.5
        window_center = window_lows[..., angular] + window_half
        gap = np.abs((entry_center - window_center + math.pi) % TWO_PI - math.pi)
        wrapped = gap <= entry_half + window_half
        hits[..., angular] |= wrapped | (entry_half >= math.pi) | (window_half >= math.pi)
    return hits.all(axis=-1)


def reference_window_search(
    tree, window_lows, window_highs, transformation=None, periodic_dims=None
):
    """The frontier kernel as it was; returns ``(record arrays, internal
    visits, leaf visits)``."""
    window_lows = np.asarray(window_lows, dtype=np.float64)
    window_highs = np.asarray(window_highs, dtype=np.float64)
    num_windows = window_lows.shape[0]
    visits = {True: 0, False: 0}
    nodes = np.zeros(num_windows, dtype=np.intp)
    queries = np.arange(num_windows, dtype=np.intp)
    for level in tree.levels:
        opened = np.zeros(len(level.counts), dtype=bool)
        opened[nodes] = True
        visits[level.is_leaf] += int(np.count_nonzero(opened))
        counts = level.counts[nodes]
        first = level.starts[nodes] - np.cumsum(counts) + counts
        entries = np.repeat(first, counts) + np.arange(counts.sum())
        queries = np.repeat(queries, counts)
        lows, highs = level.lows[entries], level.highs[entries]
        if transformation is not None:
            lows, highs = transformation.apply_bounds(lows, highs)
        keep = reference_overlap(
            lows, highs, window_lows[queries], window_highs[queries], periodic_dims
        )
        nodes, queries = level.payloads[entries[keep]], queries[keep]
    records = nodes
    order = (
        np.argsort(queries, kind="stable")
        if records.dtype == object
        else np.lexsort((records, queries))
    )
    cuts = np.searchsorted(queries[order], np.arange(1, num_windows))
    return np.split(records[order], cuts), visits[False], visits[True]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
#: Periodic masks: none, the polar layout's every other coordinate (a slice),
#: and an uneven one (an index array).
MASKS = {
    "none": np.zeros(6, dtype=bool),
    "polar": np.array([False, False, False, True, False, True]),
    "uneven": np.array([True, False, False, True, True, False]),
}


def _data(rng, count, mask):
    points = rng.uniform(-40.0, 40.0, size=(count, mask.shape[0]))
    points[:, mask] = rng.uniform(-math.pi, math.pi, size=(count, int(mask.sum())))
    return points


def _trees(rng, mask):
    """Point and rectangle trees, packed by STR and grown by insertion."""
    points = _data(rng, 400, mask)
    spans = rng.uniform(0.0, 3.0, size=points.shape)
    records, names = np.arange(400), [f"r{i}" for i in range(400)]
    yield "str-points", PackedRTree.bulk_load(points, records, max_entries=6), points
    yield "str-objects", PackedRTree.bulk_load(points, names, max_entries=6), points
    rects = PackedRTree.bulk_load_rects(points - spans, points + spans, records, max_entries=6)
    yield "str-rects", rects, points
    grower = RStarTree(mask.shape[0], max_entries=6)
    for record, point in enumerate(points[:150]):
        grower.insert(point, record)
    yield "grown-points", grower.packed(), points


def _windows(rng, count, points, mask, transformation):
    """Windows around stored points (some of zero width, as at ε = 0) and
    around random centres, some wider than a full turn."""
    centers = points[rng.integers(0, len(points), size=count)]
    if transformation is not None:
        centers = transformation.apply(centers)
    half = rng.uniform(0.5, 20.0, size=centers.shape)
    half[:, mask] = rng.uniform(0.05, 1.5, size=(count, int(mask.sum())))
    half[rng.random(count) < 0.25] = 0.0
    wide = (rng.random(size=centers.shape) < 0.15) & mask
    half[wide] = rng.uniform(math.pi, 3 * math.pi, size=int(wide.sum()))
    return centers - half, centers + half


def _maps(rng, dimension):
    yield None
    scale = rng.uniform(0.3, 2.0, size=dimension) * rng.choice([-1.0, 0.0, 1.0], size=dimension)
    yield RealLinearTransformation(scale, rng.uniform(-5.0, 5.0, size=dimension))


# ----------------------------------------------------------------------
# the kernel against the loop it replaced
# ----------------------------------------------------------------------
class TestTheKernelIsTheReplacedLoop:
    @pytest.mark.parametrize("mask_name", sorted(MASKS))
    def test_records_and_visits_match(self, mask_name):
        mask = MASKS[mask_name]
        rng = np.random.default_rng(3200 + len(mask_name))
        for name, tree, points in _trees(rng, mask):
            for transformation in _maps(rng, mask.shape[0]):
                lows, highs = _windows(rng, 12, points, mask, transformation)
                batches = [(lows[i : i + 1], highs[i : i + 1]) for i in range(12)]
                batches.append((lows, highs))
                for window_lows, window_highs in batches:
                    expected, internal, leaf = reference_window_search(
                        tree, window_lows, window_highs, transformation, mask
                    )
                    tree.reset_stats()
                    got = tree.window_search(window_lows, window_highs, transformation, mask)
                    assert len(got) == len(expected), name
                    for found, want in zip(got, expected):
                        assert found.dtype == want.dtype
                        assert found.tolist() == want.tolist(), name
                    stats = tree.access_stats
                    assert (stats.internal, stats.leaf) == (internal, leaf), name

    def test_the_overlap_rule_with_derived_halves(self):
        """Halves passed in, halves derived, a slice or an index array for
        the angular coordinates, points as points: all the same bits as the
        rule that derived everything on every call."""
        rng = np.random.default_rng(3210)
        for mask in MASKS.values():
            angular = angular_dims(mask)
            assert (angular is None) == (not mask.any())
            points = _data(rng, 300, mask)
            lows, highs = points - rng.uniform(0.0, 2.0, size=points.shape), points
            window_lows, window_highs = _windows(rng, 1, points, mask, None)
            for entry_lows, entry_highs in ((lows, highs), (points, points)):
                want = reference_overlap(entry_lows, entry_highs, window_lows, window_highs, mask)
                got = rects_overlap(entry_lows, entry_highs, window_lows, window_highs, mask)
                assert got.tolist() == want.tolist()
                if angular is None:
                    continue
                halves = angular_halves(entry_lows, entry_highs, angular)
                window_halves = angular_halves(window_lows, window_highs, angular)
                got = rects_overlap(
                    entry_lows,
                    entry_highs,
                    window_lows,
                    window_highs,
                    mask,
                    halves=halves,
                    window_halves=window_halves,
                )
                assert got.tolist() == want.tolist()
                assert angular_halves(points, points, angular)[1] == 0.0


# ----------------------------------------------------------------------
# the paper's currency, pinned by count
# ----------------------------------------------------------------------
class TestTheCurrencyIsPinned:
    """24 noisy range probes on 5 000 walks of 128 points, plain and under
    ``mavg10``: the node accesses, candidates and answers they sum to are the
    counts of the kernel this one replaced, on 8-entry nodes, and at the page
    capacity the index packs by default (the same candidates and answers)."""

    #: transformation → (node accesses, internal, candidates, answers,
    #: node accesses of the 24 as one batch).
    PINNED = {None: (2524, 395, 13104, 118, 697), "mavg10": (2524, 395, 13131, 382, 697)}
    #: The same at the page capacity (39 entries a node, 3 levels).
    PINNED_AT_THE_PAGE_CAPACITY = {
        None: (522, 61, 13104, 118, 130),
        "mavg10": (522, 61, 13131, 382, 130),
    }

    def test_counts(self):
        data = random_walk_collection(5000, 128, seed=11)
        self._check(KIndex.bulk_load(data, SeriesFeatureExtractor(2), max_entries=8), self.PINNED)

    def test_counts_at_the_page_capacity(self):
        data = random_walk_collection(5000, 128, seed=11)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2))
        assert index.max_entries == 39
        self._check(index, self.PINNED_AT_THE_PAGE_CAPACITY)

    @staticmethod
    def _check(index, pins):
        data = index.series_list()
        rng = np.random.default_rng(32)
        probes = [
            (
                TimeSeries(data[row].values + rng.uniform(-0.5, 0.5, 128)),
                float(rng.uniform(5.0, 9.0)),
            )
            for row in rng.choice(len(data), 24, replace=False).tolist()
        ]
        for name, pinned in pins.items():
            transformation = None if name is None else moving_average_spectral(128, 10)
            results = [
                index.range_query(query, epsilon, transformation=transformation)
                for query, epsilon in probes
            ]
            batch = index.range_query_batch(
                [query for query, _ in probes],
                [epsilon for _, epsilon in probes],
                transformation=transformation,
            )
            assert [result.answers for result in batch] == [result.answers for result in results]
            totals = (
                sum(result.statistics.node_accesses for result in results),
                sum(result.statistics.internal_node_accesses for result in results),
                sum(result.statistics.candidates for result in results),
                sum(len(result) for result in results),
                batch[0].statistics.node_accesses,
            )
            assert totals == pinned


# ----------------------------------------------------------------------
# concurrent readers
# ----------------------------------------------------------------------
class TestConcurrentReadersCountTheirOwnNodes:
    """Node accesses are counted per thread: two readers probing one index at
    once each read the counts of their own probes, exactly as if alone."""

    def test_two_threads_probe_one_index(self):
        data = random_walk_collection(1500, 64, seed=5)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2))
        mavg = moving_average_spectral(64, 4)
        probes = [
            (data[row], 2.0 + row % 5, None if row % 2 else mavg) for row in range(0, 1500, 75)
        ]

        def counts(query, epsilon, transformation):
            if epsilon == 6.0:
                work = index.nearest_neighbors(query, 3, transformation=transformation)
            else:
                work = index.range_query(query, epsilon, transformation=transformation)
            work = work.statistics
            return work.node_accesses, work.internal_node_accesses, work.leaf_node_accesses

        alone = [counts(*probe) for probe in probes]

        def reader():
            return [[counts(*probe) for probe in probes] for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                readers = [pool.submit(reader) for _ in range(2)]
                seen = [loop for future in readers for loop in future.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert all(loop == alone for loop in seen)

    def test_counters_are_the_calling_threads(self):
        tree = PackedRTree.bulk_load(np.arange(40.0).reshape(20, 2), np.arange(20), max_entries=4)
        image = tree.transformed(RealLinearTransformation([2.0, -1.0], [1.0, 0.0]))
        tree.reset_stats()
        image.window_search(np.full((1, 2), -100.0), np.full((1, 2), 100.0))
        here = (tree.access_stats.internal, tree.access_stats.leaf)
        assert here[1] == 5 and image.access_stats is tree.access_stats
        with ThreadPoolExecutor(max_workers=1) as pool:
            there = pool.submit(lambda: tree.access_stats.total).result()
        assert there == 0 and (tree.access_stats.internal, tree.access_stats.leaf) == here


# ----------------------------------------------------------------------
# the caches' life cycle
# ----------------------------------------------------------------------
def _pairs(answers):
    return [(series.object_id, distance) for series, distance in answers]


class TestTheCaches:
    def test_a_seal_publishes_a_fresh_image(self, monkeypatch):
        monkeypatch.setattr(kindex_module, "SEAL_MIN_ROWS", 16)
        data = random_walk_collection(400, 64, seed=8)
        index = KIndex.bulk_load(data[:300], SeriesFeatureExtractor(2))
        scan = SequentialScan(SeriesFeatureExtractor(2))
        scan.extend(data[:300])
        mavg = moving_average_spectral(64, 4)
        _, real_map = index.lower_transformation(mavg)
        index.range_query(data[0], 3.0, transformation=mavg)
        before = index.tree
        assert before.transformed(real_map) is before.transformed(real_map)
        index.extend(data[300:])
        scan.extend(data[300:])
        assert index.tree is not before and index.tail_rows == 0
        assert index.tree._images == {}
        for query in (data[0], data[350], data[399]):
            got = index.range_query(query, 3.0, transformation=mavg)
            want = scan.range_query(query, 3.0, transformation=mavg)
            assert _pairs(got.answers) == _pairs(want.answers)
            assert query.object_id in {series.object_id for series in got.series()}
        assert set(index.tree._images) == {id(real_map)}

    def test_both_caches_stay_bounded(self):
        data = random_walk_collection(200, 64, seed=9)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2))
        for window in range(2, 22):
            transformation = moving_average_spectral(64, window)
            linear, real_map = index.lower_transformation(transformation)
            assert index.lower_transformation(transformation) == (linear, real_map)
            index.range_query(data[window], 2.0, transformation=transformation)
            assert index.tree.transformed(real_map) is index.tree.transformed(real_map)
            assert len(index._lowered) <= 8 and len(index.tree._images) <= 8

    def test_an_unsafe_map_raises_every_time(self):
        data = random_walk_collection(40, 64, seed=10)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2, "rectangular"))
        mavg = moving_average_spectral(64, 5)
        for _ in range(2):
            with pytest.raises(UnsafeTransformationError):
                index.range_query(data[0], 1.0, transformation=mavg)
            with pytest.raises(UnsafeTransformationError):
                index.lower_transformation(mavg)
        assert index._lowered == {}

    def test_point_trees_hold_one_leaf_corner_array(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(-5.0, 5.0, size=(300, 3))
        loaded = PackedRTree.bulk_load(points, np.arange(300), max_entries=5)
        restored = _deserialize_tree(codec.decode(codec.encode(_serialize_tree(loaded))), points, 5)
        scale = RealLinearTransformation([2.0, -1.0, 0.5], [1.0, 2.0, 3.0])
        for tree in (loaded, restored, loaded.transformed(scale)):
            *internal, leaves = tree.levels
            assert leaves.highs is leaves.lows
            assert all(level.highs is not level.lows for level in internal)
        leaves = loaded.levels[-1].lows
        image = loaded.transformed(scale).levels[-1].lows
        assert np.array_equal(image, scale.apply_bounds(leaves, leaves)[1])
        rects = PackedRTree.bulk_load_rects(points, points + 1.0, np.arange(300))
        assert rects.levels[-1].highs is not rects.levels[-1].lows
