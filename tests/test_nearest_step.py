"""A best-first k-NN step does only the work that depends on its query.

A step of :meth:`PackedRTree.nearest_search` pops its block of pending nodes
from a heap, slices their entries out of their level as Python-int spans, and
bounds them from the level's query-independent table
(:class:`~repro.core.spaces.RectangleBound`: the coordinates of a point level,
the clamped radii, middle rays and half-widths of a level of sectors) — built
once and kept with the immutable tree.  A point leaf is bounded as points.
None of that may move a node access, a candidate or a bit of a distance, so
the kernel and the bounds it replaced are kept here as the reference: a sorted
pending array concatenated, argsorted and searched every step, entries
gathered through their row numbers, and bounds that derived every sector from
the corners on every call.

Also here: the benchmark's k-NN work, pinned by count.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro import KIndex, SeriesFeatureExtractor, TimeSeries, connect, random_walk_collection
from repro.core.objects import FeatureVector
from repro.core.query.costmodel import QueryCostModel
from repro.core.spaces import TWO_PI, PolarSpace, RectangleBound
from repro.core.transformations import RealLinearTransformation
from repro.index import kindex as kindex_module
from repro.index.geometry import box_bound, mindist_batch
from repro.index.rstar import RStarTree
from repro.index.rtree import PackedRTree
from repro.storage import codec
from repro.storage.columnar import exact_distances
from repro.storage.durable.serde import _deserialize_tree, _serialize_tree
from repro.timeseries.transforms import moving_average_spectral, scale_spectral

ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# the replaced kernel and bounds
# ----------------------------------------------------------------------
def reference_box_bound(point, lows, highs):
    """``mindist_batch`` as it was: rows clamped, summed along each row."""
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    clamped = np.clip(p, lows, highs)
    delta = p - clamped
    return np.sqrt(np.sum(delta * delta, axis=1))


def reference_polar_bound(space, query, lows, highs):
    """``PolarSpace.mindist_to_rectangles`` as it was: every sector derived
    from its corners on every call, points included."""
    values = query.values
    extras = space.num_extra
    gaps = np.maximum(
        np.maximum(lows[:, :extras] - values[:extras], values[:extras] - highs[:, :extras]), 0.0
    )
    magnitudes, angles = values[extras::2], values[extras + 1 :: 2]
    radius_low = np.maximum(lows[:, extras::2], 0.0)
    radius_high = highs[:, extras::2]
    angle_low = lows[:, extras + 1 :: 2]
    half_width = (highs[:, extras + 1 :: 2] - angle_low) * 0.5
    turn = np.fmod(np.abs(angles - (angle_low + half_width)), TWO_PI)
    outside = np.maximum(np.minimum(turn, TWO_PI - turn) - half_width, 0.0)
    radius = np.minimum(
        np.maximum(magnitudes * np.cos(outside), np.minimum(radius_low, radius_high)),
        np.maximum(radius_low, radius_high),
    )
    chord = np.sin(outside * 0.5)
    squared = (magnitudes - radius) ** 2 + (4.0 * magnitudes) * radius * (chord * chord)
    return np.sqrt((gaps * gaps).sum(axis=1) + squared.sum(axis=1))


_SLOT_SPAN = 1 << 32  # a pending node was ``level number * span + slot``


def reference_nearest_search(tree, k, lower_bound, exact=None, transformation=None, seeds=None):
    """The kernel as it was; returns ``(distances, records, internal visits,
    leaf visits)``."""
    image = tree if transformation is None else tree.transformed(transformation)
    visits = {True: 0, False: 0}
    node_bounds = np.zeros(1)
    node_refs = np.zeros(1, dtype=np.int64)
    record_bounds = np.zeros(0)
    records = np.zeros(0, dtype=np.intp)
    if seeds is not None:
        points = seeds[0] if transformation is None else transformation.apply(seeds[0])
        record_bounds, records = lower_bound(points, points), seeds[1]
    found_distances, found_records = [np.zeros(0)], [records[:0]]
    nearest = np.zeros(0)
    kth = math.inf
    block = 1
    while True:
        ready = record_bounds <= min(node_bounds[0] if node_bounds.size else math.inf, kth)
        if np.count_nonzero(ready):
            distances = record_bounds[ready] if exact is None else exact(records[ready])
            found_distances.append(distances)
            found_records.append(records[ready])
            record_bounds, records = record_bounds[~ready], records[~ready]
            nearest = np.concatenate((nearest, distances))
            if nearest.size >= k:
                nearest = np.partition(nearest, k - 1)[:k]
                kth = float(nearest[k - 1])
        within = int(np.searchsorted(node_bounds, kth, side="right"))
        node_bounds, node_refs = node_bounds[:within], node_refs[:within]
        if not within:
            break
        opened = {}
        for ref in node_refs[:block].tolist():
            opened.setdefault(ref // _SLOT_SPAN, []).append(ref % _SLOT_SPAN)
        node_bounds, node_refs = node_bounds[block:], node_refs[block:]
        block = min(2 * block, 8)
        lows, highs, children = [], [], []
        for number, slots in opened.items():
            level, slots = image.levels[number], np.array(slots, dtype=np.intp)
            visits[level.is_leaf] += len(slots)
            counts = level.counts[slots]
            first = level.starts[slots] - np.cumsum(counts) + counts
            rows = np.repeat(first, counts) + np.arange(counts.sum())
            lows.append(level.lows[rows])
            highs.append(level.highs[rows])
            children.append(
                (level.payloads[rows], None if level.is_leaf else (number + 1) * _SLOT_SPAN)
            )
        lows, highs = np.concatenate(lows), np.concatenate(highs)
        bounds = lower_bound(lows, highs)
        stop, pending = 0, node_bounds.size
        for payloads, below in children:
            start, stop = stop, stop + payloads.size
            if below is None:
                record_bounds = np.concatenate((record_bounds, bounds[start:stop]))
                records = np.concatenate((records, payloads))
            else:
                node_bounds = np.concatenate((node_bounds, bounds[start:stop]))
                node_refs = np.concatenate((node_refs, below + payloads))
        if node_bounds.size > pending:
            order = np.argsort(node_bounds, kind="stable")
            node_bounds, node_refs = node_bounds[order], node_refs[order]
    distances, records = np.concatenate(found_distances), np.concatenate(found_records)
    order = (
        np.argsort(distances, kind="stable")
        if records.dtype == object
        else np.lexsort((records, distances))
    )
    return distances[order], records[order], visits[False], visits[True]


def assert_same_search(got, want, stats):
    """Arrays equal bit for bit, dtype included, and the visits exactly."""
    (distances, records), (want_distances, want_records, internal, leaf) = got, want
    assert distances.dtype == want_distances.dtype == np.float64
    assert distances.tobytes() == want_distances.tobytes()
    assert records.dtype == want_records.dtype
    assert records.tolist() == want_records.tolist()
    assert (stats.internal, stats.leaf) == (internal, leaf)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
#: (bound, coefficients, extras): the box bound and the polar layout's sector
#: bound at 2, 4, 8 and 16 coefficients, with and without the two statistics.
SPACES = [
    (kind, features, extras)
    for kind in ("box", "polar")
    for features in (2, 4, 8, 16)
    for extras in (0, 2)
]
SPACE_IDS = [
    f"{kind}-{features}{'-stats' if extras else ''}" for kind, features, extras in SPACES
]


def _layout(kind, features, extras):
    return None if kind == "box" else PolarSpace(features, extras)


def _points(rng, count, features, extras, polar):
    """Points of the layout, a few of them repeated (duplicates) and, in
    polar, a few magnitudes exactly zero."""
    points = rng.normal(scale=6.0, size=(count, extras + 2 * features))
    if polar:
        points[:, extras::2] = np.abs(points[:, extras::2])
        points[rng.random(count) < 0.05, extras] = 0.0
        points[:, extras + 1 :: 2] = rng.uniform(-math.pi, math.pi, size=(count, features))
    points[rng.integers(0, count, size=count // 8)] = points[rng.integers(0, count)]
    return points


def _bounds(kind, space, query):
    """(the split bound, the same bound as a plain callable, the reference)."""
    if space is None:
        return (
            box_bound(query),
            partial(mindist_batch, query),
            partial(reference_box_bound, query),
        )
    point = FeatureVector(query)
    return (
        space.sector_bound(point),
        partial(space.mindist_to_rectangles, point),
        partial(reference_polar_bound, space, point),
    )


def _trees(rng, points, fill):
    """STR points, objects and rectangles, a grown tree and a reopened one,
    in nodes of ``fill`` entries."""
    count, dimension = points.shape
    ids = np.arange(count)
    packed = PackedRTree.bulk_load(points, ids, max_entries=fill)
    yield "str-points", packed
    names = [f"r{i}" for i in range(count)]
    yield "str-objects", PackedRTree.bulk_load(points, names, max_entries=fill)
    spans = rng.uniform(0.0, 2.0, size=points.shape) * (rng.random(points.shape) < 0.7)
    rects = PackedRTree.bulk_load_rects(points - spans, points + spans, ids, max_entries=fill)
    yield "str-rects", rects
    grower = RStarTree(dimension, max_entries=fill)
    for record, point in enumerate(points):
        grower.insert(point, record)
    yield "grown", grower.packed()
    payload = codec.decode(codec.encode(_serialize_tree(packed)))
    yield "reopened", _deserialize_tree(payload, points, fill)


def _maps(rng, dimension):
    """No map, and one with negative and zero scales (in polar it maps some
    magnitudes below zero, where a point is bounded as a sector)."""
    yield None
    scale = rng.uniform(0.3, 2.0, size=dimension) * rng.choice([-1.0, 0.0, 1.0], size=dimension)
    yield RealLinearTransformation(scale, rng.uniform(-3.0, 3.0, size=dimension))


def _exact(points, transformation, query, names=None):
    """A verification distance of a record, along another path than any
    bound: the image point's distance to the query plus a record-dependent
    excess, so ties and near-ties of bound and distance both occur."""
    images = points if transformation is None else transformation.apply(points)

    def exact(records):
        rows = np.array([names[r] if isinstance(r, str) else r for r in records], dtype=np.intp)
        return np.linalg.norm(images[rows] - query, axis=1) + 0.125 * (rows % 3)

    return exact


# ----------------------------------------------------------------------
# the bounds against the formulas they replaced
# ----------------------------------------------------------------------
class TestTheBoundsAreTheReplacedFormulas:
    @pytest.mark.parametrize("kind,features,extras", SPACES, ids=SPACE_IDS)
    def test_rectangles_points_and_negative_radii(self, kind, features, extras):
        space = _layout(kind, features, extras)
        rng = np.random.default_rng(3400 + 10 * features + extras + (kind == "polar"))
        dimension = extras + 2 * features
        for _ in range(20):
            points = _points(rng, 40, features, extras, space is not None)
            spread = rng.uniform(0.0, 3.0, size=points.shape) * (rng.random(points.shape) < 0.8)
            lows, highs = points - spread, points + rng.uniform(0.0, 3.0, size=points.shape)
            if space is not None:
                lows[:, extras + 1 :: 2] += 7.0 * (rng.random((40, features)) < 0.1)
                width = rng.uniform(0.0, 9.0, size=(40, features))
                highs[:, extras + 1 :: 2] = lows[:, extras + 1 :: 2] + width
                lows[rng.random(40) < 0.2, extras] *= -1.0  # inner radius below zero
            negative = points.copy()
            negative[rng.random(40) < 0.3, extras] *= -1.0  # magnitudes below zero
            query = _points(rng, 1, features, extras, space is not None)[0]
            split, plain, reference = _bounds(kind, space, query)
            for corners in ((lows, highs), (points, points), (negative, negative)):
                want = reference(*corners).tobytes()
                assert split(*corners).tobytes() == want
                assert plain(*corners).tobytes() == want
                # Any columns of the table give the bounds of their rows.
                table = split.table(*corners)
                assert table.shape[0] in (dimension, 2 * dimension)
                subset = rng.permutation(40)[:17]
                columns = split.of_table(table[:, subset])
                rows = reference(corners[0][subset], corners[1][subset])
                assert columns.tobytes() == rows.tobytes()

    def test_a_point_table_is_the_points(self):
        """The query-independent part of a point level is its coordinates —
        unless a magnitude is below zero; rectangles carry the sector."""
        rng = np.random.default_rng(3410)
        space = PolarSpace(2, 2)
        points = _points(rng, 30, 2, 2, True)
        assert np.array_equal(space.sector_table(points, points), points.T)
        assert space.sector_table(points, points).flags.c_contiguous
        negative = points.copy()
        negative[3, 2] = -1.0
        assert space.sector_table(negative, negative).shape == (12, 30)
        assert space.sector_table(points, points.copy()).shape == (12, 30)
        assert box_bound(points[0]).table(points, points).shape == (6, 30)
        assert isinstance(box_bound(points[0]), RectangleBound)


# ----------------------------------------------------------------------
# the kernel against the loop it replaced
# ----------------------------------------------------------------------
class TestTheKernelIsTheReplacedLoop:
    @pytest.mark.parametrize("kind,features,extras", SPACES, ids=SPACE_IDS)
    def test_trees_maps_tails_and_every_k(self, kind, features, extras):
        """Every tree kind, under no map and a map with negative and zero
        scales, with and without a tail of seeds, with and without an
        ``exact``, through the split bound and the plain callable, for
        k = 1 … n + 3."""
        space = _layout(kind, features, extras)
        rng = np.random.default_rng(3420 + 10 * features + extras + (kind == "polar"))
        points = _points(rng, 24, features, extras, space is not None)
        tail = _points(rng, 4, features, extras, space is not None)
        both = np.concatenate((points, tail))
        names = {f"r{i}": i for i in range(len(both))}
        for _, tree in _trees(rng, points, 3):
            for transformation in _maps(rng, points.shape[1]):
                image = both if transformation is None else transformation.apply(both)
                query = image[rng.integers(0, len(both))].copy()
                query += rng.normal(scale=0.5, size=points.shape[1]) * (rng.random() < 0.7)
                bounds = _bounds(kind, space, query)
                exact = _exact(both, transformation, query, names)
                for seeds in (None, (tail, np.arange(24, 28))):
                    for k in range(1, len(points) + 4):
                        check = exact if k % 3 else None
                        want = reference_nearest_search(
                            tree, k, bounds[2], check, transformation, seeds
                        )
                        tree.reset_stats()
                        got = tree.nearest_search(k, bounds[k % 2], check, transformation, seeds)
                        assert_same_search(got, want, tree.access_stats)

    @pytest.mark.parametrize("kind,features,extras", SPACES[::3], ids=SPACE_IDS[::3])
    def test_larger_trees(self, kind, features, extras):
        """400 points in nodes of 6 (five levels): steps open several nodes
        of several levels at once."""
        space = _layout(kind, features, extras)
        rng = np.random.default_rng(3430 + features + extras)
        points = _points(rng, 400, features, extras, space is not None)
        for _, tree in _trees(rng, points, 6):
            for transformation in _maps(rng, points.shape[1]):
                image = points if transformation is None else transformation.apply(points)
                for _ in range(3):
                    query = image[rng.integers(0, 400)] + rng.normal(size=points.shape[1])
                    exact = _exact(points, transformation, query, {f"r{i}": i for i in range(400)})
                    for k in (1, 5, 10, 60, 403):
                        split, _, reference = _bounds(kind, space, query)
                        want = reference_nearest_search(tree, k, reference, exact, transformation)
                        tree.reset_stats()
                        got = tree.nearest_search(k, split, exact, transformation)
                        assert_same_search(got, want, tree.access_stats)

    def test_bounds_that_tie(self):
        """Points on the eight corners of a cube around the query, under
        shuffled object payloads: every record's distance ties, and so do
        the bounds of the nodes on each side.  Only the order pending nodes
        were pushed in — old before new, and a step's levels in the order
        its block met them — decides which are opened together and in what
        order the records are verified, which the answer keeps."""
        rng = np.random.default_rng(1)
        for _ in range(12):
            count, max_entries = int(rng.integers(50, 400)), int(rng.integers(3, 6))
            points = rng.choice([-1.0, 1.0], size=(count, 3))
            names = [f"r{i}" for i in rng.permutation(count)]
            tree = PackedRTree.bulk_load(points, names, max_entries=max_entries)
            for k in (1, 7, count):
                want = reference_nearest_search(tree, k, partial(reference_box_bound, np.zeros(3)))
                tree.reset_stats()
                got = tree.nearest_search(k, box_bound(np.zeros(3)))
                assert_same_search(got, want, tree.access_stats)

    def test_the_empty_tree_and_a_leaf_root(self):
        for count in (0, 3):
            points = np.arange(3.0 * count).reshape(count, 3)
            tree = PackedRTree.bulk_load(points, np.arange(count), max_entries=4)
            query = np.array([0.5, -1.0, 2.0])
            for k in (1, 4):
                want = reference_nearest_search(tree, k, partial(reference_box_bound, query))
                tree.reset_stats()
                got = tree.nearest_search(k, box_bound(query))
                assert_same_search(got, want, tree.access_stats)


# ----------------------------------------------------------------------
# the k-index's probes against the loop they replaced
# ----------------------------------------------------------------------
def reference_index_search(index, query, k, transformation):
    """``KIndex.nearest_neighbors`` as it was, up to its kernel call: the
    slackened reference bound, the store's exact distances and the tail as
    seeds, through the reference kernel."""
    tree = index.tree
    linear, real_map = index.lower_transformation(transformation)
    features = index._query_features(query)
    if transformation is not None:
        full = index._full_transformed(features, transformation)
        point = index._transform_point(features.point, linear)
    else:
        full = (features.full_coefficients, features.mean, features.std)
        point = features.point
    filter_distance = (
        partial(reference_polar_bound, index.space, point)
        if isinstance(index.space, PolarSpace)
        else partial(reference_box_bound, point.values)
    )
    slack = kindex_module.BOUND_SLACK * float(np.abs(point.values).max(initial=0.0))

    def lower_bound(lows, highs):
        return filter_distance(lows, highs) * (1.0 - kindex_module.BOUND_SLACK) - slack

    coefficients, means, stds = index.store.transformed_arrays(transformation)

    def exact(rows):
        return exact_distances(
            coefficients,
            index.store.lengths,
            means,
            stds,
            *full,
            index.extractor.include_stats,
            row_ids=rows,
        )

    first, tail = index._tail(tree)
    seeds = (tail, np.arange(first, first + len(tail))) if len(tail) else None
    return reference_nearest_search(tree, k, lower_bound, exact, real_map, seeds)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """What each ``PackedRTree.nearest_search`` call returned, with the
    visits it counted."""
    calls = []
    kernel = PackedRTree.nearest_search

    def spy(tree, *args, **kwargs):
        found = kernel(tree, *args, **kwargs)
        calls.append((found, (tree.access_stats.internal, tree.access_stats.leaf)))
        return found

    monkeypatch.setattr(PackedRTree, "nearest_search", spy)
    return calls


class TestKIndexProbesAreTheReplacedLoop:
    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    @pytest.mark.parametrize("coefficients", [2, 4, 8, 16])
    @pytest.mark.parametrize("stats", [True, False])
    def test_indexes_maps_and_tails(
        self, representation, coefficients, stats, kernel_calls, monkeypatch
    ):
        monkeypatch.setattr(kindex_module, "SEAL_MIN_ROWS", 10_000)
        walks = random_walk_collection(20, 48, seed=coefficients)
        data = [TimeSeries(walks[n % 20].values + 0.01 * (n // 20)) for n in range(150)]
        extractor = SeriesFeatureExtractor(coefficients, representation, include_stats=stats)
        maps = [None, scale_spectral(48, -1.5), scale_spectral(48, 0.0)]
        if representation == "polar":
            maps.append(moving_average_spectral(48, 5))
        indexes = [KIndex.bulk_load(data[:120], extractor)]
        indexes.append(KIndex.build_by_insertion(data[:120], extractor))
        reopened = KIndex.bulk_load(data[:120], extractor)
        payload = codec.decode(codec.encode(_serialize_tree(reopened.tree)))
        reopened.tree = _deserialize_tree(payload, reopened._points, reopened.max_entries)
        indexes.append(reopened)
        queries = [data[3], data[130], random_walk_collection(1, 48, seed=99)[0]]
        for index in indexes:
            for grown in (False, True):
                if grown:
                    index.extend(data[120:])
                    assert index.tail_rows == 30
                for transformation in maps:
                    for query in queries:
                        for k in (1, 2, 5, 10, len(index) + 3):
                            check_index_search(index, query, k, transformation, kernel_calls)


def check_index_search(index, query, k, transformation, kernel_calls):
    """One probe's kernel call against the reference's, and its statistics."""
    want = reference_index_search(index, query, k, transformation)
    del kernel_calls[:]
    result = index.nearest_neighbors(query, k, transformation=transformation)
    assert len(kernel_calls) == 1
    (distances, records), visits = kernel_calls[0]
    assert distances.tobytes() == want[0].tobytes()
    assert records.tolist() == want[1].tolist()
    assert visits == want[2:]
    assert result.statistics.candidates == len(records)


# ----------------------------------------------------------------------
# the benchmark's k-NN work, pinned by count
# ----------------------------------------------------------------------
def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perf_workloads", ROOT / "benchmarks" / "perf" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestTheBenchmarksNearestWorkIsPinned:
    """The 28 k-NN probes of the ``embedded-index`` stream at seed 5 (k = 1,
    5 and 10) on its relation — 5 000 walks of 128 points, data seed 11, a
    2-coefficient k-index: the node accesses, candidates and answers they sum
    to are those of the kernel this one replaced, on 8-entry nodes, and at
    the page capacity the index packs by default.  A block schedule or a
    bound that moves fails here; the answers are the same at both."""

    #: (internal visits, leaf visits, candidates, sha256 of the answers'
    #: record ids and distance bits, first 16 hex digits).
    PINNED = (561, 2218, 5331, "592c7c31070c99c6")
    #: The same at the page capacity (39 entries a node, 3 levels).
    PINNED_AT_THE_PAGE_CAPACITY = (84, 511, 5714, "592c7c31070c99c6")

    @staticmethod
    def _counts(**options):
        stream = _benchmark_workloads().build_stream("embedded-index", 5)
        probes = [op for op in stream.ops if op.family == "nearest"]
        assert len(probes) == 28 and {op.k for op in probes} == {1, 5, 10}
        data = random_walk_collection(5000, 128, seed=11)
        rows = {id(series): row for row, series in enumerate(data)}
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2), **options)
        internal = leaf = candidates = 0
        digest = hashlib.sha256()
        for op in probes:
            result = index.nearest_neighbors(op.params["q"], op.k)
            internal += result.statistics.internal_node_accesses
            leaf += result.statistics.leaf_node_accesses
            candidates += result.statistics.candidates
            for series, distance in result.answers:
                digest.update(f"{rows[id(series)]}:{float(distance).hex()};".encode())
        return internal, leaf, candidates, digest.hexdigest()[:16]

    def test_counts(self):
        internal, leaf, candidates, digest = self._counts(max_entries=8)
        assert (internal, leaf, candidates, digest) == self.PINNED

    def test_counts_at_the_page_capacity(self):
        assert self._counts() == self.PINNED_AT_THE_PAGE_CAPACITY


class TestTheBenchmarksNearestWorkIsPriced:
    """The same 28 probes, priced.  A k-NN probe prunes by a feature-space
    lower bound — a ball — so the cost model prices its candidates from the
    statistics' bound histogram, not from the range filter's rectangle.  The
    kernel verifies every row whose bound is within the k-th distance and, a
    block of leaves at a time, some beyond it: the price stays under the
    candidates measured, within a factor of 4.  Priced from the rectangle's
    histogram it is over them (2.7 times at the page capacity)."""

    def test_the_price_reads_the_bound(self):
        stream = _benchmark_workloads().build_stream("embedded-index", 5)
        probes = [op for op in stream.ops if op.family == "nearest"]
        data = random_walk_collection(5000, 128, seed=11)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2))
        session = connect()
        session.relation("walks", data).with_index(index)
        stats = session.analyze("walks")
        model, count = QueryCostModel(), len(data)
        measured = sum(
            index.nearest_neighbors(op.params["q"], op.k).statistics.candidates for op in probes
        )
        priced = sum(model.index_nearest(stats, count, op.k).candidates for op in probes)
        rectangle = sum(
            count * stats.filter_histogram.fraction_within(stats.answer_quantile(op.k / count))
            for op in probes
        )
        assert measured / 4 <= priced <= measured < rectangle
