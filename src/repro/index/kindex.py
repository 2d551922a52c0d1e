"""The k-index: similarity queries over time series via an R*-tree on DFT features.

A ``k``-index stores, for every series, the point

``(mean, std, coefficients 1..k of the normal form)``

in either the polar or the rectangular complex layout, inside a packed
R-tree.  Queries are answered in three phases, exactly as in the companion
evaluation:

1. **Preprocessing** — the query series is reduced to the same features; when
   a transformation is supplied it is applied to the query features and
   lowered (safely) to a per-coordinate map for the index's space; the
   epsilon-ball around the query point becomes a search rectangle.
2. **Search** — the R-tree's packed levels are descended by the frontier
   kernel (:meth:`~repro.index.rtree.PackedRTree.window_search`) — under a
   transformation, those of the tree's image, every bounding rectangle
   mapped once per tree and map (Algorithms 1 and 2) — yielding
   *candidates*.  Keeping only
   ``k`` coefficients can produce false hits but — by Parseval — never false
   dismissals (Lemma 1).
3. **Postprocessing** — the candidates' full records live in the index's
   :class:`~repro.storage.columnar.ColumnarRecordStore`; they are gathered
   and their exact distances computed as **one batch kernel call per batch
   of queries** (a single probe is a batch of one), instead of fetching and
   scoring Python records one at a time.

The class also supports nearest-neighbour queries and index-probe all-pairs
(self-join) queries under a transformation.

**Appends never descend the tree.**  New rows are extracted as one block and
appended to the record store and to the index's point array; the rows beyond
``len(tree)`` are the index's unindexed **tail**.  Every probe covers the tail
exactly, with the test the tree's leaf level applies to its own entries, and a
full tail is *sealed*: packed by STR into a fresh tree off to the side and
published with one assignment (see :meth:`KIndex.extend`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..core.errors import IndexError_
from ..core.objects import FeatureVector
from ..core.spaces import PolarSpace, RectangleBound
from ..core.transformations import LinearTransformation, RealLinearTransformation
from ..storage.columnar import (
    ColumnarRecordStore,
    exact_distances,
    transform_full_record,
    verify_pairs,
)
from ..storage.pages import records_per_page
from ..timeseries.features import SeriesFeatureExtractor, SeriesFeatures
from ..timeseries.series import TimeSeries
from ..timeseries.transforms import SpectralTransformation
from .geometry import box_bound, rects_overlap
from .rstar import RStarTree
from .rtree import PackedRTree

__all__ = ["QueryStatistics", "RangeQueryResult", "NearestNeighborResult", "KIndex",
           "page_capacity"]

#: A nearest-neighbour probe lowers every filter distance by this fraction of
#: itself and of the query point's largest coordinate.  Filter distances
#: (feature points) and exact distances (full records) are computed along
#: different arithmetic paths, so in floating point a bound can exceed the
#: distance it bounds by a few ulps of the coordinates — enough to dismiss a
#: record that ties the k-th distance (a duplicate of the query at distance
#: zero, say).  The margin is many orders above that error and costs nothing
#: but the rare candidate it lets through.
BOUND_SLACK = 1e-9

#: The tail is sealed when it holds more than ``max(SEAL_MIN_ROWS, packed rows
#: // SEAL_SHARE)`` rows.  The share makes a monolithic index re-pack about
#: ``SEAL_SHARE + 1`` rows per appended row however large it grows (STR packs
#: a row in 3–5 µs) and keeps the tail filter a fixed share of a probe; the
#: floor keeps a small index from re-packing on every batch — filtering 256
#: unindexed points costs ~40 µs, a tenth of a tree probe.
SEAL_MIN_ROWS = 256
SEAL_SHARE = 16


def page_capacity(dimension: int) -> int:
    """Entries of a ``dimension``-dimensional tree that one page holds: an
    entry is two float64 corners and a payload, ``16 * dimension + 8``
    bytes, so a page holds 39 at d = 6, 30 at d = 8 and 56 at d = 4.

    A node is a page, as in Guttman's R-tree and the STR loader, so a node
    access is the page access the paper's cost currency counts.  At d = 6
    and 5 000 rows this packs 3 levels and 134 nodes where 8 entries a node
    packed 5 levels and 717: a range probe opens ~22 nodes instead of ~105
    and a k-NN probe ~21 instead of ~99 (``tests/test_range_probe.py`` and
    ``tests/test_nearest_step.py`` pin both)."""
    return records_per_page(16 * int(dimension) + 8)


@dataclass
class QueryStatistics:
    """Work counters for one query.

    ``node_accesses`` counts index-node (or, for sequential scans, data-page)
    visits; ``record_fetches`` counts the full records fetched for exact
    postprocessing — the random I/O an index pays per candidate but a scan
    gets for free with the pages it already read.  ``io_total`` combines the
    two into the evaluation's "disk access" currency, which is what the
    cost-based planner estimates and the crossover benchmark compares.  The
    ``internal/leaf`` split is a snapshot of
    :class:`~repro.index.rtree.NodeAccessStats` taken per query (per *batch*
    for grouped traversals, whose shared totals expose the saving); the buffer
    counters are a scan pass's hits and misses on its
    :class:`~repro.storage.buffer.BufferPool` — a durable relation's pool
    over its mapped segments — and stay 0 for a scan without one and for an
    index probe.

    Batched execution keeps every counter **exact**: kernels verify gathered
    candidate blocks, and the counters are derived from the block shapes —
    per-element work is counted, never estimated.
    """

    node_accesses: int = 0
    candidates: int = 0
    postprocessed: int = 0
    elapsed_seconds: float = 0.0
    record_fetches: int = 0
    internal_node_accesses: int = 0
    leaf_node_accesses: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    #: Search states the similarity engine explored for a ``SIM`` predicate —
    #: its own currency, never added into ``node_accesses``.
    states_explored: int = 0

    @property
    def io_total(self) -> int:
        """Node/page accesses plus per-candidate record fetches."""
        return self.node_accesses + self.record_fetches

    def copy(self) -> QueryStatistics:
        """A shallow copy (what the answer cache stores and hands out)."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def as_dict(self) -> dict[str, float]:
        """The counters as a plain dictionary (for benchmark reports)."""
        return {"node_accesses": self.node_accesses, "candidates": self.candidates,
                "postprocessed": self.postprocessed,
                "elapsed_seconds": self.elapsed_seconds,
                "record_fetches": self.record_fetches,
                "io_total": self.io_total,
                "internal_node_accesses": self.internal_node_accesses,
                "leaf_node_accesses": self.leaf_node_accesses,
                "buffer_hits": self.buffer_hits,
                "buffer_misses": self.buffer_misses,
                "states_explored": self.states_explored}


@dataclass
class RangeQueryResult:
    """Answers of a range query, sorted by ascending exact distance."""

    answers: list[tuple[TimeSeries, float]] = field(default_factory=list)
    statistics: QueryStatistics = field(default_factory=QueryStatistics)

    def series(self) -> list[TimeSeries]:
        """Just the answer series."""
        return [series for series, _ in self.answers]

    def __len__(self) -> int:
        return len(self.answers)


@dataclass
class NearestNeighborResult:
    """Answers of a k-nearest-neighbour query, nearest first."""

    answers: list[tuple[TimeSeries, float]] = field(default_factory=list)
    statistics: QueryStatistics = field(default_factory=QueryStatistics)

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[tuple[TimeSeries, float]]:
        return iter(self.answers)


class KIndex:
    """An R-tree-backed similarity index over time series.

    Parameters
    ----------
    extractor:
        Feature configuration (number of coefficients, representation,
        whether mean/std are stored).  Defaults to the evaluation's setup:
        two coefficients in polar layout plus mean and standard deviation
        (a six-dimensional index).
    max_entries:
        Node capacity of every tree the index packs.  By default a node is a
        page: :func:`page_capacity` of the space's dimension (39 for the
        default six-dimensional space).  A durable directory records the
        capacity its index was built with and reopens at it.
    """

    def __init__(self, extractor: SeriesFeatureExtractor | None = None, *,
                 max_entries: int | None = None) -> None:
        self.extractor = extractor if extractor is not None else SeriesFeatureExtractor()
        self.space = self.extractor.space
        self.max_entries = (page_capacity(self.space.dimension) if max_entries is None
                            else int(max_entries))
        #: Columnar full records, one row per record id (dense, insertion
        #: order).  Shared with the executor's scan fallback and the
        #: statistics sampler through ``Database.columnar_store``.
        self.store = ColumnarRecordStore()
        #: The indexable points, row = record id; grown by doubling, rows
        #: ``[0, len(store))`` are valid and rows ``>= len(tree)`` are the tail.
        self._points = np.empty((0, self.space.dimension))
        #: The packed rows, never changed — a seal publishes a new tree.
        self.tree = self._packed_tree(0)
        #: id(transformation) → (transformation, linear, real map): what
        #: :meth:`lower_transformation` derived, for at most 8 of them.
        self._lowered: dict[int, tuple[Any, LinearTransformation,
                                       RealLinearTransformation]] = {}

    def _packed_tree(self, stop: int) -> PackedRTree:
        """Rows ``[0, stop)`` of the point array, STR-packed."""
        return PackedRTree.bulk_load(self._points[:stop], np.arange(stop),
                                     max_entries=self.max_entries)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _append(self, collection: Iterable[TimeSeries]) -> np.ndarray:
        """Extract a batch and append it to the point array and the record
        store; returns its points.  Everything is extracted before anything
        is stored, so a batch holding a non-series leaves the index as it
        was.  The points land first: a row counts once the store holds it."""
        batch = list(collection)
        points, *records = self.extractor.extract_many(batch)
        count = len(self.store)
        if count + len(batch) > len(self._points):
            self._points = _grown(self._points[:count],
                                  max(count + len(batch), 2 * len(self._points)))
        self._points[count:count + len(batch)] = points
        self.store.bulk_load(batch, *records)
        return points

    def insert(self, series: TimeSeries) -> int:
        """Index one series — a one-row :meth:`extend`; returns its record id."""
        self.extend([series])
        return len(self.store) - 1

    def extend(self, collection: Iterable[TimeSeries]) -> None:
        """Index every series of a collection, without a tree descent.

        The batch is extracted in one block
        (:meth:`~repro.timeseries.features.SeriesFeatureExtractor.extract_many`)
        and appended to the record store and the point array: it joins the
        **tail**, the rows beyond ``len(tree)``, which every probe filters
        with the leaf level's own rectangle test — so the new rows are in
        the very next answer, and no answer is ever dismissed.  All or
        nothing: a batch holding an object that is not a series raises
        :class:`~repro.core.errors.IndexError_` and changes nothing.

        A tail of more than ``max(SEAL_MIN_ROWS, len(tree) // SEAL_SHARE)``
        rows is **sealed**: every point of the index is packed by STR into a
        fresh tree, which replaces the old one in a single assignment (a
        probe reads ``self.tree`` once, so it sees either tree with its own
        tail).  An empty tree has nothing to amortise against, so the first
        batch is packed whole — which is all :meth:`bulk_load` is.
        """
        self._append(collection)
        self._seal()

    def _seal(self) -> None:
        """Re-pack the whole index when the tail has outgrown its bound."""
        count, packed = len(self.store), len(self.tree)
        if count - packed > (max(SEAL_MIN_ROWS, packed // SEAL_SHARE) if packed else 0):
            self.tree = self._packed_tree(count)

    @classmethod
    def bulk_load(cls, collection: Iterable[TimeSeries],
                  extractor: SeriesFeatureExtractor | None = None,
                  **options: Any) -> "KIndex":
        """Build an index over a collection: construct (``options`` are the
        constructor's keyword arguments) and :meth:`extend`.

        One block extraction, one block append, and the Sort-Tile-Recursive
        loader packs the tree bottom-up in one pass — linear time, fuller
        nodes and less overlap than a tree grown by insertion, so range
        queries touch no more (usually fewer) nodes.
        """
        index = cls(extractor, **options)
        index.extend(collection)
        return index

    @classmethod
    def build_by_insertion(cls, collection: Iterable[TimeSeries],
                           extractor: SeriesFeatureExtractor | None = None,
                           **options: Any) -> "KIndex":
        """Build an index whose tree is grown from empty by one
        :meth:`RTree.insert <repro.index.rtree.RTree.insert>` per series, in
        order — the paper's *dynamic* R*-tree (choose-subtree, split, forced
        reinsertion) — and then handed over as its packed form.

        This is the only way to a dynamically built tree, and it exists for
        what compares against one: the evaluation's figures (whose node-access
        numbers were measured on such a tree) and the insert-built side of
        differential tests.  Rows appended later join the tail like any
        others, and the first seal re-packs the index by STR.
        """
        index = cls(extractor, **options)
        grower = RStarTree(index.space.dimension, max_entries=index.max_entries)
        for record_id, point in enumerate(index._append(collection)):
            grower.insert(point, record_id)
        index.tree = grower.packed()
        return index

    @property
    def tail_rows(self) -> int:
        """Rows appended since the last seal: held by the store and the point
        array, not (yet) by the tree."""
        return len(self.store) - len(self.tree)

    def __len__(self) -> int:
        return len(self.store)

    @property
    def tail_pages(self) -> int:
        """Leaf pages the tail's rows fill: what every probe is charged for
        filtering them now, and what the planner adds to an index estimate
        at plan time (statistics hold no copy — it would go stale with the
        next append)."""
        return self._pages(self.tail_rows)

    def points(self, positions: np.ndarray) -> np.ndarray:
        """The indexed points of the given record ids, one row each (a copy):
        what the statistics sampler and the advisor read instead of building
        a :meth:`record` per row."""
        count = len(self.store)  # read before the points array, as in _tail
        try:
            return self._points[:count][positions]
        except IndexError:
            raise IndexError_(f"unknown record id among {positions!r}") from None

    def record(self, record_id: int) -> tuple[TimeSeries, SeriesFeatures]:
        """The stored series and its extracted features."""
        try:
            coefficients, mean, std = self.store.full_record(record_id)
            series = self.store.series(record_id)
            point = FeatureVector(self._points[record_id])
        except IndexError:
            raise IndexError_(f"unknown record id {record_id}") from None
        return series, SeriesFeatures(point=point, full_coefficients=coefficients,
                                      mean=mean, std=std)

    def series_list(self) -> list[TimeSeries]:
        """All indexed series, in insertion order."""
        return self.store.series_list()

    def structure_summary(self) -> dict[str, float]:
        """The tree's structural facts and the full-record size — what the
        planner's cost model prices index traversals and scans with.  The
        tail is not here: a summary is kept in the statistics, and the tail
        changes with every append (see :attr:`tail_pages`)."""
        summary = self.tree.structure_summary()
        summary["record_bytes"] = float(self.store.record_bytes())
        return summary

    def _pages(self, rows: int) -> int:
        """Leaf pages ``rows`` unindexed points fill: what filtering them is
        charged, so ``node_accesses`` stays the paper's page currency."""
        return -(-rows // self.max_entries)

    def _tail(self, tree: PackedRTree) -> tuple[int, np.ndarray | tuple[()]]:
        """``(first record id, points)`` of the rows beyond ``tree`` — the
        caller's one snapshot of ``self.tree``, so the split cannot tear; an
        empty tail costs no numpy call."""
        first, count = len(tree), len(self.store)  # read before the points array
        return first, self._points[first:count] if count > first else ()

    def _work_counters(self, statistics: QueryStatistics, tree: PackedRTree,
                       tail_pages: int) -> None:
        """Copy a probe's node accesses — the tree's counters plus the tail's
        pages, which are leaf pages — into the statistics."""
        statistics.internal_node_accesses = tree.access_stats.internal
        statistics.leaf_node_accesses = tree.access_stats.leaf + tail_pages
        statistics.node_accesses = tree.access_stats.total + tail_pages

    # ------------------------------------------------------------------
    # transformation plumbing
    # ------------------------------------------------------------------
    def lower_transformation(self, transformation: SpectralTransformation |
                              LinearTransformation | None
                              ) -> tuple[LinearTransformation | None,
                                         RealLinearTransformation | None]:
        """Derive (prefix linear transformation, per-coordinate real map).

        The one place a transformation is judged against the index: the
        planner asks it whether an index plan exists, a probe asks it for
        the maps it runs.  Raises :class:`UnsafeTransformationError` when
        the map is not safe for the index's feature space (the check
        :meth:`LinearTransformation.to_real` makes),
        :class:`IndexError_` for a transformation of another type or
        coefficient count, :class:`DimensionMismatchError` for a linear one
        of other extra dimensions, and ``ValueError`` when a spectral one is
        shorter than the prefix.

        The maps depend on the transformation and the feature space alone,
        so they are kept per transformation object (at most 8, as the
        store's :meth:`~repro.storage.columnar.ColumnarRecordStore.transformed_arrays`):
        the planner and the probe get the same maps, and the tree the same
        image (:meth:`PackedRTree.transformed` keys on the map).  A map that
        is not safe is never kept, so it raises on every call.
        """
        if transformation is None:
            return None, None
        cached = self._lowered.get(id(transformation))
        if cached is not None and cached[0] is transformation:
            return cached[1], cached[2]
        if isinstance(transformation, SpectralTransformation):
            linear = transformation.to_linear(self.extractor.num_coefficients,
                                              skip_first=True,
                                              include_extra=self.extractor.include_stats)
        elif isinstance(transformation, LinearTransformation):
            linear = transformation
            if linear.num_features != self.extractor.num_coefficients:
                raise IndexError_(
                    f"transformation acts on {linear.num_features} coefficients but the "
                    f"index stores {self.extractor.num_coefficients}"
                )
        else:
            raise IndexError_(
                "transformation must be a SpectralTransformation or LinearTransformation"
            )
        real_map = linear.to_real(self.space)
        if len(self._lowered) >= 8:
            self._lowered.clear()
        self._lowered[id(transformation)] = (transformation, linear, real_map)
        return linear, real_map

    def _full_transformed(self, features: SeriesFeatures,
                          transformation: SpectralTransformation | None
                          ) -> tuple[np.ndarray, float, float]:
        """Full coefficient record (and stats) after applying the transformation."""
        return transform_full_record(features.full_coefficients, features.mean,
                                     features.std, transformation,
                                     owner="stored record")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, query: TimeSeries | FeatureVector, epsilon: float, *,
                    transformation: SpectralTransformation | None = None,
                    transform_query: bool = True,
                    exact: bool = True) -> RangeQueryResult:
        """All series whose (transformed) representation lies within ``epsilon``
        of the (transformed) query.

        Parameters
        ----------
        query:
            A query series (reduced to features automatically) or an already
            encoded feature point.
        epsilon:
            The distance threshold.
        transformation:
            Optional :class:`SpectralTransformation` applied to the data (and
            by default also to the query, which is how "compare the moving
            averages of both series" is expressed).
        transform_query:
            When ``False`` the query features are used as given and only the
            data side is transformed.
        exact:
            When ``False`` postprocessing is skipped and candidates are
            returned with their *filter* distance — useful for measuring the
            false-hit rate of the index alone.
        """
        return self.range_query_batch([query], epsilon, transformation=transformation,
                                      transform_query=transform_query,
                                      exact=exact)[0]

    def range_query_batch(self, queries: Sequence[TimeSeries | FeatureVector],
                          epsilon: float | Sequence[float], *,
                          transformation: SpectralTransformation | None = None,
                          transform_query: bool = True,
                          exact: bool = True) -> list[RangeQueryResult]:
        """Answer a batch of range queries with one shared tree traversal.

        All query windows are probed together, with or without a
        ``transformation``: every tree node on the way is visited once for
        the whole batch (see :meth:`PackedRTree.window_search`), and
        postprocessing verifies all candidates of all queries in one call
        of :func:`~repro.storage.columnar.verify_pairs` — bounded blocks of
        (candidate, query) pairs, each abandoned chunk by chunk against its
        own query's epsilon before the survivors are scored exactly.
        Answers are identical to calling :meth:`range_query` once per query.

        ``epsilon`` may be a single threshold or one per query.

        Each result's ``node_accesses`` reports the *shared* traversal total,
        which is the batch's actual I/O cost — summing it over the batch
        would double count.
        """
        queries = list(queries)
        epsilons = np.broadcast_to(np.asarray(epsilon, dtype=np.float64),
                                   (len(queries),))
        if not np.all(epsilons >= 0):  # NaN too
            raise ValueError("epsilon must be non-negative")
        if not queries:
            return []
        started = time.perf_counter()
        tree = self.tree  # one snapshot: the tail is the rows beyond this tree
        tree.reset_stats()
        linear, real_map = self.lower_transformation(transformation)
        moved = transformation is not None and transform_query
        query_fulls = []
        query_points = []
        corners = []
        for query, eps in zip(queries, epsilons):
            features = self._query_features(query)
            centre = features.point
            if moved:
                query_fulls.append(self._full_transformed(features, transformation))
                # The window is centred on the query's image under the map
                # that moves the rectangles, by the same arithmetic: at
                # ε = 0 a stored copy of the query is then on the window
                # exactly, not an ulp beside it.
                centre = real_map.apply_point(centre)
            else:
                query_fulls.append((features.full_coefficients, features.mean,
                                    features.std))
            query_points.append(features.point)
            corners.append(self.space.search_rectangle(centre, float(eps)))
        window_lows = np.array([low for low, _ in corners])
        window_highs = np.array([high for _, high in corners])
        periodic = self.space.periodic_dimension_mask()
        candidate_lists = tree.window_search(window_lows, window_highs,
                                             real_map, periodic)
        first, tail = self._tail(tree)
        if len(tail):
            # The leaf level's test on the rows no leaf holds yet; their ids
            # follow every packed id, so each list stays ascending.
            points = tail if real_map is None else real_map.apply(tail)
            hits = rects_overlap(points, points, window_lows[:, None, :],
                                 window_highs[:, None, :], periodic)
            candidate_lists = [np.concatenate((candidates, first + np.flatnonzero(row)))
                               for candidates, row in zip(candidate_lists, hits)]
        results = [RangeQueryResult() for _ in queries]
        for result, candidates in zip(results, candidate_lists):
            result.statistics.candidates = candidates.size
        if exact:
            self._verify_batch(candidate_lists, query_fulls, transformation,
                               epsilons, results)
        else:
            for result, candidates, query_point, eps in zip(
                    results, candidate_lists, query_points, epsilons):
                if moved:
                    query_point = self._transform_point(query_point, linear)
                points = self.points(candidates)
                if linear is not None:
                    extra, feats = linear.apply_features(
                        *self.space.decode_rows(points))
                    points = self.space.encode_rows(feats, extra)
                distances = self.space.distances_to(query_point, points)
                keep = np.flatnonzero(distances <= float(eps))
                keep = keep[np.argsort(distances[keep], kind="stable")]
                result.answers = list(zip(self.store.series_at(candidates[keep]),
                                          distances[keep].tolist()))
        elapsed_share = (time.perf_counter() - started) / len(queries)
        tail_pages = self._pages(len(tail))
        for result in results:
            if exact:
                result.statistics.postprocessed = result.statistics.candidates
            result.statistics.record_fetches = result.statistics.postprocessed
            self._work_counters(result.statistics, tree, tail_pages)
            result.statistics.elapsed_seconds = elapsed_share
        return results

    def _verify_batch(self, candidate_lists: Sequence[np.ndarray],
                      query_fulls: list[tuple[np.ndarray, float, float]],
                      transformation: SpectralTransformation | None,
                      epsilons: np.ndarray,
                      results: list[RangeQueryResult]) -> None:
        """One abandoning verification pass (:func:`verify_pairs`) over every
        candidate of a batch of range queries (under a ``transformation``:
        against the store's transformed rows)."""
        counts = [candidates.size for candidates in candidate_lists]
        if not sum(counts):
            return
        row_ids = np.concatenate(candidate_lists)
        query_index = np.repeat(np.arange(len(candidate_lists), dtype=np.intp),
                                counts)
        query_lengths = np.array([full[0].shape[0] for full in query_fulls],
                                 dtype=np.intp)
        query_matrix = np.zeros((len(query_fulls), int(query_lengths.max())),
                                dtype=np.complex128)
        for position, full in enumerate(query_fulls):
            query_matrix[position, :full[0].shape[0]] = full[0]
        query_means = np.array([full[1] for full in query_fulls])
        query_stds = np.array([full[2] for full in query_fulls])
        coefficients, means, stds = self.store.transformed_arrays(transformation)
        positions, distances = verify_pairs(
            coefficients, self.store.lengths, means, stds,
            self.extractor.include_stats, row_ids,
            query_matrix, query_lengths, query_means, query_stds, query_index,
            epsilons)
        # Positions ascend, so each query's answers are one run of them, in
        # candidate order.
        edges = np.searchsorted(positions, list(accumulate(counts, initial=0)))
        for index, (low, high) in enumerate(zip(edges[:-1], edges[1:])):
            block = distances[low:high]
            order = np.argsort(block, kind="stable")
            results[index].answers = list(zip(
                self.store.series_at(row_ids[positions[low:high]][order]),
                block[order].tolist()))

    def nearest_neighbors_batch(self, queries: Sequence[TimeSeries | FeatureVector],
                                k: int = 1, *,
                                transformation: SpectralTransformation | None = None,
                                transform_query: bool = True
                                ) -> list[NearestNeighborResult]:
        """Nearest-neighbour queries for a batch, one result per query.

        Best-first search cannot share a traversal across different query
        points (each has its own visiting order and stopping bound), so this
        is one :meth:`nearest_neighbors` probe per query.
        """
        return [self.nearest_neighbors(query, k, transformation=transformation,
                                       transform_query=transform_query)
                for query in queries]

    def nearest_neighbors(self, query: TimeSeries | FeatureVector, k: int = 1, *,
                          transformation: SpectralTransformation | None = None,
                          transform_query: bool = True) -> NearestNeighborResult:
        """The ``k`` indexed series nearest to the query (exact distances).

        One call to the tree's blocked best-first kernel
        (:meth:`~repro.index.rtree.PackedRTree.nearest_search`): filter
        distances of the transformed rectangles (lower bounds on exact
        distances, split at the query so that the tree keeps their
        query-independent part per level) order the search, candidates are
        verified in blocks against their full records in the columnar store,
        and the search stops once nothing pending is within the current k-th
        exact distance — so the answer is exact, not a re-ranking of a fixed
        candidate pool.
        Answers are ordered by ``(distance, record id)``, exactly a scan's.
        """
        started = time.perf_counter()
        tree = self.tree  # one snapshot: the tail is the rows beyond this tree
        tree.reset_stats()
        linear, real_map = self.lower_transformation(transformation)
        query_features = self._query_features(query)
        if transformation is not None and transform_query:
            query_full = self._full_transformed(query_features, transformation)
            query_point = self._transform_point(query_features.point, linear)
        else:
            query_full = (query_features.full_coefficients, query_features.mean,
                          query_features.std)
            query_point = query_features.point
        bound = (self.space.sector_bound(query_point) if isinstance(self.space, PolarSpace)
                 else box_bound(query_point.values))
        slack = BOUND_SLACK * float(np.abs(query_point.values).max(initial=0.0))

        def lower_bound(table: np.ndarray) -> np.ndarray:
            return bound.of_table(table) * (1.0 - BOUND_SLACK) - slack

        coefficients, means, stds = self.store.transformed_arrays(transformation)
        lengths = self.store.lengths

        def exact(rows: np.ndarray) -> np.ndarray:
            return exact_distances(coefficients, lengths, means, stds, *query_full,
                                   self.extractor.include_stats, row_ids=rows)

        first, tail = self._tail(tree)
        distances, rows = tree.nearest_search(
            k, RectangleBound(bound.table, lower_bound), exact, real_map,
            (tail, np.arange(first, first + len(tail))) if len(tail) else None)
        result = NearestNeighborResult(answers=list(zip(
            self.store.series_at(rows[:k]), distances[:k].tolist())))
        result.statistics.candidates = rows.size
        result.statistics.postprocessed = rows.size
        result.statistics.record_fetches = rows.size
        self._work_counters(result.statistics, tree, self._pages(len(tail)))
        result.statistics.elapsed_seconds = time.perf_counter() - started
        return result

    def all_pairs(self, epsilon: float, *,
                  transformation: SpectralTransformation | None = None
                  ) -> tuple[list[tuple[TimeSeries, TimeSeries, float]], QueryStatistics]:
        """Self-join: every ordered pair of distinct series within ``epsilon``.

        Implemented as one index probe per stored series (methods (c)/(d) of
        the original join experiment): each series becomes a range query
        posed to the index, under the same transformation on both sides.
        Each probe's candidates are verified by the abandoning pair kernel
        (:func:`~repro.storage.columnar.verify_pairs`), so the quadratic
        postprocessing is vectorised even though the probes stay per-record.
        """
        if not epsilon >= 0:  # NaN too
            raise ValueError("epsilon must be non-negative")
        started = time.perf_counter()
        pairs: list[tuple[TimeSeries, TimeSeries, float]] = []
        stats = QueryStatistics()
        for record_id in range(len(self.store)):
            series = self.store.series(record_id)
            result = self.range_query(series, epsilon, transformation=transformation)
            stats.node_accesses += result.statistics.node_accesses
            stats.candidates += result.statistics.candidates
            stats.postprocessed += result.statistics.postprocessed
            stats.record_fetches += result.statistics.record_fetches
            stats.internal_node_accesses += result.statistics.internal_node_accesses
            stats.leaf_node_accesses += result.statistics.leaf_node_accesses
            for other, distance in result.answers:
                if other.object_id != series.object_id:
                    pairs.append((series, other, distance))
        stats.elapsed_seconds = time.perf_counter() - started
        return pairs, stats

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _query_features(self, query: TimeSeries | FeatureVector) -> SeriesFeatures:
        if isinstance(query, TimeSeries):
            return self.extractor.extract(query)
        if isinstance(query, FeatureVector):
            # A bare point has no full record: treat its encoded coefficients
            # as the complete description (exact distances then equal filter
            # distances).
            extra, feats = self.space.decode(query)
            mean = float(extra[0]) if extra.shape[0] > 0 else 0.0
            std = float(extra[1]) if extra.shape[0] > 1 else 0.0
            return SeriesFeatures(point=query, full_coefficients=feats, mean=mean, std=std)
        raise IndexError_("query must be a TimeSeries or a FeatureVector")

    def _transform_point(self, point: FeatureVector,
                         linear: LinearTransformation | None) -> FeatureVector:
        if linear is None:
            return point
        return linear.apply_point(point, self.space)

    def __repr__(self) -> str:
        return (f"KIndex(size={len(self)}, tail_rows={self.tail_rows}, "
                f"k={self.extractor.num_coefficients}, "
                f"representation={self.extractor.representation!r})")


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` extended with zero rows to ``rows`` rows."""
    grown = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
    grown[:len(array)] = array
    return grown
