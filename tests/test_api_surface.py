"""Public-API snapshot: the facade cannot change shape silently.

Two guards:

* ``repro.__all__`` is pinned to an explicit snapshot — adding a name is a
  conscious one-line diff here, removing or renaming one fails loudly;
* the signatures of the session facade (``connect`` / ``Session`` /
  ``PreparedQuery`` / ``Q``) are pinned, so parameter renames, reorderings
  or default changes — all silently breaking for keyword callers — fail.

When a change here is intentional, update the snapshot *in the same PR* and
call the break out in the changelog.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
from pathlib import Path

import repro
from repro import BoundQuery, PreparedQuery, Q, RelationHandle, Session, connect

EXPECTED_ALL = [
    "AdditiveCostModel", "AllPairsQuery", "AnyPattern", "BackoffPolicy",
    "BoundQuery",
    "BufferPool", "CancellationToken", "CatalogError", "ColumnSegment",
    "ColumnarRecordStore",
    "ComposedTransformation", "ConnectionLostError", "ConstantPattern",
    "CostBudget", "CostEstimate", "CostExceededError", "DataObject",
    "Database", "DeadlineExceededError", "DimensionMismatchError",
    "DistanceHistogram",
    "DistanceProvider", "DurableDatabase", "FaultPlan", "FeatureVector",
    "FunctionTransformation", "GenericObject", "IdentityTransformation",
    "IndexAdvisor", "IndexRecommendation",
    "KIndex", "LinearTransformation", "MaxCostModel", "MetricIndex",
    "MovingAverageTransform", "NearestNeighborQuery", "NearestNeighborResult",
    "ObjectRef",
    "PackedRTree", "Param",
    "Pattern", "PatternError", "Planner", "PolarSpace",
    "PredicatePattern", "PreparedQuery", "ProtocolError", "Q",
    "QueryBuildError", "QueryBuilder",
    "QueryCancelledError",
    "QueryCostModel", "QueryEngine", "QueryOutcome", "QueryPlanningError",
    "QueryServer", "QuerySyntaxError",
    "RStarTree", "RTree", "RangeQuery", "RangeQueryResult",
    "RealLinearTransformation", "Rect", "RectangularSpace", "RejectedPlan",
    "Relation", "RelationHandle", "RelationPattern", "RelationStatistics",
    "RemoteCursor", "RemoteOutcome", "RemoteStatement",
    "ReproError", "RetryExhaustedError", "RetryLaterError",
    "ReverseTransform",
    "Row", "ScaleTransform", "SegmentPageStore", "SequentialScan",
    "SeriesFeatureExtractor", "ServerClient", "ServerConfig", "ServerError",
    "ServerHandle",
    "Session", "SessionClosedError", "ShiftTransform", "SimilarityEngine",
    "SimilarityQuery",
    "SpectralTransformation", "StockArchiveConfig", "StringObject",
    "TimeSeries", "TimeWarpTransform", "Transformation",
    "TransformationRuleSet", "TransformedPattern", "UnsafeTransformationError",
    "WorkloadProfile", "WriteAheadLog",
    "__version__", "cancel_scope", "cancellation_checkpoint", "city_block",
    "client", "connect", "dft", "dtw_distance",
    "edit_distance_provider", "euclidean", "euclidean_with_early_abandon",
    "explain", "identity_spectral", "inverse_dft", "is_similar",
    "make_stock_archive", "mindist",
    "minmaxdist", "moving_average_spectral", "noisy_copy", "normalize",
    "normalized_euclidean", "opposite_copy", "parse_query", "random_walk",
    "random_walk_collection", "reverse_spectral", "scale_spectral",
    "serve",
    "shift_spectral", "time_warp_linear", "transformation_distance",
    "transformation_edit_distance",
    "weighted_edit_distance",
]


def _signature(callable_obj) -> str:
    return str(inspect.signature(callable_obj))


class TestAllSnapshot:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_ALL

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_storage_exports_page_arithmetic_and_no_simulated_pages(self):
        """A page is arithmetic over the rows: the storage package exports
        no page objects, no page store of its own and no I/O counters."""
        import repro.storage

        assert sorted(repro.storage.__all__) == [
            "BufferPool", "BufferStatistics", "ColumnarRecordStore", "PAGE_SIZE_BYTES"]

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name!r}"

    def test_the_version_has_one_source(self):
        """``pyproject.toml`` reads ``repro.__version__`` and states none of
        its own, so the two cannot disagree (read as text: ``tomllib`` is
        newer than the oldest interpreter CI runs)."""
        project = (Path(__file__).parent.parent / "pyproject.toml").read_text("utf-8")
        assert re.search(r'^dynamic = \["version"\]$', project, re.MULTILINE)
        assert re.search(r'^\[tool\.setuptools\.dynamic\]\n'
                         r'version = \{attr = "repro\.__version__"\}$', project, re.MULTILINE)
        assert not re.search(r'^version\s*=\s*"', project, re.MULTILINE)
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


class TestFacadeSignatures:
    def test_connect(self):
        # PR 8: durable storage adds path / wal_sync / buffer_pages.
        assert _signature(connect) == (
            "(database: 'Database | None' = None, *, "
            "transformations: 'Mapping[str, SpectralTransformation] | None' = None, "
            "plan_cache_size: 'int' = 256, answer_cache_size: 'int' = 1024, "
            "answer_cache_bytes: 'int | None' = None, "
            "workers: 'int | None' = None, path: 'str | None' = None, "
            "wal_sync: 'str' = 'batch', buffer_pages: 'int' = 256) "
            "-> 'Session'")

    def test_session_methods(self):
        assert _signature(Session.sql) == (
            "(self, query: 'str | Query | Any', "
            "parameters: 'Mapping[str, Any] | None' = None, "
            "**keyword_parameters: 'Any') -> 'QueryOutcome'")
        assert _signature(Session.sql_many) == (
            "(self, queries: 'Sequence[str | Query | Any]', "
            "parameters: 'Sequence[Mapping[str, Any] | None] | Mapping[str, Any] "
            "| None' = None) -> 'list[QueryOutcome]'")
        assert _signature(Session.prepare) == \
            "(self, query: 'str | Query | Any') -> 'PreparedQuery'"
        assert _signature(Session.explain) == \
            "(self, query: 'str | Query | PreparedQuery | Any') -> 'str'"
        assert _signature(Session.relation) == (
            "(self, name: 'str', rows: 'Iterable[Row | DataObject]' = ()) "
            "-> 'RelationHandle'")
        assert _signature(Session.with_transformation) == (
            "(self, name: 'str', transformation: 'SpectralTransformation') "
            "-> 'Session'")
        assert _signature(Session.analyze) == "(self, relation_name: 'str')"
        # PR 6: the self-tuning entry points.
        assert _signature(Session.advise) == (
            "(self, relation_name: 'str', workload: 'Any') "
            "-> 'IndexRecommendation'")
        assert _signature(Session.autotune) == (
            "(self, relation_name: 'str', workload: 'Any') "
            "-> 'IndexRecommendation'")

    def test_prepared_query_methods(self):
        assert _signature(PreparedQuery.run) == (
            "(self, parameters: 'Mapping[str, Any] | None' = None, "
            "**keyword_parameters: 'Any') -> 'QueryOutcome'")
        assert _signature(PreparedQuery.run_many) == (
            "(self, bindings: 'Sequence[Mapping[str, Any] | None]') "
            "-> 'list[QueryOutcome]'")
        assert _signature(PreparedQuery.bind) == (
            "(self, parameters: 'Mapping[str, Any] | None' = None, "
            "**keyword_parameters: 'Any') -> 'BoundQuery'")
        assert _signature(BoundQuery.run) == "(self) -> 'QueryOutcome'"

    def test_builder_entry_points(self):
        assert _signature(Q.from_) == "(relation: 'str') -> 'QueryBuilder'"
        assert _signature(Q.param) == "(name: 'str') -> 'Param'"

    def test_builder_steps_exist(self):
        from repro import QueryBuilder
        for step in ("under", "raw_query", "within", "of", "nearest", "to",
                     "similar_to", "pairs_with", "pairs_within", "build"):
            assert callable(getattr(QueryBuilder, step))

    def test_relation_handle_surface(self):
        for method in ("insert", "insert_many", "with_index", "with_distance",
                       "rows", "objects"):
            assert callable(getattr(RelationHandle, method))

    def test_session_durability_surface(self):
        # PR 8: checkpoint/close and context-manager checkpointing.
        for method in ("checkpoint", "close", "__enter__", "__exit__"):
            assert callable(getattr(Session, method))


class TestIndexProbeSignatures:
    """The range-probe entry points take a ``periodic_dims`` mask where they
    once took a per-entry ``overlap`` callable (ISSUE 15: one packed frontier
    kernel, no per-entry hook); nearest-neighbour probes go through one
    blocked best-first kernel that takes array-valued bound and distance
    rules, and the incremental per-entry iterator is gone (ISSUE 16); the
    k-index's write path is a block extraction plus an unindexed tail, with
    the dynamic tree behind one named classmethod (ISSUE 17); the packed
    per-level arrays are the tree — a public, immutable ``PackedRTree`` that
    owns the kernels and the STR loader — ``RTree`` / ``RStarTree`` grow one
    and hand it over, and the tree-variant and simulated-page options are
    gone from every constructor (ISSUE 19)."""

    def test_transformed_search(self):
        """Search under a transformation is the tree's own: Algorithm 1 is
        ``PackedRTree.transformed``, Algorithm 2 ``window_search`` and the
        nearest-neighbour analogue ``nearest_search``; the module of
        one-line wrappers over them is gone."""
        assert _signature(repro.PackedRTree.transformed) == (
            "(self, transformation: 'RealLinearTransformation') -> \"'PackedRTree'\"")
        for name in ("transformed_join", "transformed_range_search",
                     "materialize_transformed_tree", "transformed_nearest_neighbors"):
            assert not hasattr(repro.index, name) and not hasattr(repro, name)
        assert importlib.util.find_spec("repro.index.transformed") is None

    def test_tree_probes(self):
        for tree in (repro.PackedRTree, repro.RTree):
            assert _signature(tree.window_search) == (
                "(self, window_lows: 'np.ndarray', window_highs: 'np.ndarray', "
                "transformation: 'RealLinearTransformation | None' = None, "
                "periodic_dims: 'np.ndarray | None' = None) -> 'list[np.ndarray]'")
        assert _signature(repro.KIndex.range_query_batch) == (
            "(self, queries: 'Sequence[TimeSeries | FeatureVector]', "
            "epsilon: 'float | Sequence[float]', *, "
            "transformation: 'SpectralTransformation | None' = None, "
            "transform_query: 'bool' = True, exact: 'bool' = True) "
            "-> 'list[RangeQueryResult]'")

    def test_nearest_kernel(self):
        import repro.index

        kernel = ("k: 'int', "
                  "lower_bound: 'Callable[[np.ndarray, np.ndarray], np.ndarray]', "
                  "exact: 'Callable[[np.ndarray], np.ndarray] | None' = None, "
                  "transformation: 'RealLinearTransformation | None' = None, "
                  "seeds: 'tuple[np.ndarray, np.ndarray] | None' = None) "
                  "-> 'tuple[np.ndarray, np.ndarray]'")
        assert not hasattr(repro.index.rtree, "nearest_search")
        assert _signature(repro.PackedRTree.nearest_search) == "(self, " + kernel
        assert _signature(repro.RTree.nearest_search) == "(self, " + kernel
        assert _signature(repro.KIndex.nearest_neighbors) == (
            "(self, query: 'TimeSeries | FeatureVector', k: 'int' = 1, *, "
            "transformation: 'SpectralTransformation | None' = None, "
            "transform_query: 'bool' = True) -> 'NearestNeighborResult'")
        assert not hasattr(repro.index, "transformed_nearest_neighbors_iter")
        assert "transformed_nearest_neighbors_iter" not in repro.index.__all__

    def test_write_path(self):
        from repro.index import kindex
        loader = ("collection: 'Iterable[TimeSeries]', "
                  "extractor: 'SeriesFeatureExtractor | None' = None, "
                  "**options: 'Any') -> \"'KIndex'\"")
        kind = repro.KIndex
        assert _signature(kind.bulk_load) == "(" + loader
        assert _signature(kind.build_by_insertion) == "(" + loader
        assert _signature(kind.extend) == (
            "(self, collection: 'Iterable[TimeSeries]') -> 'None'")
        assert _signature(kind.insert) == "(self, series: 'TimeSeries') -> 'int'"
        assert isinstance(kind.tail_rows, property) and kind.tail_rows.fset is None
        assert _signature(repro.SeriesFeatureExtractor.extract_many) == (
            "(self, collection: 'Sequence[TimeSeries]') -> "
            "'tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]'")
        assert _signature(repro.ColumnarRecordStore.extend) == (
            "(self, collection: 'Iterable[Any]') -> 'None'")
        # Constructor options: the extractor and the node capacity, which
        # defaults to what one page holds at the extractor's dimension.
        assert _signature(repro.KIndex) == (
            "(extractor: 'SeriesFeatureExtractor | None' = None, *, "
            "max_entries: 'int | None' = None) -> 'None'")
        assert repro.KIndex().max_entries == kindex.page_capacity(6) == 39
        # The seal and chunk sizes are constants, not options.
        from repro.timeseries import features
        assert (kindex.SEAL_MIN_ROWS, kindex.SEAL_SHARE) == (256, 16)
        assert features.EXTRACT_CHUNK_ROWS == 512


    def test_statistics_array_forms(self):
        """What statistics collection reads (ISSUE 23): the index's point
        rows by record id, and a feature space's distances as arrays; the
        tail's page count is a live property, not a structure-summary key."""
        kind = repro.KIndex
        assert _signature(kind.points) == "(self, positions: 'np.ndarray') -> 'np.ndarray'"
        assert isinstance(kind.tail_pages, property) and kind.tail_pages.fset is None
        for space in (repro.PolarSpace, repro.RectangularSpace):
            assert _signature(space.window_entry_distances) == (
                "(self, points: 'np.ndarray') -> 'np.ndarray'")
            assert _signature(space.pairwise) == "(self, points: 'np.ndarray') -> 'np.ndarray'"
            assert _signature(space.distances_to) == (
                "(self, point: 'FeatureVector', points: 'np.ndarray') -> 'np.ndarray'")
            assert _signature(space.decode_rows) == (
                "(self, points: 'np.ndarray') -> 'tuple[np.ndarray, np.ndarray]'")
        from repro.core.query.costmodel import QueryCostModel
        for estimate in ("index_range", "index_nearest", "index_join"):
            assert "*, tail_pages: 'float' = 0.0) -> 'CostEstimate'" in _signature(
                getattr(QueryCostModel, estimate))

    def test_packed_tree_and_growers(self):
        """One immutable tree with the loader and the probes; growers that
        insert and hand over ``packed()``."""
        loader = ("records: 'Sequence[Any] | np.ndarray', *, "
                  "max_entries: 'int' = 8) -> \"'PackedRTree'\"")
        assert _signature(repro.PackedRTree.bulk_load) == \
            "(points: 'np.ndarray', " + loader
        assert _signature(repro.PackedRTree.bulk_load_rects) == \
            "(lows: 'np.ndarray', highs: 'np.ndarray', " + loader
        assert _signature(repro.PackedRTree.transformed) == (
            "(self, transformation: 'RealLinearTransformation') -> \"'PackedRTree'\"")
        assert _signature(repro.RTree.packed) == "(self) -> 'PackedRTree'"
        assert _signature(repro.RTree) == (
            "(dimension: 'int', max_entries: 'int' = 8, "
            "min_entries: 'int | None' = None, split: 'str' = 'quadratic') -> 'None'")
        assert _signature(repro.RStarTree) == (
            "(dimension: 'int', max_entries: 'int' = 8, "
            "min_entries: 'int | None' = None) -> 'None'")
        for gone in ("insert", "node", "root", "all_entries"):
            assert not hasattr(repro.PackedRTree, gone)
        for gone in ("visit", "release_pages", "buffer", "bulk_load",
                     "bulk_load_points", "bulk_load_rects", "structure_summary"):
            assert not hasattr(repro.RTree, gone)
