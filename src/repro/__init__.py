"""repro — similarity-based queries through cost-bounded transformations.

A reproduction of the PODS 1995 "Similarity-Based Queries" framework
(pattern language, transformation language with costs, similarity predicate,
query language) together with its canonical time-series instantiation:
DFT features, safe linear transformations (moving average, reversal, shift,
scale, time warping) and R*-tree-backed query processing that traverses one
physical index under any safe transformation.

Quickstart
----------
The front door is a :class:`~repro.core.session.Session` (``repro.connect``):
it owns the catalog, the transformation registry, the plan/answer caches and
the execution engine.  Queries are written as text, as a fluent ``Q`` chain,
or prepared once and run many times:

>>> import repro
>>> from repro import KIndex, Q, moving_average_spectral, random_walk_collection
>>> data = random_walk_collection(200, 128, seed=7)
>>> session = repro.connect()
>>> _ = session.relation("walks").insert_many(data).with_index(KIndex())
>>> session = session.with_transformation("mavg20", moving_average_spectral(128, 20))
>>> query = Q.from_("walks").under("mavg20").within(2.0).of(Q.param("q"))
>>> prepared = session.prepare(query)
>>> [series.name for series, distance in prepared.run(q=data[0]).answers][:1]
['walk-0']

``session.sql(text_or_builder, **params)`` runs ad-hoc queries,
``prepared.run_many(bindings)`` executes a parameter batch through one shared
index traversal, and ``session.explain(query)`` prints the plan that will
actually run.  The lower-level pieces (``Database``, ``QueryEngine``,
``KIndex`` ...) remain public for direct use.

The package is organised as:

``repro.core``
    The domain-independent framework: objects, feature spaces,
    transformations, safety, patterns, rules, the similarity engine, the
    relational catalog and the query language.
``repro.timeseries``
    The time-series domain: DFT, normal forms, spectral transformations,
    generators and feature extraction.
``repro.index``
    The packed R-tree (searched under a transformation by
    ``PackedRTree.window_search`` / ``nearest_search``), the two indexes the
    catalog holds — the k-index and the metric (vantage-point) index — and
    the sequential-scan baselines.
``repro.strings``
    A second domain instantiation (weighted edit transformations).
``repro.storage``
    The columnar record store and its kernels, row partitions, the scan's
    page store and buffer pool, and — ``repro.storage.durable`` — the
    persistent catalog: segments, write-ahead log, manifest, index pages.
``repro.server``
    The wire server over a ``Session`` (a thread per connection) and —
    ``repro.client`` — the retrying client for it.
``repro.bench``
    The experiment harness reproducing the evaluation's figures and table,
    and the dynamic R-/R*-trees grown by insertion that the figures were
    measured on.
"""

from __future__ import annotations

from .core.advisor import IndexAdvisor, IndexRecommendation, WorkloadProfile
from .core.cost import AdditiveCostModel, CostBudget, MaxCostModel
from .core.database import Database, DistanceProvider, Relation, Row
from .core.distance import city_block, euclidean, euclidean_with_early_abandon
from .core.errors import (
    CatalogError,
    ConnectionLostError,
    CostExceededError,
    DeadlineExceededError,
    DimensionMismatchError,
    PatternError,
    ProtocolError,
    QueryBuildError,
    QueryCancelledError,
    QueryPlanningError,
    QuerySyntaxError,
    ReproError,
    RetryExhaustedError,
    RetryLaterError,
    ServerError,
    SessionClosedError,
    UnsafeTransformationError,
)
from .core.objects import DataObject, FeatureVector, GenericObject
from .core.patterns import (
    AnyPattern,
    ConstantPattern,
    Pattern,
    PredicatePattern,
    RelationPattern,
    TransformedPattern,
)
from .core.query.ast import AllPairsQuery, NearestNeighborQuery, RangeQuery, SimilarityQuery
from .core.query.builder import Param, Q, QueryBuilder
from .core.query.costmodel import CostEstimate, QueryCostModel
from .core.query.executor import QueryEngine, QueryOutcome
from .core.query.parser import parse as parse_query
from .core.query.planner import Planner, RejectedPlan, explain
from .core.cancel import CancellationToken, cancel_scope, checkpoint as cancellation_checkpoint
from .core.session import BoundQuery, PreparedQuery, RelationHandle, Session, connect
from .core.stats import DistanceHistogram, RelationStatistics
from .core.rules import TransformationRuleSet
from .core.similarity import SimilarityEngine, is_similar, transformation_distance
from .core.spaces import PolarSpace, RectangularSpace
from .core.transformations import (
    ComposedTransformation,
    FunctionTransformation,
    IdentityTransformation,
    LinearTransformation,
    RealLinearTransformation,
    Transformation,
)
from .index.geometry import Rect, mindist
from . import client
from .server import (
    BackoffPolicy,
    FaultPlan,
    ObjectRef,
    QueryServer,
    RemoteCursor,
    RemoteOutcome,
    RemoteStatement,
    ServerClient,
    ServerConfig,
    ServerHandle,
    serve,
)
from .index.kindex import KIndex, NearestNeighborResult, RangeQueryResult
from .index.metric import MetricIndex
from .index.rtree import PackedRTree
from .index.scan import SequentialScan
from .storage.buffer import BufferPool
from .storage.columnar import ColumnarRecordStore
from .storage.durable import (
    ColumnSegment,
    DurableDatabase,
    SegmentPageStore,
    WriteAheadLog,
)
from .strings.distance import transformation_edit_distance, weighted_edit_distance
from .strings.provider import edit_distance_provider
from .strings.objects import StringObject
from .timeseries.dft import dft, inverse_dft
from .timeseries.distances import dtw_distance, normalized_euclidean
from .timeseries.features import SeriesFeatureExtractor
from .timeseries.generators import (
    noisy_copy,
    opposite_copy,
    random_walk,
    random_walk_collection,
)
from .timeseries.normalform import normalize
from .timeseries.series import TimeSeries
from .timeseries.stockdata import StockArchiveConfig, make_stock_archive
from .timeseries.transforms import (
    MovingAverageTransform,
    ReverseTransform,
    ScaleTransform,
    ShiftTransform,
    SpectralTransformation,
    TimeWarpTransform,
    identity_spectral,
    moving_average_spectral,
    reverse_spectral,
    scale_spectral,
    shift_spectral,
    time_warp_linear,
)

__version__ = "1.0.0"

__all__ = [
    "AdditiveCostModel", "CostBudget", "MaxCostModel",
    "Database", "DistanceProvider", "Relation", "Row",
    "city_block", "euclidean", "euclidean_with_early_abandon",
    "ReproError", "DimensionMismatchError", "UnsafeTransformationError",
    "CatalogError", "CostExceededError", "PatternError", "QuerySyntaxError",
    "QueryBuildError", "QueryPlanningError",
    "SessionClosedError", "QueryCancelledError", "DeadlineExceededError",
    "ServerError", "ProtocolError", "RetryLaterError", "ConnectionLostError",
    "RetryExhaustedError",
    "CancellationToken", "cancel_scope", "cancellation_checkpoint",
    "serve", "ServerConfig", "ServerHandle", "QueryServer", "ServerClient",
    "BackoffPolicy", "RemoteOutcome", "RemoteStatement", "RemoteCursor",
    "ObjectRef", "FaultPlan", "client",
    "DataObject", "FeatureVector", "GenericObject",
    "Pattern", "AnyPattern", "ConstantPattern", "PredicatePattern",
    "RelationPattern", "TransformedPattern",
    "RangeQuery", "NearestNeighborQuery", "AllPairsQuery", "SimilarityQuery",
    "QueryEngine", "QueryOutcome", "parse_query", "Planner", "explain",
    "CostEstimate", "QueryCostModel", "RejectedPlan",
    "DistanceHistogram", "RelationStatistics",
    "IndexAdvisor", "IndexRecommendation", "WorkloadProfile",
    "connect", "Session", "PreparedQuery", "BoundQuery", "RelationHandle",
    "Q", "Param", "QueryBuilder",
    "TransformationRuleSet",
    "SimilarityEngine", "is_similar", "transformation_distance",
    "PolarSpace", "RectangularSpace",
    "Transformation", "IdentityTransformation", "FunctionTransformation",
    "ComposedTransformation", "LinearTransformation", "RealLinearTransformation",
    "Rect", "mindist",
    "KIndex", "MetricIndex", "RangeQueryResult", "NearestNeighborResult",
    "PackedRTree", "SequentialScan",
    "BufferPool", "ColumnarRecordStore",
    "ColumnSegment", "DurableDatabase", "SegmentPageStore", "WriteAheadLog",
    "StringObject", "weighted_edit_distance", "transformation_edit_distance",
    "edit_distance_provider",
    "dft", "inverse_dft", "dtw_distance", "normalized_euclidean",
    "SeriesFeatureExtractor",
    "random_walk", "random_walk_collection", "noisy_copy", "opposite_copy",
    "normalize", "TimeSeries",
    "StockArchiveConfig", "make_stock_archive",
    "SpectralTransformation", "MovingAverageTransform", "ReverseTransform",
    "ShiftTransform", "ScaleTransform", "TimeWarpTransform",
    "identity_spectral", "moving_average_spectral", "reverse_spectral",
    "shift_spectral", "scale_spectral", "time_warp_linear",
    "__version__",
]
