"""Indexing: R-tree family, the k-index, the metric (VP) index, transformed search and scans."""

from .geometry import Rect, mindist, mindist_batch, minmaxdist, rects_overlap
from .kindex import KIndex, NearestNeighborResult, QueryStatistics, RangeQueryResult
from .metric import MetricIndex
from .rstar import RStarTree
from .rtree import NodeAccessStats, PackedRTree, RTree, RTreeEntry, RTreeNode
from .scan import SequentialScan
from .transformed import (
    materialize_transformed_tree,
    transformed_nearest_neighbors,
    transformed_range_search,
)

__all__ = [
    "Rect", "mindist", "minmaxdist", "mindist_batch", "rects_overlap",
    "KIndex", "MetricIndex", "RangeQueryResult", "NearestNeighborResult", "QueryStatistics",
    "PackedRTree", "RStarTree", "RTree", "RTreeEntry", "RTreeNode", "NodeAccessStats",
    "SequentialScan",
    "materialize_transformed_tree", "transformed_range_search",
    "transformed_nearest_neighbors",
]
