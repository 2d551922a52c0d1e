"""Indexing: R-tree family, the k-index, the metric (VP) index and scans."""

from .geometry import Rect, mindist, mindist_batch, minmaxdist, rects_overlap
from .kindex import KIndex, NearestNeighborResult, QueryStatistics, RangeQueryResult
from .metric import MetricIndex
from .rstar import RStarTree
from .rtree import PackedRTree, RTree, RTreeEntry, RTreeNode
from .scan import SequentialScan

__all__ = [
    "Rect", "mindist", "minmaxdist", "mindist_batch", "rects_overlap",
    "KIndex", "MetricIndex", "RangeQueryResult", "NearestNeighborResult", "QueryStatistics",
    "PackedRTree", "RStarTree", "RTree", "RTreeEntry", "RTreeNode",
    "SequentialScan",
]
