"""Indexing: the packed R-tree, the k-index, the metric (VP) index and scans."""

from .geometry import Rect, mindist, mindist_batch, rects_overlap
from .kindex import KIndex, NearestNeighborResult, QueryStatistics, RangeQueryResult
from .metric import MetricIndex
from .rtree import PackedRTree
from .scan import SequentialScan

__all__ = [
    "Rect", "mindist", "mindist_batch", "rects_overlap",
    "KIndex", "MetricIndex", "RangeQueryResult", "NearestNeighborResult", "QueryStatistics",
    "PackedRTree", "SequentialScan",
]
