"""Catalog statistics: what the cost-based planner knows about a relation.

The evaluation's central finding is that the index wins or loses against a
sequential scan depending on relation size, query selectivity and answer-set
size.  A planner that *decides* that tradeoff (rather than hard-coding a
crossover constant) needs per-relation measurements:

* **cardinality** and an estimated **record size** (which, through the
  simulated page arithmetic, prices a sequential scan);
* for feature-space (time-series) relations: the **bounding extents** and
  per-dimension **spread** of the indexed points, plus the structure of the
  registered R-tree (height, node counts, fanout, typical node radius);
* a **sampled distance histogram**: exact distances between sampled object
  pairs.  Its CDF estimates the answer fraction of a range query at any
  threshold; for feature relations a second histogram of *filter* (feature
  point) distances estimates the candidate fraction the index produces; for
  metric/provider relations the histogram's self-difference distribution
  ``P(|D1 - D2| <= eps)`` estimates how much triangle-inequality pruning a
  vantage-point tree achieves.

Statistics are collected by :meth:`Database.analyze` (or lazily on first
plan), stored on the :class:`~repro.core.database.Database`, and versioned by
an ``epoch`` that folds into
:meth:`~repro.core.database.Database.state_token` — so an explicit
``analyze`` invalidates cached plans and answers by construction, while lazy
collection (epoch 0, indistinguishable from "never analyzed") does not.
Once they exist, **the writer keeps them fresh**: the front-door write that
moves their basis (:func:`statistics_basis` — a cardinality band crossed, the
index set changed, the spatial index sealed) ends by re-collecting them, so
no read pays for a collection another request's write made necessary.

Collection is array code.  An indexed relation is measured off the index's
own arrays — :meth:`KIndex.points <repro.index.kindex.KIndex.points>` rows
through :meth:`FeatureSpace.pairwise <repro.core.spaces.FeatureSpace.pairwise>`
for the filter histogram, column reductions for extents and spread, the
columnar store's pair kernel for the exact distances — with no per-record
object and no temporary sized by the relation (2.5 ms at 5000×128, most of it
the exact pair kernel).

A bounded-EWMA **feedback loop** closes the gap between estimates and
reality: after every executed range query the engine reports the observed
candidate and answer fractions, and the statistics fold the observed /
predicted ratio into correction factors the cost model applies — so repeated
workloads converge on the measured crossover without hand-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["DistanceHistogram", "RelationStatistics", "collect_statistics", "statistics_basis"]

#: Objects sampled per relation when collecting statistics (pair count is
#: quadratic in this, so keep it modest; ~1k exact distances per collection).
SAMPLE_SIZE = 48
#: Sample cap for provider relations, whose exact distance (e.g. the edit
#: distance dynamic program) is much more expensive than a vector norm.
PROVIDER_SAMPLE_SIZE = 28
#: Cap on the number of points used for extent/spread computation.
EXTENT_SAMPLE_SIZE = 2048

#: EWMA smoothing for the observed/predicted correction factors.
EWMA_ALPHA = 0.25
#: One observation may move the correction by at most this ratio band ...
RATIO_BOUNDS = (0.125, 8.0)
#: ... and the accumulated correction itself stays within this band.
CORRECTION_BOUNDS = (0.25, 4.0)


class DistanceHistogram:
    """An empirical distance distribution held as a sorted sample.

    ``fraction_within`` is the CDF (the expected answer fraction of a range
    query at that threshold), ``quantile`` its inverse (the radius expected
    to capture a given fraction — how nearest-neighbour queries are priced),
    and ``pair_fraction_within`` the self-difference CDF
    ``P(|D1 - D2| <= eps)`` for two independent draws (the fraction of
    objects a vantage-point pivot fails to prune at radius ``eps``).
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.sort(np.asarray(values, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def fraction_within(self, epsilon: float) -> float:
        """Empirical ``P(D <= epsilon)``."""
        if len(self) == 0:
            return 0.0
        return float(np.searchsorted(self.values, epsilon, side="right")) / len(self)

    def quantile(self, fraction: float) -> float:
        """Smallest sampled distance ``d`` with ``P(D <= d) >= fraction``."""
        if len(self) == 0:
            return 0.0
        position = min(len(self) - 1, max(0, int(np.ceil(fraction * len(self))) - 1))
        return float(self.values[position])

    def pair_fraction_within(self, epsilon: float) -> float:
        """Empirical ``P(|D1 - D2| <= epsilon)`` for independent draws."""
        if len(self) == 0:
            return 0.0
        highs = np.searchsorted(self.values, self.values + epsilon, side="right")
        lows = np.searchsorted(self.values, self.values - epsilon, side="left")
        return float(np.sum(highs - lows)) / (len(self) ** 2)

    def __repr__(self) -> str:
        if len(self) == 0:
            return "DistanceHistogram(empty)"
        return (
            f"DistanceHistogram(n={len(self)}, min={self.values[0]:.3g}, "
            f"median={self.quantile(0.5):.3g}, max={self.values[-1]:.3g})"
        )


def _clamp(value: float, bounds: tuple[float, float]) -> float:
    return min(bounds[1], max(bounds[0], value))


@dataclass
class RelationStatistics:
    """Everything the cost model knows about one relation.

    ``kind`` is ``"feature-indexed"`` (a spatial index with a known
    structure), ``"feature"`` (feature-space objects, scan only) or
    ``"provider"`` (compared through a registered distance provider).
    """

    relation: str
    cardinality: int
    kind: str
    epoch: int = 0
    #: Estimated bytes of one full stored record (prices the scan's pages).
    record_bytes: int = 0
    #: Feature-space bounding extents and per-dimension spread (feature kinds).
    extent_low: np.ndarray | None = None
    extent_high: np.ndarray | None = None
    spread: np.ndarray | None = None
    #: Structure of the registered spatial index (see RTree.structure_summary).
    tree_summary: dict[str, float] | None = None
    #: Structure of the registered metric index, when one exists.
    metric_summary: dict[str, float] | None = None
    #: Exact (full-record or provider) distances between sampled pairs.
    answer_histogram: DistanceHistogram | None = None
    #: Filter (feature point) distances between the same pairs — what the
    #: spatial index's candidate set is governed by.  ``None`` for provider
    #: relations (the answer histogram plays both roles there).
    filter_histogram: DistanceHistogram | None = None
    #: Bounded-EWMA corrections learned from executed queries.
    candidate_correction: float = 1.0
    answer_correction: float = 1.0
    observations: int = 0
    #: Snapshot of the catalog facts the statistics were collected under —
    #: used to detect staleness (see :func:`statistics_basis`).
    basis: tuple = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    @property
    def can_estimate(self) -> bool:
        """Whether the histograms support selectivity estimation."""
        return self.answer_histogram is not None and len(self.answer_histogram) > 0

    def answer_fraction(self, epsilon: float) -> float | None:
        """Expected fraction of the relation answering a range query."""
        if not self.can_estimate:
            return None
        raw = self.answer_histogram.fraction_within(epsilon)
        return min(1.0, raw * self.answer_correction)

    def candidate_fraction(self, epsilon: float) -> float | None:
        """Expected fraction the spatial index yields as candidates."""
        histogram = self.filter_histogram or self.answer_histogram
        if histogram is None or len(histogram) == 0:
            return None
        raw = histogram.fraction_within(epsilon)
        return min(1.0, raw * self.candidate_correction)

    def pair_fraction(self, epsilon: float) -> float | None:
        """Expected fraction a metric pivot fails to prune at ``epsilon``."""
        if not self.can_estimate:
            return None
        raw = self.answer_histogram.pair_fraction_within(epsilon)
        return min(1.0, raw * self.candidate_correction)

    def answer_quantile(self, fraction: float) -> float | None:
        """Radius expected to capture ``fraction`` of the relation."""
        if not self.can_estimate:
            return None
        return self.answer_histogram.quantile(fraction)

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def observe_range(
        self,
        epsilon: float,
        *,
        candidate_fraction: float | None = None,
        answer_fraction: float | None = None,
    ) -> None:
        """Fold one executed range query's measurements back in.

        Each observed/predicted ratio is clamped (a single outlier cannot
        swing the model) and folded into the matching correction by EWMA;
        the corrections themselves stay within ``CORRECTION_BOUNDS``.
        Observations never touch :attr:`epoch` — estimates steer future
        *planning*, they do not change any cached *answer*.
        """
        if answer_fraction is not None and self.answer_histogram is not None:
            predicted = self.answer_histogram.fraction_within(epsilon)
            self._fold("answer_correction", answer_fraction, predicted)
        if candidate_fraction is not None:
            if self.kind == "provider":
                histogram = self.answer_histogram
                predicted = (
                    histogram.pair_fraction_within(epsilon) if histogram is not None else 0.0
                )
            else:
                histogram = self.filter_histogram or self.answer_histogram
                predicted = histogram.fraction_within(epsilon) if histogram is not None else 0.0
            self._fold("candidate_correction", candidate_fraction, predicted)
        self.observations += 1

    def _fold(self, attribute: str, observed: float, predicted: float) -> None:
        # A near-zero prediction carries no ratio information (and an
        # observed zero is already "as predicted" there).
        if predicted <= 1e-9 or observed < 0.0:
            return
        ratio = _clamp(observed / predicted, RATIO_BOUNDS)
        current = getattr(self, attribute)
        updated = (1.0 - EWMA_ALPHA) * current + EWMA_ALPHA * ratio
        setattr(self, attribute, _clamp(updated, CORRECTION_BOUNDS))

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-paragraph summary (what ``session.analyze`` reports)."""
        parts = [
            f"statistics for {self.relation!r} (epoch {self.epoch}): "
            f"{self.cardinality} objects, kind {self.kind}, "
            f"~{self.record_bytes} bytes/record"
        ]
        if self.answer_histogram is not None and len(self.answer_histogram):
            parts.append(f"distance sample {self.answer_histogram!r}")
        if self.tree_summary is not None:
            t = self.tree_summary
            parts.append(
                f"tree height {t['height']:.0f}, "
                f"{t['leaf_count']:.0f} leaves / "
                f"{t['internal_count']:.0f} internals"
            )
        if self.observations:
            parts.append(
                f"{self.observations} feedback observations "
                f"(candidate x{self.candidate_correction:.2f}, "
                f"answer x{self.answer_correction:.2f})"
            )
        return "; ".join(parts)

    def __repr__(self) -> str:
        return (
            f"RelationStatistics({self.relation!r}, n={self.cardinality}, "
            f"kind={self.kind!r}, epoch={self.epoch})"
        )


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------
def statistics_basis(database: Any, relation_name: str) -> tuple:
    """The catalog facts statistics depend on, as a comparable snapshot.

    Cardinality is bucketed (factor-of-1.25 bands) rather than exact, so
    ordinary inserts do not mark statistics stale on every row — only growth
    past a band boundary, a change to the registered index set, or a *seal*
    of the spatial index (its packed-row count: the tree the structure
    summary describes was replaced) does.  The write that moves the basis
    refreshes the statistics (:meth:`Database.refresh_statistics`).
    """
    count = len(database.relation(relation_name))
    bucket = 0 if count == 0 else int(np.floor(np.log(count) / np.log(1.25)))
    index_signature = tuple(
        sorted(
            (name, type(index).__name__)
            for name, index in database.indexes_on(relation_name).items()
        )
    )
    spatial = _spatial_index_for(database, relation_name)
    return (
        bucket,
        index_signature,
        database.has_distance_provider(relation_name),
        None if spatial is None else len(spatial.tree),
    )


def sample_positions(count: int, sample_size: int) -> np.ndarray:
    """Deterministic, evenly spaced sample positions (no RNG: analyze must
    be reproducible for the regression tests and the benchmark)."""
    if count <= sample_size:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, sample_size).astype(np.intp))


def _spatial_index_for(database: Any, relation_name: str):
    """The registered KIndex-like index (has a tree and an extractor)."""
    for index in database.indexes_on(relation_name).values():
        if (
            getattr(index, "tree", None) is not None
            and getattr(index, "extractor", None) is not None
        ):
            return index
    return None


def _metric_index_for(database: Any, relation_name: str):
    for index in database.indexes_on(relation_name).values():
        if getattr(index, "is_metric", False):
            return index
    return None


def collect_statistics(
    database: Any, relation_name: str, *, sample_size: int = SAMPLE_SIZE
) -> RelationStatistics:
    """Measure a relation: cardinality, extents, structure, histograms.

    Whatever cannot be measured (an empty relation's extents, objects that
    are not series-like, a provider distance that raises) is left ``None``
    and the cost model degrades to its default selectivity for those
    estimates; a registered spatial index that cannot describe itself is an
    error, not a missing estimate.
    """
    relation = database.relation(relation_name)
    count = len(relation)
    basis = statistics_basis(database, relation_name)
    if database.has_distance_provider(relation_name):
        stats = _collect_provider(database, relation, min(sample_size, PROVIDER_SAMPLE_SIZE))
    elif (index := _spatial_index_for(database, relation_name)) is not None:
        stats = _collect_from_index(relation, index, sample_size)
    else:
        stats = collect_by_extraction(database, relation, sample_size)
    stats.cardinality = count
    stats.basis = basis
    return stats


def _collect_provider(database: Any, relation, sample_size: int) -> RelationStatistics:
    provider = database.distance_provider(relation.name)
    objects = relation.objects()
    sampled = [objects[int(i)] for i in sample_positions(len(objects), sample_size)]
    histogram = None
    if len(sampled) >= 2:
        try:
            histogram = DistanceHistogram(
                [
                    provider.distance(left, right)
                    for i, left in enumerate(sampled)
                    for right in sampled[i + 1 :]
                ]
            )
        except Exception:  # noqa: BLE001 - estimates only, never fail a plan
            histogram = None
    sizes = [len(getattr(obj, "text", "")) or 64 for obj in sampled] or [64]
    stats = RelationStatistics(
        relation=relation.name,
        cardinality=len(objects),
        kind="provider",
        record_bytes=int(np.mean(sizes)),
        answer_histogram=histogram,
    )
    metric_index = _metric_index_for(database, relation.name)
    if metric_index is not None:
        summary = getattr(metric_index, "structure_summary", None)
        if callable(summary):
            try:
                stats.metric_summary = summary()
            except Exception:  # noqa: BLE001
                stats.metric_summary = None
    return stats


def _exact_histogram(store, positions: np.ndarray, include_stats: bool) -> DistanceHistogram | None:
    """Exact distances between the sampled rows of a columnar store — the
    arrays, and the pair kernel, the query paths use; ``None`` under two rows."""
    from ..storage.columnar import pairwise_distances

    if len(positions) < 2:
        return None
    arrays = (store.coefficients, store.lengths, store.means, store.stds)
    return DistanceHistogram(pairwise_distances(*arrays, include_stats, row_ids=positions))


def filter_histogram(index, positions: np.ndarray) -> DistanceHistogram | None:
    """Filter (feature point) distances between the index's sampled rows, as
    one array expression over its point rows; ``None`` under two rows."""
    if len(positions) < 2:
        return None
    return DistanceHistogram(index.space.pairwise(index.points(positions)))


def _collect_from_index(relation, index, sample_size: int) -> RelationStatistics:
    """Indexed feature relations: everything is read off the index's arrays
    — exact distances from its columnar store, filter distances, extents
    and spread from its point rows — never a record at a time."""
    count = len(index)
    positions = sample_positions(count, sample_size)
    answer = _exact_histogram(index.store, positions, index.extractor.include_stats)
    extent_low = extent_high = spread = None
    if count:
        points = index.points(sample_positions(count, EXTENT_SAMPLE_SIZE))
        extent_low = points.min(axis=0)
        extent_high = points.max(axis=0)
        spread = points.std(axis=0)
    return RelationStatistics(
        relation=relation.name,
        cardinality=count,
        kind="feature-indexed",
        record_bytes=index.store.record_bytes() if count else 64,
        extent_low=extent_low,
        extent_high=extent_high,
        spread=spread,
        tree_summary=index.structure_summary(),
        answer_histogram=answer,
        filter_histogram=filter_histogram(index, positions),
    )


def collect_by_extraction(database: Any, relation, sample_size: int) -> RelationStatistics:
    """Scan-only feature relations: sample the relation's shared columnar
    store — the exact arrays the executor's sequential scan reads — instead
    of re-extracting records here."""
    answer = None
    record_bytes = 64
    try:
        store = database.columnar_store(relation.name)
        if len(store):
            record_bytes = store.record_bytes()
        answer = _exact_histogram(store, sample_positions(len(store), sample_size), True)
    except Exception:  # noqa: BLE001 - not series-like; stay minimal
        answer = None
    return RelationStatistics(
        relation=relation.name,
        cardinality=len(relation),
        kind="feature",
        record_bytes=record_bytes,
        answer_histogram=answer,
    )
