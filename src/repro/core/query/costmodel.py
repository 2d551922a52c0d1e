"""The planner's cost model: pricing every physical plan before running it.

Every estimate is expressed in the evaluation's currency — **I/O accesses**
(index-node or data-page reads, plus one record fetch per index candidate)
with a CPU term for exact distance computations folded in at a fixed
exchange rate.  The same counters the executor measures
(:attr:`QueryStatistics.io_total`, ``postprocessed``) are what the estimates
target, so "estimated vs actual" in ``explain()`` and the crossover
benchmark compare like with like.

The inputs come from :class:`~repro.core.stats.RelationStatistics`:

* scans are priced by the page arithmetic of :mod:`repro.storage.pages`
  (cardinality / records-per-page sequential reads, one exact distance per
  record);
* R-tree plans derive the expected candidate count from the sampled
  *filter*-distance CDF and the expected node accesses from the tree's
  structure (a node is opened when the query ball, enlarged by the node's
  average radius, reaches it — the classical expected-node-access argument
  with the empirical distance distribution in place of a uniformity
  assumption);
* vantage-point (metric) plans derive the unpruned fraction from the
  self-difference distribution ``P(|D1 - D2| <= eps)`` of the sampled
  distances — exactly the triangle-inequality test the tree applies;
* nearest-neighbour queries are priced as tree probes at the radius the
  histogram expects to capture ``k`` answers, admitting what the sampled
  feature-distance CDF holds within it: the probe prunes by that lower bound,
  a ball, where a range probe filters by a rectangle;
* bounded-cost ``SIM`` predicates multiply the surviving candidates by a
  frontier bound for the similarity engine's uniform-cost search.

When a relation has never been sampled (or its statistics hold no tree
summary) the model degrades to :data:`DEFAULT_SELECTIVITY` and
flags the estimate ``can_estimate=False`` so the planner makes it lose cost
ties instead of silently assuming the index is good.

The model is **parallelism-aware**: when constructed with ``workers > 1``
(the executor fans sequential scans across that many threads), scan-family
estimates keep their counter fields as *totals* — the executor sums exact
per-partition work, so "estimated vs actual" still compares like with like
— but reprice ``total``, the planner's argmin key, as the parallel critical
path: the cost of the largest partition plus a merge term for combining
per-partition partial results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from ...index.kindex import page_capacity
from ...storage.pages import records_per_page
from ...timeseries.features import SeriesFeatureExtractor
from ..parallel import resolve_workers
from ..rules import TransformationRuleSet
from ..similarity import engine_steps
from ..stats import RelationStatistics

__all__ = ["CostEstimate", "QueryCostModel", "CPU_WEIGHT",
           "EARLY_ABANDON_WEIGHT", "MERGE_WEIGHT"]

#: Exchange rate: one *full* exact distance computation costs this many I/O
#: accesses.  The evaluation charges distance computations well below a
#: random page read but far above free — a quarter of an access keeps joins
#: (quadratic in computations) and provider relations (whose only currency
#: is distance computations) priced against the pages an index saves.
CPU_WEIGHT = 0.25

#: Exchange rate for the *early-abandoned* record checks of an optimised
#: range scan: a real series' spectrum keeps its energy in the lowest
#: frequencies, which a stored record holds at both of its ends (conjugate
#: symmetry), and the abandoning kernels visit those columns first, in
#: mirror pairs — so a non-answer is rejected after a round or two of
#: columns, an order of magnitude cheaper than a full computation.  This
#: keeps the range-query cost model I/O-dominated, as in the evaluation's
#: page-access figures.
EARLY_ABANDON_WEIGHT = 0.02

#: Exchange rate for combining per-partition partial results (k-way heap
#: merge for nearest neighbours, concatenate-and-sort for ranges and joins):
#: one merged element costs a float comparison or two — an order of
#: magnitude below even an early-abandoned distance check.  The merge term
#: keeps the parallel repricing honest: fanning a scan out is not free, and
#: the modelled speedup flattens as the merge share grows.
MERGE_WEIGHT = 0.002

#: Answer/candidate fraction assumed when no histogram is available.
DEFAULT_SELECTIVITY = 0.33

#: Hard cap for the similarity-engine frontier estimate (mirrors the
#: engine's bounded state budget; its depth is the search's own,
#: :func:`~repro.core.similarity.engine_steps`).
_ENGINE_FRONTIER_CAP = 4096.0

#: Smoothing factor for the observed buffer-pool miss fraction: recent
#: scans dominate, but one anomalous pass (a cold pool after a checkpoint,
#: say) cannot swing the estimate to an extreme on its own.
BUFFER_EWMA_ALPHA = 0.3

#: Floor for the smoothed miss fraction.  A fully-resident relation would
#: otherwise drive scan I/O estimates to zero and the planner would never
#: reconsider the index even after the pool is evicted.
MIN_BUFFER_MISS_RATE = 0.02


@dataclass(frozen=True)
class CostEstimate:
    """Predicted work of one physical plan.

    ``io_accesses`` — expected node/page reads plus candidate record
    fetches (the counter :attr:`QueryStatistics.io_total` measures);
    ``candidates`` — objects surviving the filter and needing exact
    postprocessing; ``distance_computations`` — exact distance evaluations;
    ``total`` — the planner's argmin key (I/O plus weighted CPU; for a
    plan fanned across ``workers > 1`` threads it is the parallel critical
    path — the serial work divided over balanced partitions, plus
    ``merge_cost`` for combining the partial results);
    ``can_estimate`` — whether real statistics backed the numbers (a
    defaulted estimate loses cost ties).
    """

    io_accesses: float
    candidates: float
    distance_computations: float
    total: float
    can_estimate: bool = True
    cpu_weight: float = CPU_WEIGHT
    detail: str = ""
    workers: int = 1
    merge_cost: float = 0.0

    def render(self) -> str:
        """Compact human-readable form for ``explain()`` output."""
        qualifier = "" if self.can_estimate else " (assumed: no statistics)"
        work = (f"{self.io_accesses:.1f} I/O + {self.cpu_weight:g} x "
                f"{self.distance_computations:.1f} distance computations")
        if self.workers > 1:
            text = (f"{self.total:.1f} total = ({work}) / {self.workers} "
                    f"workers + {self.merge_cost:.1f} merge{qualifier}")
        else:
            text = f"{self.total:.1f} total = {work}{qualifier}"
        if self.detail:
            text += f" [{self.detail}]"
        return text


def _assumed_fanout(stats: RelationStatistics | None) -> int:
    """Node capacity of the tree assumed when none was measured: the k-index
    default, a page (:func:`~repro.index.kindex.page_capacity`) at the
    sampled points' dimension, or at the default extractor's without them."""
    low = stats.extent_low if stats is not None else None
    dimension = SeriesFeatureExtractor().space.dimension if low is None else len(low)
    return page_capacity(dimension)


def _estimate(io: float, candidates: float, computations: float, *,
              can_estimate: bool = True, detail: str = "",
              cpu_weight: float = CPU_WEIGHT) -> CostEstimate:
    return CostEstimate(io_accesses=io, candidates=candidates,
                        distance_computations=computations,
                        total=io + cpu_weight * computations,
                        can_estimate=can_estimate, cpu_weight=cpu_weight,
                        detail=detail)


class QueryCostModel:
    """Prices plan families from relation statistics.

    Parameters
    ----------
    workers:
        Worker threads the executor fans sequential scans across (``None``
        and ``1`` mean serial, ``0`` means one per CPU core).  Scan-family
        estimates reprice their ``total`` as the parallel critical path;
        index estimates stay serial, because an index probe is one traversal
        of one tree on one thread.
    """

    def __init__(self, *, workers: int | None = None) -> None:
        self.workers = resolve_workers(workers)
        # Observed buffer-pool behaviour of executed scans (durable storage
        # routes real page reads through a pool).  Until the first
        # observation every scanned page is priced as a device read, which
        # is exactly the historical behaviour.
        self._buffer_miss_rate = 1.0
        self._buffer_observations = 0

    @property
    def buffer_miss_rate(self) -> float:
        """Smoothed fraction of scanned pages expected to miss the buffer
        pool (1.0 until a scan has actually been observed)."""
        return self._buffer_miss_rate

    def observe_buffer(self, hits: int, misses: int) -> None:
        """Fold one executed scan's buffer-pool counters into the model.

        The executor calls this after every scan-family query that ran
        through a buffer pool; subsequent scan estimates price only the
        expected *device* reads, so a hot pool shifts the index/scan
        crossover toward the scan.
        """
        probes = int(hits) + int(misses)
        if probes <= 0:
            return
        observed = max(MIN_BUFFER_MISS_RATE, min(1.0, int(misses) / probes))
        if self._buffer_observations == 0:
            self._buffer_miss_rate = observed
        else:
            self._buffer_miss_rate += BUFFER_EWMA_ALPHA * (
                observed - self._buffer_miss_rate)
        self._buffer_observations += 1

    def _scan_io(self, pages: int) -> float:
        """Expected device reads of one sequential pass: the page count
        verbatim until a buffer pool has been observed, the miss-scaled
        count afterwards."""
        if self._buffer_observations == 0:
            return float(pages)
        return pages * self._buffer_miss_rate

    def _fan_out(self, estimate: CostEstimate,
                 merge_items: float) -> CostEstimate:
        """Reprice a scan-family estimate for partition-parallel execution.

        Counter fields stay totals (the executor sums per-partition exact
        work); only ``total`` becomes max-over-partitions plus the merge
        term for ``merge_items`` combined partial results.
        """
        if self.workers <= 1:
            return estimate
        merge = MERGE_WEIGHT * max(0.0, merge_items)
        return replace(estimate, workers=self.workers, merge_cost=merge,
                       total=estimate.total / self.workers + merge)

    # ------------------------------------------------------------------
    # fraction helpers (fall back to the default selectivity)
    # ------------------------------------------------------------------
    def _answer_fraction(self, stats: RelationStatistics | None,
                        epsilon: float) -> tuple[float, bool]:
        fraction = stats.answer_fraction(epsilon) if stats is not None else None
        if fraction is None:
            return DEFAULT_SELECTIVITY, False
        return fraction, True

    def _candidate_fraction(self, stats: RelationStatistics | None,
                            epsilon: float) -> tuple[float, bool]:
        fraction = stats.candidate_fraction(epsilon) if stats is not None else None
        if fraction is None:
            return DEFAULT_SELECTIVITY, False
        return fraction, True

    def _bound_fraction(self, stats: RelationStatistics | None,
                        epsilon: float) -> tuple[float, bool]:
        fraction = stats.bound_fraction(epsilon) if stats is not None else None
        if fraction is None:
            return DEFAULT_SELECTIVITY, False
        return fraction, True

    def _pair_fraction(self, stats: RelationStatistics | None,
                       epsilon: float) -> tuple[float, bool]:
        fraction = stats.pair_fraction(epsilon) if stats is not None else None
        if fraction is None:
            return min(1.0, 2.0 * DEFAULT_SELECTIVITY), False
        return fraction, True

    def _scan_pages(self, stats: RelationStatistics | None, cardinality: int) -> int:
        record_bytes = stats.record_bytes if stats is not None else 0
        if record_bytes <= 0:
            record_bytes = 256  # conservative default record size
        per_page = records_per_page(record_bytes)
        return -(-cardinality // per_page) if cardinality else 0

    def _nearest_radius(self, stats: RelationStatistics | None,
                        cardinality: int, k: int) -> float | None:
        if stats is None or cardinality == 0:
            return None
        return stats.answer_quantile(min(1.0, k / cardinality))

    # ------------------------------------------------------------------
    # feature-space (time-series) relations
    # ------------------------------------------------------------------
    def scan_range(self, stats: RelationStatistics | None,
                   cardinality: int, epsilon: float) -> CostEstimate:
        pages = self._scan_pages(stats, cardinality)
        base = _estimate(self._scan_io(pages), cardinality, cardinality,
                         cpu_weight=EARLY_ABANDON_WEIGHT,
                         detail=f"{pages} sequential pages, "
                                f"{cardinality} early-abandoned distances")
        answer_fraction, _ = self._answer_fraction(stats, epsilon)
        return self._fan_out(base, cardinality * answer_fraction)

    def index_range(self, stats: RelationStatistics | None,
                    cardinality: int, epsilon: float, *,
                    tail_pages: float = 0.0) -> CostEstimate:
        """``tail_pages`` is the index's unindexed tail *now*
        (:attr:`KIndex.tail_pages <repro.index.kindex.KIndex.tail_pages>`,
        read at plan time): every probe filters it whole, whatever the tree
        looked like when the statistics were collected."""
        return self._probe(stats, cardinality, epsilon, self._candidate_fraction, tail_pages)

    def _probe(self, stats: RelationStatistics | None, cardinality: int, epsilon: float,
               fraction, tail_pages: float) -> CostEstimate:
        """One tree probe at ``epsilon``: ``fraction(stats, radius)`` is the
        share of rows the probe admits at ``radius`` — its candidates at
        ``epsilon``, and, at ``epsilon`` enlarged by a node's average radius,
        the share of nodes it opens."""
        candidate_fraction, measured = fraction(stats, epsilon)
        candidates = cardinality * candidate_fraction
        tree = stats.tree_summary if stats is not None else None
        if tree is None or tree.get("node_count", 0) <= 0:
            # No structural knowledge: assume a packed tree of page-sized nodes.
            fanout = _assumed_fanout(stats)
            leaf_count = max(1.0, cardinality / fanout)
            nodes = 1.0 + math.log(max(1.0, leaf_count), fanout) \
                + leaf_count * candidate_fraction
            structural = False
        else:
            leaf_hit, _ = fraction(stats, epsilon + tree.get("avg_leaf_radius", 0.0))
            internal_hit, _ = fraction(stats, epsilon + tree.get("avg_internal_radius", 0.0))
            nodes = (tree["height"]
                     + tree["leaf_count"] * leaf_hit
                     + tree["internal_count"] * internal_hit)
            nodes = max(tree["height"], min(tree["node_count"], nodes))
            structural = True
        nodes += tail_pages
        io = nodes + candidates  # one record fetch per candidate
        return _estimate(io, candidates, candidates,
                         can_estimate=measured and structural,
                         detail=f"~{nodes:.1f} nodes"
                                + (f" ({tail_pages:.0f} of them tail pages)"
                                   if tail_pages else "")
                                + f" + {candidates:.1f} candidate fetches")

    def scan_nearest(self, stats: RelationStatistics | None,
                     cardinality: int, k: int) -> CostEstimate:
        pages = self._scan_pages(stats, cardinality)
        base = _estimate(self._scan_io(pages), cardinality, cardinality,
                         detail=f"{pages} sequential pages, full distances")
        # Each worker contributes a top-k list to the k-way heap merge.
        return self._fan_out(base, float(self.workers * k))

    def index_nearest(self, stats: RelationStatistics | None,
                      cardinality: int, k: int, *,
                      tail_pages: float = 0.0,
                      bound_weight: float | None = None) -> CostEstimate:
        """A k-index k-NN probe: the nodes and records its lower bound leaves
        within the k-th neighbour's radius.  ``bound_weight`` is the weight
        the probe gives the bound's coefficient term
        (:meth:`KIndex.bound_weight <repro.index.kindex.KIndex.bound_weight>`),
        named in the detail when given."""
        radius = self._nearest_radius(stats, cardinality, k)
        if radius is None:
            # Without a histogram assume a well-behaved search: root-to-leaf
            # descent plus a handful of candidates around k.
            tree = stats.tree_summary if stats is not None else None
            height = (tree["height"] if tree
                      else math.log(max(2, cardinality), _assumed_fanout(stats))) + tail_pages
            candidates = float(4 * k)
            return _estimate(height + candidates, candidates, candidates,
                             can_estimate=False,
                             detail="assumed k-neighbourhood descent")
        # The probe prunes by its lower bound — a feature-space distance, a
        # ball — not by the range filter's rectangle.
        estimate = self._probe(stats, cardinality, radius, self._bound_fraction, tail_pages)
        candidates = max(float(k), estimate.candidates)
        bound = {None: "", 1.0: ", paper bound", 2.0: ", mirror ×2"}[bound_weight]
        return _estimate(estimate.io_accesses - estimate.candidates + candidates,
                         candidates, candidates,
                         can_estimate=estimate.can_estimate,
                         detail=f"lower-bound ball at the k-th neighbour radius "
                                f"~{radius:.3g}{bound}")

    def scan_join(self, stats: RelationStatistics | None,
                  cardinality: int, epsilon: float) -> CostEstimate:
        # The nested scan join materialises the transformed records once (a
        # single sequential pass) and early-abandons its pair distances, so
        # the quadratic term is priced at the same early-abandon rate as the
        # range scan's record checks — measurements confirm the scan join
        # beats per-record index probes until the quadratic term dominates.
        pages = self._scan_pages(stats, cardinality)
        comparisons = cardinality * (cardinality - 1) / 2.0
        base = _estimate(self._scan_io(pages), comparisons, comparisons,
                         cpu_weight=EARLY_ABANDON_WEIGHT,
                         detail=f"{pages} pages + {comparisons:.0f} "
                                "early-abandoned pair distances")
        pair_fraction, _ = self._pair_fraction(stats, epsilon)
        return self._fan_out(base, comparisons * pair_fraction)

    def index_join(self, stats: RelationStatistics | None,
                   cardinality: int, epsilon: float, *,
                   tail_pages: float = 0.0) -> CostEstimate:
        per_probe = self.index_range(stats, cardinality, epsilon,
                                     tail_pages=tail_pages)
        io = cardinality * per_probe.io_accesses
        candidates = cardinality * per_probe.candidates
        return _estimate(io, candidates, candidates,
                         can_estimate=per_probe.can_estimate,
                         detail=f"{cardinality} index probes x "
                                f"{per_probe.io_accesses:.1f} I/O each")

    # ------------------------------------------------------------------
    # provider (domain-generic) relations
    # ------------------------------------------------------------------
    def provider_scan_range(self, stats: RelationStatistics | None,
                            cardinality: int, epsilon: float) -> CostEstimate:
        return _estimate(0.0, cardinality, cardinality,
                         detail=f"{cardinality} exact provider distances")

    def metric_range(self, stats: RelationStatistics | None,
                     cardinality: int, epsilon: float) -> CostEstimate:
        unpruned, measured = self._pair_fraction(stats, epsilon)
        summary = stats.metric_summary if stats is not None else None
        if summary is None:
            node_count = max(1.0, cardinality / 8.0)
            height = math.log(max(2.0, node_count), 2.0)
            structural = False
        else:
            node_count = summary["node_count"]
            height = summary["height"]
            structural = True
        subtree_hit, _ = self._pair_fraction(stats, 2.0 * epsilon)
        nodes = max(min(node_count, height + node_count * subtree_hit), 1.0)
        # The metric tree lives in memory: its currency is exact distance
        # computations (one pivot distance per visited node, one distance per
        # unpruned bucket entry), not page I/O — which is exactly what its
        # measured ``postprocessed`` counter reports.
        computations = nodes + cardinality * unpruned
        return _estimate(0.0, cardinality * unpruned, computations,
                         can_estimate=measured and structural,
                         detail=f"~{nodes:.1f} pivot + "
                                f"{cardinality * unpruned:.1f} bucket distances")

    def provider_scan_nearest(self, stats: RelationStatistics | None,
                              cardinality: int, k: int) -> CostEstimate:
        return _estimate(0.0, cardinality, cardinality,
                         detail=f"{cardinality} exact provider distances")

    def metric_nearest(self, stats: RelationStatistics | None,
                       cardinality: int, k: int) -> CostEstimate:
        radius = self._nearest_radius(stats, cardinality, k)
        if radius is None:
            computations = max(float(2 * k), cardinality / 4.0)
            return _estimate(0.0, computations, computations,
                             can_estimate=False,
                             detail="assumed quarter-relation search")
        estimate = self.metric_range(stats, cardinality, radius)
        return _estimate(estimate.io_accesses, estimate.candidates,
                         estimate.distance_computations,
                         can_estimate=estimate.can_estimate,
                         detail=f"range cost at the k-th neighbour radius "
                                f"~{radius:.3g}")

    def provider_join(self, stats: RelationStatistics | None,
                      cardinality: int, epsilon: float) -> CostEstimate:
        comparisons = cardinality * (cardinality - 1) / 2.0
        return _estimate(0.0, comparisons, comparisons,
                         detail=f"{comparisons:.0f} exact pair distances")

    # ------------------------------------------------------------------
    # bounded-cost SIM evaluation
    # ------------------------------------------------------------------
    def _engine_frontier(self, provider: Any, cost_bound: float) -> float:
        """Expected uniform-cost-search states per candidate (bounded, as the
        executor's termination guarantees bound the real search): the rule
        count to the power of the search's own step count.  A rule factory
        yields its rules per object pair, so it is priced at six rules over
        the engine's default four steps."""
        rules = getattr(provider, "rules", None)
        if not isinstance(rules, TransformationRuleSet):
            return min(_ENGINE_FRONTIER_CAP, 6.0 ** 4)
        branching = max(1.0, float(len(rules)))
        return min(_ENGINE_FRONTIER_CAP, branching ** min(engine_steps(rules, cost_bound), 6))

    def sim_engine(self, stats: RelationStatistics | None, cardinality: int,
                   epsilon: float, cost_bound: float, provider: Any, *,
                   screened_by_index: bool, direct_screen: bool) -> CostEstimate:
        """Bounded-cost SIM: candidates times the engine's frontier bound.

        ``screened_by_index`` prices triangle-inequality screening through
        the metric index at radius ``cost_bound + epsilon``;
        ``direct_screen`` prices a base-distance pre-check over the whole
        relation (no index, but the provider declares
        ``cost_bounds_distance``).
        """
        frontier = self._engine_frontier(provider, cost_bound)
        screen_radius = cost_bound + epsilon
        if screened_by_index and math.isfinite(screen_radius):
            # The index screen runs an exact range query at the expanded
            # radius: its survivors are the objects *inside the ball*, while
            # its own work is the (larger) unpruned-entry distance count.
            screen = self.metric_range(stats, cardinality, screen_radius)
            fraction, can_fraction = self._answer_fraction(stats, screen_radius)
            survivors = cardinality * fraction
            io = screen.io_accesses
            computations = screen.distance_computations + survivors * frontier
            can = screen.can_estimate and can_fraction
            detail = (f"index screen at radius {screen_radius:.3g} -> "
                      f"{survivors:.1f} candidates x ~{frontier:.0f} "
                      "engine states")
        elif direct_screen and math.isfinite(screen_radius):
            fraction, can = self._answer_fraction(stats, screen_radius)
            survivors = cardinality * fraction
            io = 0.0
            computations = cardinality + survivors * frontier
            detail = (f"{cardinality} screening distances -> "
                      f"{survivors:.1f} candidates x ~{frontier:.0f} "
                      "engine states")
        else:
            survivors = float(cardinality)
            io = 0.0
            computations = survivors * frontier
            can = stats is not None and stats.can_estimate
            detail = (f"no admissible screen: {cardinality} candidates x "
                      f"~{frontier:.0f} engine states")
        return _estimate(io, survivors, computations, can_estimate=can,
                         detail=detail)
