"""The cost-based planner: decision table, statistics lifecycle, feedback.

Covers the PR-4 planner rewrite:

* a parametrized decision grid over relation size x epsilon selectivity x
  index availability, asserting the chosen plan family *and* that the
  estimated-cost ordering agrees with measured I/O on STR-bulk-loaded data,
  and a ten-step radius sweep across the index/scan crossover;
* every plan carries its estimate and the rejected alternatives;
* ``analyze`` bumps the state token and invalidates the plan/answer caches,
  while lazy statistics collection does not;
* the feature family prices the relation's k-index, the provider family
  its metric index, and an index of the other kind is no alternative;
* the cost model's workers dimension reprices scan plans at the parallel
  critical path (counters stay totals), shifting the index/scan crossover,
  and the removed ``Planner(selectivity_crossover=...)`` path stays removed;
* the bounded-EWMA feedback loop folds observed selectivities back in.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    Database,
    KIndex,
    MetricIndex,
    SequentialScan,
    SeriesFeatureExtractor,
    StringObject,
    connect,
    random_walk_collection,
)
from repro.core.query.ast import AllPairsQuery, NearestNeighborQuery, RangeQuery
from repro.core.query.costmodel import QueryCostModel
from repro.core.query.planner import (
    IndexNearestPlan,
    IndexRangePlan,
    Planner,
    ScanRangePlan,
    explain,
)
from repro.core.stats import DistanceHistogram, RelationStatistics
from repro.index.kindex import page_capacity
from repro.strings import edit_distance_provider

LENGTH = 64


def _session(num_series: int, build: str, seed: int = 23):
    data = random_walk_collection(num_series, LENGTH, seed=seed)
    session = connect(answer_cache_size=0)
    handle = session.relation("walks").insert_many(data)
    extractor = SeriesFeatureExtractor(2)
    if build == "str":
        handle.with_index(KIndex.bulk_load(data, extractor))
    elif build == "insert":
        handle.with_index(KIndex.build_by_insertion(data, extractor))
    return session, data


def _measured_io(session, data, radius, num_queries: int = 6):
    """Measured I/O of both range plans at one radius: the index's node
    reads plus record fetches averaged over evenly spaced queries, and the
    scan's data pages (the same for every query)."""
    index = session.database.index("walks")
    queries = data[:: max(1, len(data) // num_queries)][:num_queries]
    measured_index = sum(
        index.range_query(q, radius).statistics.io_total
        for q in queries) / len(queries)
    scan = SequentialScan(SeriesFeatureExtractor(2))
    scan.extend(data)
    measured_scan = scan.range_query(queries[0], radius).statistics.io_total
    return measured_index, measured_scan


#: Answer-set fractions the radius sweep targets (through the sampled
#: distance histogram), "a handful of answers" to "most of the relation".
SWEEP_FRACTIONS = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.55, 0.8]


class TestDecisionTable:
    """Chosen plan family across size x selectivity x index availability."""

    @pytest.mark.parametrize("num_series", [64, 400])
    @pytest.mark.parametrize("build", ["str", "insert"])
    @pytest.mark.parametrize("fraction,expected_family", [
        (0.01, IndexRangePlan),   # selective: a handful of answers
        (0.85, ScanRangePlan),    # unselective: most of the relation answers
    ])
    def test_range_family(self, num_series, build, fraction, expected_family):
        session, _ = _session(num_series, build)
        stats = session.analyze("walks")
        radius = stats.answer_quantile(fraction)
        plan = session.engine.plan(
            f"SELECT FROM walks WHERE dist(series, $q) < {radius!r}")
        assert isinstance(plan, expected_family)
        assert plan.estimated_cost is not None
        assert len(plan.rejected) == 1

    @pytest.mark.parametrize("num_series", [64, 400])
    def test_no_index_means_scan(self, num_series):
        session, _ = _session(num_series, build="none")
        plan = session.engine.plan("SELECT FROM walks WHERE dist(series, $q) < 1.0")
        assert isinstance(plan, ScanRangePlan)
        assert plan.rejected == ()  # nothing else was applicable

    @pytest.mark.parametrize("num_series", [64, 400])
    def test_nearest_prefers_index(self, num_series):
        session, _ = _session(num_series, build="str")
        session.analyze("walks")
        assert isinstance(session.engine.plan("SELECT FROM walks NEAREST 3 TO $q"),
                          IndexNearestPlan)

    def test_join_prefers_scan_at_small_scale_with_index_rejected(self):
        # The materialised nested scan join pays its pages once and
        # early-abandons pair distances — at a few hundred records it
        # undercuts per-record index probes, and the planner says so.
        session, _ = _session(400, build="str")
        stats = session.analyze("walks")
        radius = stats.answer_quantile(0.005)
        plan = session.engine.plan(
            f"SELECT PAIRS FROM walks WHERE dist < {radius!r}")
        assert type(plan).__name__ == "ScanJoinPlan"
        assert any(entry.family == "IndexJoinPlan" for entry in plan.rejected)

    def test_join_model_crossover_favours_index_at_scale(self):
        # The quadratic pair-distance term eventually dominates: with a
        # selective histogram and a compact tree, the model flips to index
        # probes at large cardinalities even at the early-abandon CPU rate.
        from repro.core.query.costmodel import QueryCostModel

        model = QueryCostModel()
        stats = RelationStatistics(
            relation="r", cardinality=5000, kind="feature-indexed",
            record_bytes=512,
            tree_summary={"height": 4.0, "leaf_count": 625.0,
                          "internal_count": 90.0, "node_count": 715.0,
                          "avg_leaf_fanout": 8.0, "avg_internal_fanout": 8.0,
                          "avg_leaf_radius": 0.5, "avg_internal_radius": 2.0},
            answer_histogram=DistanceHistogram([float(d) for d in
                                                range(10, 110)]),
            filter_histogram=DistanceHistogram([float(d) for d in
                                                range(10, 110)]))
        # A near-duplicate join: the radius sits below the sampled minimum
        # distance, so each probe descends the tree and fetches ~nothing —
        # the regime where N probes beat N^2/2 pair distances.
        epsilon = 5.0
        large_index = model.index_join(stats, 5000, epsilon)
        large_scan = model.scan_join(stats, 5000, epsilon)
        assert large_index.total < large_scan.total
        small_index = model.index_join(stats, 80, epsilon)
        small_scan = model.scan_join(stats, 80, epsilon)
        assert small_scan.total < small_index.total

    @pytest.mark.parametrize("num_series", [64, 400])
    @pytest.mark.parametrize("fraction", [0.01, 0.85])
    def test_estimated_ordering_agrees_with_measured_io(self, num_series, fraction):
        """On STR-bulk-loaded data, est(index) < est(scan) iff the measured
        I/O (node accesses + record fetches vs data pages) orders the same."""
        session, data = _session(num_series, build="str")
        stats = session.analyze("walks")
        radius = stats.answer_quantile(fraction)
        measured_index, measured_scan = _measured_io(session, data, radius)
        plan = session.engine.plan(
            f"SELECT FROM walks WHERE dist(series, $q) < {radius!r}")
        alternatives = {p.family: p.estimate for p in plan.rejected}
        alternatives[type(plan).__name__] = plan.estimated_cost
        estimated_index = alternatives["IndexRangePlan"].total
        estimated_scan = alternatives["ScanRangePlan"].total
        # Near a measured tie either ordering is acceptable (the 15% band of
        # the radius sweep below); when the measurements are decisively
        # apart, the estimates must order the same way.
        if abs(measured_index - measured_scan) \
                > 0.25 * max(measured_index, measured_scan):
            assert (estimated_index < estimated_scan) == \
                (measured_index < measured_scan)

    def test_radius_sweep_flips_where_the_measured_curves_cross(self):
        """Figs. 10–12 locate an index/scan crossover; the planner must
        decide it.  Across the whole selectivity spectrum the chosen plan
        is never more than 15% worse in measured I/O than the alternative,
        the planner flips index → scan within one sweep step of where the
        measured curves cross, and ``explain()`` shows the rejected plan at
        a higher estimate."""
        session, data = _session(500, build="str", seed=17)
        stats = session.analyze("walks")
        radii = [stats.answer_quantile(fraction) for fraction in SWEEP_FRACTIONS]
        assert 0 < radii[0] and radii == sorted(set(radii))  # ten distinct steps
        families, index_wins = [], []
        for radius in radii:
            measured = dict(zip(("IndexRangePlan", "ScanRangePlan"),
                                _measured_io(session, data, radius, num_queries=8)))
            text = f"SELECT FROM walks WHERE dist(series, $q) < {radius!r}"
            plan = session.engine.plan(text)
            family = type(plan).__name__
            assert measured[family] <= 1.15 * min(measured.values()) + 0.5, (radius, measured)
            (rejected,) = plan.rejected
            assert f"rejected {rejected.family}" in session.explain(text)
            # The index keeps a near tie; a scan is only ever chosen at a
            # strictly lower estimate.
            assert (rejected.estimate.total > plan.estimated_cost.total
                    or (family == "IndexRangePlan" and "tie band" in rejected.reason))
            families.append(family)
            index_wins.append(measured["IndexRangePlan"] <= measured["ScanRangePlan"])
        assert families[0] == "IndexRangePlan" and families[-1] == "ScanRangePlan"
        planner_flip = families.index("ScanRangePlan")
        assert set(families[planner_flip:]) == {"ScanRangePlan"}  # it flips once
        assert abs(planner_flip - index_wins.index(False)) <= 1

    def test_chosen_plan_estimate_tracks_measured_io(self):
        """The winning estimate is within a small factor of measured I/O."""
        session, data = _session(400, build="str")
        stats = session.analyze("walks")
        radius = stats.answer_quantile(0.02)
        outcome = session.sql(
            f"SELECT FROM walks WHERE dist(series, $q) < {radius!r}", q=data[7])
        estimate = outcome.plan.estimated_cost
        assert isinstance(outcome.plan, IndexRangePlan)
        measured = outcome.statistics.io_total
        assert measured / 4 <= estimate.total <= measured * 4


class TestTheTailIsPriced:
    """An index probe filters its unindexed tail whole; the planner adds the
    pages the probe charges for that — read off the index at plan time,
    never off the statistics, which hold no copy."""

    def test_estimate_and_explain_carry_the_tail_pages(self):
        from repro.core.query.costmodel import QueryCostModel

        data = random_walk_collection(460, LENGTH, seed=29)
        session = connect(answer_cache_size=0)
        index = KIndex.bulk_load(data[:400], SeriesFeatureExtractor(2), max_entries=8)
        handle = session.relation("walks").insert_many(data[:400]).with_index(index)
        assert index.tail_rows == 0 and index.tail_pages == 0
        handle.insert_many(data[400:])
        assert index.tail_rows == 60 and "tail_rows=60" in repr(index)
        assert index.tail_pages == 8  # ceil(60 / 8)
        grown = session.analyze("walks")
        assert "tail_pages" not in grown.tree_summary == index.structure_summary()
        model = QueryCostModel()
        radius = grown.answer_quantile(0.01)
        for estimate in (model.index_range, model.index_join,
                         lambda *args, **tail: model.index_nearest(*args[:2], 3, **tail)):
            with_tail = estimate(grown, 460, radius, tail_pages=8)
            without = estimate(grown, 460, radius)
            probes = 460 if estimate == model.index_join else 1
            assert with_tail.io_accesses == pytest.approx(without.io_accesses + 8.0 * probes)
        text = f"SELECT FROM walks WHERE dist(series, $q) < {radius!r}"
        outcome = session.sql(text, q=data[450])
        assert isinstance(outcome.plan, IndexRangePlan)
        assert "(8 of them tail pages)" in session.explain(text)
        # The probe charged the same eight pages on top of its tree visits.
        probe = index.range_query(data[450], radius)
        assert probe.statistics.node_accesses == 8 + index.tree.access_stats.total
        assert data[450].object_id in {s.object_id for s, _ in outcome.answers}

    TEXT = "SELECT FROM walks WHERE dist(series, $q) < 1.0"

    def _grown_session(self, max_entries=8):
        """4 000 rows indexed, 200 appended (tail 200: no seal), analyzed."""
        data = random_walk_collection(4600, LENGTH, seed=31)
        session = connect(answer_cache_size=0)
        index = KIndex.bulk_load(data[:4000], SeriesFeatureExtractor(2),
                                 max_entries=max_entries)
        handle = session.relation("walks").insert_many(data[:4000]).with_index(index)
        handle.insert_many(data[4000:4200])
        assert (len(index.tree), index.tail_pages) == (4000, -(-200 // index.max_entries))
        return session, handle, index, data, session.analyze("walks")

    def _tail_pages_in_explain(self, session) -> int:
        line = next(line for line in session.explain(self.TEXT).splitlines()
                    if "candidate fetches" in line and "nodes" in line)
        return int(line.split("(")[1].split()[0]) if "tail pages" in line else 0

    def test_a_seal_after_analyze_is_planned_as_sealed(self):
        """At the parent commit the statistics kept saying 25 tail pages and
        500 leaves where the index had 0 and 533 — until the next band."""
        session, handle, index, data, analyzed = self._grown_session()
        assert analyzed.tree_summary["leaf_count"] == 500.0
        assert self._tail_pages_in_explain(session) == 25
        handle.insert_many(data[4200:4216])  # the rows in between: tail 216
        assert index.tail_rows == 216 and self._tail_pages_in_explain(session) == 27
        assert session.database.statistics_for("walks") is analyzed  # nothing moved
        handle.insert_many(data[4216:4260])  # tail 260 > 256: the index seals
        assert (len(index.tree), index.tail_rows) == (4260, 0)
        sealed = session.database.statistics_for("walks", collect=False)
        assert sealed is not analyzed and sealed.epoch == analyzed.epoch
        assert sealed.tree_summary == index.structure_summary()
        assert sealed.tree_summary["leaf_count"] == 533.0
        assert self._tail_pages_in_explain(session) == 0

    def test_a_tail_grown_after_analyze_is_charged(self):
        """The mirror case: statistics collected right after a seal, then a
        256-row tail — 32 pages every probe reads and no estimate charged."""
        session, handle, index, data, _ = self._grown_session()
        handle.insert_many(data[4200:4260])  # seals
        analyzed = session.analyze("walks")
        assert self._tail_pages_in_explain(session) == 0
        handle.insert_many(data[4260:4516])  # tail 256: not past max(256, 4260 // 16)
        assert (len(index.tree), index.tail_rows, index.tail_pages) == (4260, 256, 32)
        assert session.database.statistics_for("walks") is analyzed  # same band, no seal
        assert self._tail_pages_in_explain(session) == 32
        plan = session.engine.plan(self.TEXT)
        flat = session.engine.planner.cost_model.index_range(analyzed, 4516, 1.0)
        assert plan.estimated_cost.io_accesses == pytest.approx(flat.io_accesses + 32.0)
        probe = index.range_query(data[0], 1.0)
        assert probe.statistics.node_accesses == 32 + index.tree.access_stats.total

    def test_the_tail_at_the_page_capacity(self):
        """Both cases at the capacity the index packs by default: a tail
        fills 39-entry leaf pages, and the planner charges those."""
        session, handle, index, data, analyzed = self._grown_session(max_entries=None)
        assert index.max_entries == 39 and analyzed.tree_summary["leaf_count"] == 103.0
        assert self._tail_pages_in_explain(session) == 6  # ceil(200 / 39)
        handle.insert_many(data[4200:4260])  # seals
        assert (len(index.tree), index.tail_rows) == (4260, 0)
        sealed = session.database.statistics_for("walks", collect=False)
        assert sealed.tree_summary == index.structure_summary()
        assert sealed.tree_summary["leaf_count"] == 110.0
        assert self._tail_pages_in_explain(session) == 0
        analyzed = session.analyze("walks")
        handle.insert_many(data[4260:4516])
        assert (index.tail_rows, index.tail_pages) == (256, 7)
        assert self._tail_pages_in_explain(session) == 7
        plan = session.engine.plan(self.TEXT)
        flat = session.engine.planner.cost_model.index_range(analyzed, 4516, 1.0)
        assert plan.estimated_cost.io_accesses == pytest.approx(flat.io_accesses + 7.0)
        probe = index.range_query(data[0], 1.0)
        assert probe.statistics.node_accesses == 7 + index.tree.access_stats.total


class TestEachProbeIsPricedByItsOwnFilter:
    """A range probe fetches what its search rectangle holds, a k-NN probe
    what its lower bound — a ball — admits: each estimate reads its own
    histogram.  A tree the statistics never measured is assumed to have
    page-sized nodes, as the k-index packs by default."""

    @staticmethod
    def _stats(**fields) -> RelationStatistics:
        tree = {"height": 2.0, "leaf_count": 26.0, "internal_count": 1.0,
                "node_count": 27.0, "avg_leaf_fanout": 38.5, "avg_internal_fanout": 26.0,
                "avg_leaf_radius": 0.0, "avg_internal_radius": 0.0}
        return RelationStatistics(**{
            "relation": "r", "cardinality": 1000, "kind": "feature-indexed",
            "record_bytes": 512, "tree_summary": tree,
            "answer_histogram": DistanceHistogram([float(d) for d in range(1, 101)]),
            "filter_histogram": DistanceHistogram([d / 4.0 for d in range(1, 101)]),
            "bound_histogram": DistanceHistogram([d / 2.0 for d in range(1, 101)]),
            **fields})

    def test_nearest_reads_the_bound_and_range_the_window(self):
        model, stats = QueryCostModel(), self._stats()
        # k = 100 of 1 000 rows: the answer histogram's 0.1 quantile.
        assert stats.answer_quantile(0.1) == 10.0
        nearest = model.index_nearest(stats, 1000, 100)
        assert nearest.candidates == 1000 * 0.2  # half-distances within 10
        assert nearest.io_accesses == pytest.approx(2.0 + 27 * 0.2 + 200)
        assert model.index_range(stats, 1000, 10.0).candidates == 1000 * 0.4
        stats.candidate_correction = 1.5  # the feedback corrects both
        assert model.index_nearest(stats, 1000, 100).candidates == pytest.approx(300)
        assert model.index_range(stats, 1000, 10.0).candidates == pytest.approx(600)

    def test_collected_statistics_hold_both_histograms(self):
        session, _ = _session(60, build="str")
        stats = session.analyze("walks")
        assert len(stats.filter_histogram) == 48 * 47 and len(stats.bound_histogram) == 48 * 47 // 2
        # The rectangle holds the ball: a row enters it at no larger a radius.
        assert stats.filter_histogram.values.max() <= stats.bound_histogram.values.max()

    def test_an_unmeasured_tree_has_page_sized_nodes(self):
        model = QueryCostModel()
        # 3 900 rows, 39 a node at six dimensions: 100 leaves under a root.
        assert page_capacity(6) == 39
        estimate = model.index_range(self._stats(tree_summary=None), 3900, 10.0)
        assert not estimate.can_estimate
        assert estimate.io_accesses == pytest.approx(1 + math.log(100, 39) + 100 * 0.4 + 1560)
        # Without a histogram either: the root-to-leaf descent of such a tree.
        assert model.index_nearest(None, 39 ** 2, 5).io_accesses == pytest.approx(2 + 20)
        # Sampled points of eight dimensions: 30 a node.
        eight = self._stats(tree_summary=None, extent_low=np.zeros(8))
        estimate = model.index_range(eight, 3000, 10.0)
        assert estimate.io_accesses == pytest.approx(1 + math.log(100, 30) + 100 * 0.4 + 1200)


class TestStatisticsLifecycle:
    def test_analyze_bumps_state_token_and_invalidates_caches(self):
        session, data = _session(80, build="str")
        session.engine.answer_cache.capacity = 64  # re-enable for this test
        text = "SELECT FROM walks WHERE dist(series, $q) < 2.0"
        session.sql(text, q=data[0])
        assert session.sql(text, q=data[0]).from_cache
        invocations = session.engine.planner.invocations
        before = session.database.state_token("walks")
        session.analyze("walks")
        assert session.database.state_token("walks") != before
        outcome = session.sql(text, q=data[0])
        assert not outcome.from_cache  # answer cache missed by construction
        assert session.engine.planner.invocations == invocations + 1  # re-planned

    def test_lazy_collection_does_not_change_the_token(self):
        session, _ = _session(40, build="str")
        before = session.database.state_token("walks")
        session.engine.plan("SELECT FROM walks WHERE dist(series, $q) < 2.0")
        assert session.database.statistics_for("walks", collect=False) is not None
        assert session.database.state_token("walks") == before

    def test_analyze_epochs_are_monotonic(self):
        session, _ = _session(30, build="str")
        assert session.database.stats_epoch("walks") == 0
        first = session.analyze("walks")
        second = session.analyze("walks")
        assert (first.epoch, second.epoch) == (1, 2)

    def test_drop_relation_drops_statistics(self):
        session, _ = _session(30, build="str")
        session.analyze("walks")
        session.drop_relation("walks")
        assert session.database.statistics_for("walks", collect=False) is None

    def test_statistics_refresh_after_index_change(self):
        session, data = _session(60, build="none")
        stats = session.database.statistics_for("walks")
        assert stats.kind == "feature"
        session.relation("walks").with_index(
            KIndex.bulk_load(data, SeriesFeatureExtractor(2)))
        refreshed = session.database.statistics_for("walks")
        assert refreshed.kind == "feature-indexed"
        assert refreshed.tree_summary is not None


class TestIndexKinds:
    """Each plan family prices its own kind of index and no other."""

    def test_a_metric_index_is_no_feature_alternative(self):
        data = random_walk_collection(40, LENGTH, seed=3)
        database = Database()
        database.create_relation("walks", data)
        metric = MetricIndex(lambda x, y: float(abs(x.values - y.values).sum()))
        metric.extend(data)
        database.register_index("walks", metric)
        planner = Planner(database)
        for query in (RangeQuery(relation="walks", epsilon=1.0),
                      NearestNeighborQuery(relation="walks", k=2),
                      AllPairsQuery(relation="walks", epsilon=1.0)):
            plan = planner.plan(query)
            assert type(plan).__name__.startswith("Scan")
            assert plan.rejected == ()
            assert "not a k-index" in plan.reason

    def test_a_k_index_is_no_provider_alternative(self):
        database = Database()
        database.create_relation(
            "words", [StringObject(w) for w in ("pattern", "patter", "lantern")])
        database.register_distance("words", edit_distance_provider())
        database.register_index("words", KIndex())
        planner = Planner(database)
        for query in (RangeQuery(relation="words", epsilon=1.0),
                      NearestNeighborQuery(relation="words", k=2)):
            plan = planner.plan(query)
            assert plan.index_name is None and plan.rejected == ()


class TestWorkersDimension:
    """The parallelism-aware repricing of scan-family plans."""

    def _stats(self) -> RelationStatistics:
        return RelationStatistics(
            relation="r", cardinality=1200, kind="feature", record_bytes=2048,
            answer_histogram=DistanceHistogram([float(d) for d in range(1, 101)]),
            filter_histogram=DistanceHistogram([float(d) for d in range(1, 101)]))

    def test_selectivity_crossover_path_is_gone(self):
        database = Database()
        with pytest.raises(TypeError):
            Planner(database, selectivity_crossover=0.5)
        planner = Planner(database)
        assert not hasattr(planner, "selectivity_crossover")
        assert planner.workers == 1

    def test_scan_totals_shrink_but_counters_stay_totals(self):
        from repro.core.query.costmodel import QueryCostModel

        serial = QueryCostModel()
        parallel = QueryCostModel(workers=4)
        stats = self._stats()
        for method, arg in (("scan_range", 10.0), ("scan_nearest", 5),
                            ("scan_join", 10.0)):
            one = getattr(serial, method)(stats, 1200, arg)
            four = getattr(parallel, method)(stats, 1200, arg)
            assert four.total < one.total
            assert four.total >= one.total / 4  # merge term is not free
            assert four.workers == 4 and one.workers == 1
            # Counter fields predict the executor's *summed* exact work.
            assert four.io_accesses == one.io_accesses
            assert four.candidates == one.candidates
            assert four.distance_computations == one.distance_computations

    def test_index_estimates_are_not_repriced(self):
        from repro.core.query.costmodel import QueryCostModel

        stats = self._stats()
        serial = QueryCostModel().index_range(stats, 1200, 10.0)
        parallel = QueryCostModel(workers=4).index_range(stats, 1200, 10.0)
        assert parallel.total == serial.total
        assert parallel.workers == 1

    def test_workers_surface_in_explain(self):
        data = random_walk_collection(40, LENGTH, seed=9)
        database = Database()
        database.create_relation("walks", data)
        plan = Planner(database, workers=4).plan(
            RangeQuery(relation="walks", epsilon=2.0))
        assert isinstance(plan, ScanRangePlan)
        assert "/ 4 workers" in explain(plan)
        assert "merge" in explain(plan)

    def test_parallelism_shifts_the_join_crossover_toward_the_scan(self):
        # Same near-duplicate join regime as the crossover test above: a
        # cardinality where the serial model prefers index probes over the
        # quadratic scan must flip to the scan once four workers split the
        # quadratic term.
        from repro.core.query.costmodel import QueryCostModel

        stats = RelationStatistics(
            relation="r", cardinality=800, kind="feature-indexed",
            record_bytes=512,
            tree_summary={"height": 4.0, "leaf_count": 100.0,
                          "internal_count": 15.0, "node_count": 115.0,
                          "avg_leaf_fanout": 8.0, "avg_internal_fanout": 8.0,
                          "avg_leaf_radius": 0.5, "avg_internal_radius": 2.0},
            answer_histogram=DistanceHistogram([float(d) for d in
                                                range(10, 110)]),
            filter_histogram=DistanceHistogram([float(d) for d in
                                                range(10, 110)]))
        serial = QueryCostModel()
        parallel = QueryCostModel(workers=4)
        epsilon = 5.0  # below the sampled minimum: probes fetch ~nothing
        index_cost = serial.index_join(stats, 800, epsilon).total
        assert parallel.index_join(stats, 800, epsilon).total == index_cost
        assert serial.scan_join(stats, 800, epsilon).total > index_cost
        assert parallel.scan_join(stats, 800, epsilon).total < index_cost


class TestFeedback:
    def _stats(self) -> RelationStatistics:
        return RelationStatistics(
            relation="r", cardinality=100, kind="feature-indexed",
            answer_histogram=DistanceHistogram([1.0, 2.0, 3.0, 4.0, 5.0]),
            filter_histogram=DistanceHistogram([0.5, 1.0, 1.5, 2.0, 2.5]))

    def test_observations_move_the_correction_toward_reality(self):
        stats = self._stats()
        # Predicted answer fraction at eps=2.0 is 0.4; observe double that.
        for _ in range(30):
            stats.observe_range(2.0, answer_fraction=0.8)
        assert 1.8 <= stats.answer_correction <= 2.0
        assert stats.answer_fraction(2.0) == pytest.approx(
            min(1.0, 0.4 * stats.answer_correction))

    def test_corrections_are_bounded(self):
        stats = self._stats()
        for _ in range(100):
            stats.observe_range(2.0, answer_fraction=1.0,
                                candidate_fraction=1.0)
        assert stats.answer_correction <= 4.0
        assert stats.candidate_correction <= 4.0
        for _ in range(200):
            stats.observe_range(2.0, answer_fraction=0.0001,
                                candidate_fraction=0.0001)
        assert stats.answer_correction >= 0.25
        assert stats.candidate_correction >= 0.25

    def test_observations_do_not_bump_the_epoch(self):
        stats = self._stats()
        stats.observe_range(2.0, answer_fraction=0.5)
        assert stats.epoch == 0
        assert stats.observations == 1

    def test_executed_queries_feed_the_statistics(self):
        session, data = _session(120, build="str")
        session.analyze("walks")
        session.sql("SELECT FROM walks WHERE dist(series, $q) < 3.0", q=data[0])
        stats = session.database.statistics_for("walks", collect=False)
        assert stats.observations >= 1


class TestStatisticsSnapshots:
    """QueryOutcome.statistics is populated for every plan family."""

    def test_scan_plans_report_data_pages(self):
        session, data = _session(80, build="none")
        outcome = session.sql("SELECT FROM walks WHERE dist(series, $q) < 2.0",
                              q=data[0])
        assert isinstance(outcome.plan, ScanRangePlan)
        assert outcome.statistics.node_accesses > 0  # sequential pages
        assert outcome.statistics.record_fetches == 0
        nearest = session.sql("SELECT FROM walks NEAREST 2 TO $q", q=data[1])
        assert nearest.statistics.node_accesses > 0
        assert nearest.statistics.candidates == 80

    def test_index_plans_split_node_kinds_and_count_fetches(self):
        session, data = _session(200, build="str")
        session.analyze("walks")
        outcome = session.sql("SELECT FROM walks WHERE dist(series, $q) < 4.0",
                              q=data[0])
        stats = outcome.statistics
        assert isinstance(outcome.plan, IndexRangePlan)
        assert stats.internal_node_accesses + stats.leaf_node_accesses \
            == stats.node_accesses
        assert stats.record_fetches == stats.postprocessed
        assert stats.io_total == stats.node_accesses + stats.record_fetches

    def test_batched_members_share_the_traversal_snapshot(self):
        session, data = _session(150, build="str")
        text = "SELECT FROM walks WHERE dist(series, $q) < 3.0"
        outcomes = session.sql_many([text] * 6,
                                    [{"q": s} for s in data[:6]])
        shared = outcomes[0].statistics.node_accesses
        for outcome in outcomes:
            assert outcome.statistics.node_accesses == shared
            assert outcome.statistics.internal_node_accesses \
                + outcome.statistics.leaf_node_accesses == shared

    def test_metric_plans_count_distance_computations_as_fetches(self):
        session = connect(answer_cache_size=0)
        provider = edit_distance_provider()
        words = [StringObject(w) for w in
                 ["pattern", "patter", "matter", "mutter", "butter", "query",
                  "quarts", "quartz", "relation", "revelation"]]
        (session.relation("words").insert_many(words)
            .with_distance(provider)
            .with_index(MetricIndex(provider.distance, leaf_capacity=2)))
        outcome = session.sql("SELECT FROM words WHERE dist(object, $q) < 1.0",
                              q=StringObject("patter"))
        assert outcome.statistics.record_fetches \
            == outcome.statistics.postprocessed > 0
        assert outcome.plan.estimated_cost is not None
