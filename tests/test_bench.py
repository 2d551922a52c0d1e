"""Tests for the experiment harness: every experiment runs and its results
have the qualitative shape the evaluation reports."""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    _epsilon_for,
    ablation_engine_vs_dp,
    ablation_num_coefficients,
    ablation_representation,
    ablation_tree_variants,
    figure8_query_time_vs_length,
    figure9_query_time_vs_count,
    figure10_index_vs_scan_length,
    figure11_index_vs_scan_count,
    figure12_answer_set_size,
    run_experiment,
    section2_distance_trajectories,
    table1_spatial_join,
)
from repro.bench.reporting import format_table
from repro.bench.workloads import pick_queries, stock_workload, synthetic_workload
from repro.timeseries.stockdata import StockArchiveConfig


class TestWorkloads:
    def test_synthetic_workload_shapes(self):
        workload = synthetic_workload(40, 32, seed=1, num_queries=5)
        assert len(workload) == 40
        assert workload.length == 32
        assert len(workload.index) == 40
        assert len(workload.scan) == 40
        assert len(workload.queries) == 5

    def test_stock_workload(self):
        workload = stock_workload(StockArchiveConfig(num_series=50, length=64))
        assert len(workload) == 50
        assert workload.length == 64

    def test_pick_queries_deterministic(self):
        data = synthetic_workload(30, 32, seed=2).data
        assert [s.object_id for s in pick_queries(data, 5, seed=3)] == \
            [s.object_id for s in pick_queries(data, 5, seed=3)]
        assert pick_queries([], 5) == []


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert format_table([]) == "(no rows)"


class TestCompanionExperiments:
    def test_figure8_identity_transformation_same_node_accesses(self):
        rows = figure8_query_time_vs_length(lengths=(32, 64), num_series=60,
                                            repetitions=1)
        assert len(rows) == 2
        for row in rows:
            # The transformation costs CPU only: the index is traversed
            # identically with and without it.
            assert row["node_accesses_with"] == row["node_accesses_without"]
            assert row["with_transform_ms"] >= 0.0

    def test_figure9_rows_cover_requested_counts(self):
        rows = figure9_query_time_vs_count(counts=(40, 80), length=32, repetitions=1)
        assert [row["num_sequences"] for row in rows] == [40, 80]

    def test_figure10_index_beats_scan(self):
        # The paper's claim is in disk accesses; at in-memory toy sizes the
        # vectorised scan kernels win on raw wall clock, so the assertion
        # lives on the I/O columns (time columns are still reported).
        rows = figure10_index_vs_scan_length(lengths=(64,), num_series=250,
                                             repetitions=1)
        assert rows[0]["index_io"] < rows[0]["scan_io"]
        assert rows[0]["index_ms"] > 0.0 and rows[0]["scan_ms"] > 0.0

    def test_figure11_index_advantage_grows_with_size(self):
        rows = figure11_index_vs_scan_count(counts=(100, 400), length=64, repetitions=2)
        # The scan's I/O grows linearly with the relation; the index's barely
        # moves, so its advantage appears as the relation grows.
        assert rows[-1]["scan_io"] > rows[0]["scan_io"]
        assert rows[-1]["index_io"] < rows[-1]["scan_io"]

    def test_figure12_crossover_behaviour(self):
        rows = figure12_answer_set_size(num_series=200, length=64,
                                        fractions=(0.01, 0.4))
        assert rows[0]["answer_set_size"] < rows[-1]["answer_set_size"]
        # The crossover mechanism: the index's I/O grows with the answer set
        # (more candidates, more record fetches) while the scan's stays flat
        # — so small answer sets favour the index, large ones the scan.
        assert rows[0]["index_io"] < rows[-1]["index_io"]
        assert rows[0]["scan_io"] == rows[-1]["scan_io"]

    def test_table1_method_ordering(self):
        # 300 series gives early abandoning a ~2x margin over the naive scan
        # (at toy sizes the chunked kernels' setup overhead drowns it out).
        rows = table1_spatial_join(num_series=300, length=64)
        by_method = {row["method"][0]: row for row in rows}
        assert set(by_method) == {"a", "b", "c", "d"}
        # Early abandoning beats the naive scan; both scans agree on answers.
        assert by_method["b"]["seconds"] <= by_method["a"]["seconds"]
        assert by_method["a"]["answer_set_size"] == by_method["b"]["answer_set_size"]
        # Method (d) counts ordered pairs: twice the unordered count of (b).
        assert by_method["d"]["answer_set_size"] == 2 * by_method["b"]["answer_set_size"]
        # Method (c) omits the transformation, so it finds no more pairs than (d).
        assert by_method["c"]["answer_set_size"] <= by_method["d"]["answer_set_size"]

    def test_section2_trajectories_decrease(self):
        rows = section2_distance_trajectories(length=64, window=10)
        similar = rows[0]
        assert similar["moving_average"] < similar["normal_form"] < similar["original"]
        opposite = rows[1]
        assert opposite["reversed"] < opposite["normal_form"]
        dissimilar = rows[2]
        # Repeated smoothing helps only marginally for genuinely dissimilar series.
        assert dissimilar["third_moving_average"] > 0.2 * dissimilar["normal_form"]


class TestThePapersCountsArePinned:
    """Node accesses and candidates are the paper's currency, and they are
    decided by how the trees are shaped: the growers' heuristics for the
    figures (measured on a dynamically built R*-tree) and the ablation, the
    STR loader's tiling for everything an index packs itself.  The numbers
    are those of the commit before the packed form became the tree (the
    harness printed 13 / 7 / 28 / 33, 10 / 39 / 74 / 140 and 533 / 266 / 146
    at full scale there): a loader that tiles differently, a grower that
    splits differently or a kernel that opens other nodes fails here, at a
    scale that runs in two seconds."""

    def test_figures_8_and_9_on_the_dynamic_tree(self):
        rows = figure8_query_time_vs_length(lengths=(64, 128), repetitions=1)
        assert [(row["node_accesses_with"], row["node_accesses_without"], row["answers"])
                for row in rows] == [(13, 13, 3), (7, 7, 3)]
        rows = figure9_query_time_vs_count(counts=(250, 500), repetitions=1)
        assert [(row["node_accesses_with"], row["node_accesses_without"], row["answers"])
                for row in rows] == [(10, 10, 2), (39, 39, 5)]

    def test_tree_variant_ablation(self):
        rows = ablation_tree_variants(num_points=600, queries=20)
        assert [(row["variant"], row["node_accesses"], row["height"]) for row in rows] == [
            ("rtree-linear", 197, 4), ("rtree-quadratic", 151, 4), ("rstar", 83, 4)]

    @pytest.mark.parametrize("count,nodes,expected", [
        (250, 37, [(6, 22, 8, 22), (11, 53, 15, 65), (10, 39, 15, 66), (6, 20, 7, 13),
                   (10, 42, 16, 20)]),
        (1000, 144, [(42, 259, 39, 77), (26, 139, 21, 19), (26, 154, 19, 36),
                     (35, 213, 38, 131), (38, 238, 31, 39)])])
    def test_the_str_loaders_tiling(self, count, nodes, expected):
        """Figure 9's fixture, STR-packed: per query (range node accesses,
        range candidates, 5-NN node accesses, 5-NN candidates)."""
        workload = synthetic_workload(count, 128, seed=13, bulk_load=True)
        epsilon = _epsilon_for(workload)
        assert workload.index.structure_summary()["node_count"] == nodes
        found = []
        for query in workload.queries[:5]:
            ranged = workload.index.range_query(query, epsilon).statistics
            nearest = workload.index.nearest_neighbors(query, 5).statistics
            found.append((ranged.node_accesses, ranged.candidates,
                          nearest.node_accesses, nearest.candidates))
        assert found == expected


class TestAblations:
    def test_more_coefficients_fewer_false_hits(self):
        rows = ablation_num_coefficients(ks=(1, 4), num_series=150, length=64)
        assert rows[0]["candidates"] >= rows[-1]["candidates"]
        assert all(row["answers"] <= row["candidates"] for row in rows)

    def test_representation_ablation(self):
        rows = ablation_representation(num_series=100, length=64)
        by_representation = {row["representation"]: row for row in rows}
        assert by_representation["polar"]["supports_complex_multiplier"]
        assert not by_representation["rectangular"]["supports_complex_multiplier"]

    def test_tree_variant_ablation(self):
        rows = ablation_tree_variants(num_points=400, dimension=4, queries=5)
        variants = {row["variant"] for row in rows}
        assert variants == {"rtree-linear", "rtree-quadratic", "rstar"}
        answers = {row["answers"] for row in rows}
        assert len(answers) == 1  # all variants return identical results

    def test_engine_vs_dp_agreement(self):
        rows = ablation_engine_vs_dp(word_length=3, pairs=4)
        assert rows[0]["agreement"] == 1.0
        assert rows[0]["slowdown"] >= 1.0


class TestRegistry:
    def test_registry_contains_all_experiments(self):
        assert set(EXPERIMENTS) >= {"figure8", "figure9", "figure10", "figure11",
                                    "figure12", "table1", "section2"}

    def test_run_experiment_dispatch(self):
        rows = run_experiment("ablation_engine", word_length=2, pairs=2)
        assert rows

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("figure99")
