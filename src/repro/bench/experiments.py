"""Reproduction functions for every figure and table of the evaluation.

Each ``figure*`` / ``table1`` function builds its workload, runs the measured
queries and returns a list of row dictionaries (one per x-axis point or per
method).  The rows carry both wall-clock times and work counters (node
accesses, candidates, distances computed), because on a Python substrate the
counters are the more faithful analogue of the original's disk-access story.

Default sizes are scaled down so the whole suite runs in seconds; the
``paper_scale=True`` flag switches every experiment to the original's sizes
(1,000–12,000 sequences, lengths 64–1024, the 1067-series stock archive).

Ablation experiments (coefficient count, representation, tree variant,
generic engine vs dynamic program) live here as well.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from statistics import mean
from typing import Any, Callable

import numpy as np

from ..index.rstar import RStarTree
from ..index.rtree import RTree
from ..storage.columnar import pairwise_distances
from ..strings.distance import transformation_edit_distance, weighted_edit_distance
from ..timeseries.generators import make_rng
from ..timeseries.normalform import normalize
from ..timeseries.stockdata import StockArchiveConfig, bba_ztr_like_pair, make_stock_archive
from ..timeseries.transforms import (
    identity_spectral,
    moving_average_spectral,
    reverse_spectral,
)
from .workloads import ExperimentFixture, stock_workload, synthetic_workload

__all__ = [
    "figure8_query_time_vs_length",
    "figure9_query_time_vs_count",
    "figure10_index_vs_scan_length",
    "figure11_index_vs_scan_count",
    "figure12_answer_set_size",
    "table1_spatial_join",
    "section2_distance_trajectories",
    "ablation_num_coefficients",
    "ablation_representation",
    "ablation_tree_variants",
    "ablation_engine_vs_dp",
    "EXPERIMENTS",
    "run_experiment",
]

Row = dict[str, Any]


def _time_queries(run: Callable[[], Any], repetitions: int = 1) -> float:
    """Average wall-clock seconds of ``run`` over ``repetitions`` calls."""
    samples = []
    for _ in range(max(1, repetitions)):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return mean(samples)


def _epsilon_for(workload: ExperimentFixture, target_fraction: float = 0.01,
                 transformation=None) -> float:
    """A threshold returning roughly ``target_fraction`` of the workload.

    Read off the exact distances of one query series to every series of the
    data, so experiments stay comparable across sizes without hand-tuning.
    """
    if not workload.data:
        return 1.0
    query = workload.queries[0] if workload.queries else workload.data[0]
    result = workload.scan.range_query(query, float("inf"),
                                       transformation=transformation,
                                       early_abandon=False)
    distances = sorted(d for _, d in result.answers)
    if not distances:
        return 1.0
    position = max(1, int(target_fraction * len(distances))) - 1
    return float(distances[min(position, len(distances) - 1)]) + 1e-9


# ---------------------------------------------------------------------------
# Figures 8 and 9 — index with vs without transformation
# ---------------------------------------------------------------------------
def figure8_query_time_vs_length(lengths: Sequence[int] = (64, 128, 256, 512),
                                 num_series: int = 300, *, paper_scale: bool = False,
                                 repetitions: int = 2, seed: int = 11) -> list[Row]:
    """Range-query time as the sequence length grows, identity transformation
    versus no transformation (Figure 8)."""
    if paper_scale:
        lengths, num_series = (64, 128, 256, 512, 1024), 1000
    rows: list[Row] = []
    for length in lengths:
        workload = synthetic_workload(num_series, length, seed=seed)
        epsilon = _epsilon_for(workload)
        identity = identity_spectral(length)
        queries = workload.queries[:5] or workload.data[:1]

        def run_with() -> None:
            for query in queries:
                workload.index.range_query(query, epsilon, transformation=identity)

        def run_without() -> None:
            for query in queries:
                workload.index.range_query(query, epsilon)

        with_seconds = _time_queries(run_with, repetitions) / len(queries)
        without_seconds = _time_queries(run_without, repetitions) / len(queries)
        sample = workload.index.range_query(queries[0], epsilon, transformation=identity)
        baseline = workload.index.range_query(queries[0], epsilon)
        rows.append({
            "length": length,
            "with_transform_ms": 1000.0 * with_seconds,
            "without_transform_ms": 1000.0 * without_seconds,
            "node_accesses_with": sample.statistics.node_accesses,
            "node_accesses_without": baseline.statistics.node_accesses,
            "answers": len(sample),
        })
    return rows


def figure9_query_time_vs_count(counts: Sequence[int] = (250, 500, 1000, 2000),
                                length: int = 128, *, paper_scale: bool = False,
                                repetitions: int = 2, seed: int = 13) -> list[Row]:
    """Range-query time as the number of sequences grows, identity
    transformation versus no transformation (Figure 9)."""
    if paper_scale:
        counts = (500, 2000, 4000, 8000, 12000)
    rows: list[Row] = []
    identity = identity_spectral(length)
    for count in counts:
        workload = synthetic_workload(count, length, seed=seed)
        epsilon = _epsilon_for(workload)
        queries = workload.queries[:5] or workload.data[:1]

        def run_with() -> None:
            for query in queries:
                workload.index.range_query(query, epsilon, transformation=identity)

        def run_without() -> None:
            for query in queries:
                workload.index.range_query(query, epsilon)

        with_seconds = _time_queries(run_with, repetitions) / len(queries)
        without_seconds = _time_queries(run_without, repetitions) / len(queries)
        sample = workload.index.range_query(queries[0], epsilon, transformation=identity)
        baseline = workload.index.range_query(queries[0], epsilon)
        rows.append({
            "num_sequences": count,
            "with_transform_ms": 1000.0 * with_seconds,
            "without_transform_ms": 1000.0 * without_seconds,
            "node_accesses_with": sample.statistics.node_accesses,
            "node_accesses_without": baseline.statistics.node_accesses,
            "answers": len(sample),
        })
    return rows


# ---------------------------------------------------------------------------
# Figures 10 and 11 — index vs sequential scan
# ---------------------------------------------------------------------------
def figure10_index_vs_scan_length(lengths: Sequence[int] = (64, 128, 256, 512),
                                  num_series: int = 300, *, paper_scale: bool = False,
                                  repetitions: int = 2, seed: int = 17,
                                  window: int = 20) -> list[Row]:
    """Index-with-transformation versus sequential scan, varying length (Figure 10)."""
    if paper_scale:
        lengths, num_series = (64, 128, 256, 512, 1024), 1000
    rows: list[Row] = []
    for length in lengths:
        workload = synthetic_workload(num_series, length, seed=seed)
        transformation = moving_average_spectral(length, min(window, length))
        epsilon = _epsilon_for(workload, transformation=transformation)
        queries = workload.queries[:5] or workload.data[:1]

        def run_index() -> None:
            for query in queries:
                workload.index.range_query(query, epsilon, transformation=transformation)

        def run_scan() -> None:
            for query in queries:
                workload.scan.range_query(query, epsilon, transformation=transformation)

        index_seconds = _time_queries(run_index, repetitions) / len(queries)
        scan_seconds = _time_queries(run_scan, repetitions) / len(queries)
        sample = workload.index.range_query(queries[0], epsilon, transformation=transformation)
        scan_sample = workload.scan.range_query(queries[0], epsilon,
                                                transformation=transformation)
        rows.append({
            "length": length,
            "index_ms": 1000.0 * index_seconds,
            "scan_ms": 1000.0 * scan_seconds,
            "speedup": scan_seconds / index_seconds if index_seconds > 0 else float("inf"),
            # The evaluation's actual currency: node/page accesses plus
            # per-candidate record fetches.  Wall-clock at these in-memory
            # sizes is dominated by Python constants (and the vectorised
            # scan kernels moved that crossover); the I/O columns carry the
            # paper's claim.
            "index_io": sample.statistics.io_total,
            "scan_io": scan_sample.statistics.io_total,
            "candidates": sample.statistics.candidates,
            "answers": len(sample),
        })
    return rows


def figure11_index_vs_scan_count(counts: Sequence[int] = (250, 500, 1000, 2000),
                                 length: int = 128, *, paper_scale: bool = False,
                                 repetitions: int = 2, seed: int = 19,
                                 window: int = 20) -> list[Row]:
    """Index-with-transformation versus sequential scan, varying the number of
    sequences (Figure 11)."""
    if paper_scale:
        counts = (500, 2000, 4000, 8000, 12000)
    transformation = moving_average_spectral(length, window)
    rows: list[Row] = []
    for count in counts:
        workload = synthetic_workload(count, length, seed=seed)
        epsilon = _epsilon_for(workload, transformation=transformation)
        queries = workload.queries[:5] or workload.data[:1]

        def run_index() -> None:
            for query in queries:
                workload.index.range_query(query, epsilon, transformation=transformation)

        def run_scan() -> None:
            for query in queries:
                workload.scan.range_query(query, epsilon, transformation=transformation)

        index_seconds = _time_queries(run_index, repetitions) / len(queries)
        scan_seconds = _time_queries(run_scan, repetitions) / len(queries)
        sample = workload.index.range_query(queries[0], epsilon,
                                            transformation=transformation)
        scan_sample = workload.scan.range_query(queries[0], epsilon,
                                                transformation=transformation)
        rows.append({
            "num_sequences": count,
            "index_ms": 1000.0 * index_seconds,
            "scan_ms": 1000.0 * scan_seconds,
            "speedup": scan_seconds / index_seconds if index_seconds > 0 else float("inf"),
            "index_io": sample.statistics.io_total,
            "scan_io": scan_sample.statistics.io_total,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 12 — answer-set size sweep (index / scan crossover)
# ---------------------------------------------------------------------------
def figure12_answer_set_size(num_series: int = 400, length: int = 128, *,
                             paper_scale: bool = False, repetitions: int = 1,
                             seed: int = 23,
                             fractions: Sequence[float] = (0.005, 0.02, 0.05, 0.1,
                                                           0.2, 0.3, 0.4)) -> list[Row]:
    """Query time versus answer-set size on the stock archive (Figure 12)."""
    config = StockArchiveConfig(num_series=1067 if paper_scale else num_series,
                                length=length)
    workload = stock_workload(config)
    query = workload.queries[0]
    # Exact distances to every series give the thresholds for target answer sizes.
    exhaustive = workload.scan.range_query(query, float("inf"), early_abandon=False)
    distances = sorted(d for _, d in exhaustive.answers)
    rows: list[Row] = []
    for fraction in fractions:
        target = max(1, int(fraction * len(distances)))
        epsilon = distances[min(target, len(distances)) - 1] + 1e-9

        def run_index() -> None:
            workload.index.range_query(query, epsilon)

        def run_scan() -> None:
            workload.scan.range_query(query, epsilon)

        index_seconds = _time_queries(run_index, repetitions)
        scan_seconds = _time_queries(run_scan, repetitions)
        result = workload.index.range_query(query, epsilon)
        scan_result = workload.scan.range_query(query, epsilon)
        rows.append({
            "answer_set_size": len(result),
            "fraction": fraction,
            "index_ms": 1000.0 * index_seconds,
            "scan_ms": 1000.0 * scan_seconds,
            "index_faster": index_seconds < scan_seconds,
            "index_io": result.statistics.io_total,
            "scan_io": scan_result.statistics.io_total,
            "index_fewer_io": result.statistics.io_total
            < scan_result.statistics.io_total,
            "candidates": result.statistics.candidates,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 1 — spatial self-join, four methods
# ---------------------------------------------------------------------------
def table1_spatial_join(num_series: int = 200, length: int = 128, *,
                        paper_scale: bool = False, window: int = 20,
                        target_pairs: int = 12, seed: int = 29) -> list[Row]:
    """The self-join experiment: four evaluation methods over the stock archive.

    (a) naive nested scan (full distances), (b) nested scan with early
    abandoning, (c) index probes without the transformation, (d) index probes
    with ``Tmavg20`` — reporting time and answer-set size for each, with the
    same pair-counting conventions as the original (methods (a), (b) and (c)
    count unordered pairs once, method (d) counts them twice).
    """
    config = StockArchiveConfig(num_series=1067 if paper_scale else num_series,
                                length=length)
    workload = stock_workload(config)
    transformation = moving_average_spectral(length, window)
    # Pick a threshold yielding roughly target_pairs transformed pairs, using
    # a sample of pairwise distances on the transformed normal forms.
    rng = make_rng(seed)
    sample_size = min(len(workload.data), 200)
    sample_indices = rng.choice(len(workload.data), size=sample_size, replace=False)
    store = workload.scan.store
    coefficients, means, stds = store.transformed_arrays(transformation)
    sample_distances = sorted(pairwise_distances(
        coefficients, store.lengths, means, stds,
        workload.scan.extractor.include_stats,
        row_ids=sample_indices).tolist())
    total_pairs = len(workload.data) * (len(workload.data) - 1) // 2
    quantile = min(1.0, target_pairs / total_pairs)
    position = max(0, min(len(sample_distances) - 1,
                          int(quantile * len(sample_distances))))
    epsilon = float(sample_distances[position])

    rows: list[Row] = []

    started = time.perf_counter()
    pairs_a, stats_a = workload.scan.all_pairs(epsilon, transformation=transformation,
                                               early_abandon=False)
    rows.append({"method": "a: naive scan", "seconds": time.perf_counter() - started,
                 "answer_set_size": len(pairs_a),
                 "distances_computed": stats_a.postprocessed})

    started = time.perf_counter()
    pairs_b, stats_b = workload.scan.all_pairs(epsilon, transformation=transformation,
                                               early_abandon=True)
    rows.append({"method": "b: early-abandon scan", "seconds": time.perf_counter() - started,
                 "answer_set_size": len(pairs_b),
                 "distances_computed": stats_b.postprocessed})

    started = time.perf_counter()
    pairs_c, stats_c = workload.index.all_pairs(epsilon)
    rows.append({"method": "c: index join, no transformation",
                 "seconds": time.perf_counter() - started,
                 "answer_set_size": len(pairs_c),
                 "node_accesses": stats_c.node_accesses})

    started = time.perf_counter()
    pairs_d, stats_d = workload.index.all_pairs(epsilon, transformation=transformation)
    rows.append({"method": "d: index join with Tmavg20",
                 "seconds": time.perf_counter() - started,
                 "answer_set_size": len(pairs_d),
                 "node_accesses": stats_d.node_accesses})
    return rows


# ---------------------------------------------------------------------------
# Section 2 — distance trajectories of the motivating examples
# ---------------------------------------------------------------------------
def section2_distance_trajectories(length: int = 128, window: int = 20) -> list[Row]:
    """Distances before/after shift, scale, moving average and reversal for
    stock-like pairs, mirroring Examples 2.1–2.3."""
    rows: list[Row] = []
    bba, ztr = bba_ztr_like_pair(length)
    mavg = moving_average_spectral(length, window)

    def euclid(a, b) -> float:
        return float(np.linalg.norm(a.values - b.values))

    shifted_a = bba.shifted(-bba.mean())
    shifted_b = ztr.shifted(-ztr.mean())
    norm_a = normalize(bba).series
    norm_b = normalize(ztr).series
    rows.append({"example": "2.1 similar pair", "original": euclid(bba, ztr),
                 "shifted": euclid(shifted_a, shifted_b),
                 "normal_form": euclid(norm_a, norm_b),
                 "moving_average": euclid(mavg.apply(norm_a), mavg.apply(norm_b))})

    base = bba
    opposite = base.with_values(2.0 * base.mean() - base.values, name="opposite")
    norm_base = normalize(base).series
    norm_opp = normalize(opposite).series
    reversed_opp = reverse_spectral(length).apply(norm_opp)
    rows.append({"example": "2.2 opposite pair", "original": euclid(base, opposite),
                 "normal_form": euclid(norm_base, norm_opp),
                 "reversed": euclid(norm_base, reversed_opp),
                 "moving_average": euclid(mavg.apply(norm_base), mavg.apply(reversed_opp))})

    archive = make_stock_archive(StockArchiveConfig(num_series=40, length=length))
    unrelated_a, unrelated_b = archive[-1], archive[-2]
    norm_u1, norm_u2 = normalize(unrelated_a).series, normalize(unrelated_b).series
    repeated = mavg.power(3)
    rows.append({"example": "2.3 dissimilar pair",
                 "original": euclid(unrelated_a, unrelated_b),
                 "normal_form": euclid(norm_u1, norm_u2),
                 "moving_average": euclid(mavg.apply(norm_u1), mavg.apply(norm_u2)),
                 "third_moving_average": euclid(repeated.apply(norm_u1),
                                                repeated.apply(norm_u2))})
    return rows


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------
def ablation_num_coefficients(ks: Sequence[int] = (1, 2, 3, 4, 6),
                              num_series: int = 300, length: int = 128, *,
                              seed: int = 31) -> list[Row]:
    """False-hit rate and query time as a function of the number of indexed
    coefficients k."""
    rows: list[Row] = []
    for k in ks:
        workload = synthetic_workload(num_series, length, seed=seed, num_coefficients=k)
        epsilon = _epsilon_for(workload, target_fraction=0.02)
        query = workload.queries[0]
        result = workload.index.range_query(query, epsilon)
        candidates = result.statistics.candidates
        answers = len(result)
        seconds = _time_queries(lambda: workload.index.range_query(query, epsilon), 3)
        rows.append({"k": k, "dimension": workload.extractor.space.dimension,
                     "candidates": candidates, "answers": answers,
                     "false_hit_rate": (candidates - answers) / max(1, candidates),
                     "query_ms": 1000.0 * seconds})
    return rows


def ablation_representation(num_series: int = 300, length: int = 128, *,
                            seed: int = 37, window: int = 20) -> list[Row]:
    """Polar versus rectangular feature layout.

    The rectangular layout cannot push a complex multiplier (the moving
    average) into the index at all, so it is measured with the identity
    transformation only; the polar layout is measured with both.
    """
    rows: list[Row] = []
    mavg = moving_average_spectral(length, window)
    for representation in ("polar", "rectangular"):
        workload = synthetic_workload(num_series, length, seed=seed,
                                      representation=representation)
        epsilon = _epsilon_for(workload, target_fraction=0.02)
        query = workload.queries[0]
        identity_result = workload.index.range_query(query, epsilon)
        row: Row = {"representation": representation,
                    "identity_candidates": identity_result.statistics.candidates,
                    "identity_answers": len(identity_result)}
        if representation == "polar":
            mavg_result = workload.index.range_query(query, epsilon, transformation=mavg)
            row["mavg_candidates"] = mavg_result.statistics.candidates
            row["mavg_answers"] = len(mavg_result)
            row["supports_complex_multiplier"] = True
        else:
            row["supports_complex_multiplier"] = False
        rows.append(row)
    return rows


def ablation_tree_variants(num_points: int = 2000, dimension: int = 6, *,
                           queries: int = 20, seed: int = 41) -> list[Row]:
    """Node accesses of the R-tree split policies versus the R*-tree."""
    rng = make_rng(seed)
    points = rng.uniform(0.0, 100.0, size=(num_points, dimension))
    # Clustered second half to stress the split heuristics.
    centers = rng.uniform(0.0, 100.0, size=(10, dimension))
    clustered = centers[rng.integers(0, 10, size=num_points // 2)] + rng.normal(
        0.0, 2.0, size=(num_points // 2, dimension))
    points[num_points // 2:] = clustered
    windows = []
    for _ in range(queries):
        low = rng.uniform(0.0, 90.0, size=dimension)
        windows.append((low, low + 10.0))
    rows: list[Row] = []
    variants = [("rtree-linear", lambda: RTree(dimension, split="linear")),
                ("rtree-quadratic", lambda: RTree(dimension, split="quadratic")),
                ("rstar", lambda: RStarTree(dimension))]
    from ..index.geometry import Rect

    for name, build in variants:
        tree = build()
        for i, point in enumerate(points):
            tree.insert(point, i)
        tree.reset_stats()
        answers = 0
        for low, high in windows:
            answers += len(tree.search(Rect(low, high)))
        rows.append({"variant": name, "node_accesses": tree.access_stats.total,
                     "height": tree.height(), "answers": answers})
    return rows


def ablation_engine_vs_dp(word_length: int = 5, pairs: int = 10, *,
                          seed: int = 43) -> list[Row]:
    """Generic bounded-cost similarity search versus the edit-distance DP."""
    rng = make_rng(seed)
    alphabet = "abcd"
    rows: list[Row] = []
    total_engine = 0.0
    total_dp = 0.0
    agreements = 0
    for _ in range(pairs):
        a = "".join(rng.choice(list(alphabet)) for _ in range(word_length))
        b = "".join(rng.choice(list(alphabet)) for _ in range(word_length))
        started = time.perf_counter()
        dp = weighted_edit_distance(a, b)
        total_dp += time.perf_counter() - started
        started = time.perf_counter()
        engine = transformation_edit_distance(a, b)
        total_engine += time.perf_counter() - started
        agreements += int(abs(dp - engine) < 1e-9)
    rows.append({"pairs": pairs, "word_length": word_length,
                 "dp_total_seconds": total_dp, "engine_total_seconds": total_engine,
                 "slowdown": total_engine / total_dp if total_dp > 0 else float("inf"),
                 "agreement": agreements / pairs})
    return rows


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
EXPERIMENTS: dict[str, Callable[..., list[Row]]] = {
    "figure8": figure8_query_time_vs_length,
    "figure9": figure9_query_time_vs_count,
    "figure10": figure10_index_vs_scan_length,
    "figure11": figure11_index_vs_scan_count,
    "figure12": figure12_answer_set_size,
    "table1": table1_spatial_join,
    "section2": section2_distance_trajectories,
    "ablation_k": ablation_num_coefficients,
    "ablation_representation": ablation_representation,
    "ablation_trees": ablation_tree_variants,
    "ablation_engine": ablation_engine_vs_dp,
}


def run_experiment(name: str, **parameters: Any) -> list[Row]:
    """Run a registered experiment by name."""
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r}; known: {known}") from None
    return experiment(**parameters)
