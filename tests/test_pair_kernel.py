"""Differentials for the scan-side pair kernel.

One kernel — :func:`repro.storage.columnar.pair_block_distances` — sits behind
``SequentialScan.all_pairs`` (both scan methods of the join experiment) and
``pairwise_distances`` (statistics sampler, advisor, threshold samples).  It
replaced a loop over anchors, each swept against its suffix with
``early_abandon_candidates`` (the scan's old loop, kept in
``test_abandon_order.py``) + ``exact_distances``; that loop lives on here as
the reference.  Every differential asks for the same thing:

    kernel == per-anchor reference == brute force over ``record_distance``

bit for bit — pair order, ids and distances — whatever the relation's lengths,
the block size, the worker count or the flavour of the scan.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_abandon_order import early_abandon_candidates
from test_gathered_transform import record_of_row, transformed_records

from repro import SequentialScan, SeriesFeatureExtractor, TimeSeries
from repro.core.cancel import CancellationToken, cancel_scope
from repro.storage import columnar
from repro.storage.columnar import (
    _pair_rows,
    exact_distances,
    pair_blocks,
    pairwise_distances,
    query_records,
)
from repro.timeseries.features import record_distance
from repro.timeseries.generators import random_walk, random_walk_collection
from repro.timeseries.transforms import SpectralTransformation, moving_average_spectral


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def reference_join(records, include_stats, epsilon, early_abandon):
    """The per-anchor join body the kernel replaced: qualifying
    ``(anchor, other, distance)`` triples, each anchor against its suffix."""
    count = records.size
    found = []
    for anchor in range(count - 1):
        anchor_record = record_of_row(records, anchor)
        suffix = records.select(slice(anchor + 1, count))
        if early_abandon:
            rows = (suffix.coefficients, suffix.lengths, suffix.means, suffix.stds)
            survivors = early_abandon_candidates(*rows, *anchor_record, include_stats, epsilon)
        else:
            survivors = np.arange(count - anchor - 1, dtype=np.intp)
        distances = exact_distances(
            suffix, query_records([anchor_record]), include_stats, row_ids=survivors
        )
        for i in np.nonzero(distances <= epsilon)[0].tolist():
            found.append((anchor, anchor + 1 + int(survivors[i]), float(distances[i])))
    return found


def reference_pairwise(records, include_stats, row_ids=None):
    """The per-anchor loop ``pairwise_distances`` used to be."""
    if row_ids is not None:
        records = records.select(np.asarray(row_ids, dtype=np.intp))
    blocks = [np.zeros(0, dtype=np.float64)]
    for anchor in range(records.size - 1):
        blocks.append(
            exact_distances(
                records.select(slice(anchor + 1, records.size)),
                query_records([record_of_row(records, anchor)]),
                include_stats,
            )
        )
    return np.concatenate(blocks)


def brute_force_distance(records, include_stats, anchor, other):
    """``record_distance`` of one pair."""
    return record_distance(
        record_of_row(records, other), record_of_row(records, anchor), include_stats
    )


def brute_force_join(records, include_stats, epsilon):
    count = records.size
    found = []
    for anchor in range(count - 1):
        for other in range(anchor + 1, count):
            distance = brute_force_distance(records, include_stats, anchor, other)
            if distance <= epsilon:
                found.append((anchor, other, distance))
    return found


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def build_scan(data, include_stats=True, **options):
    scan = SequentialScan(SeriesFeatureExtractor(2, include_stats=include_stats), **options)
    scan.extend(data)
    return scan


def scan_records(scan, transformation=None):
    """The record set ``all_pairs`` reads, transformed and mapping nothing,
    as the kernels and the references take it: ``(records, include_stats)``."""
    return transformed_records(scan.store, transformation), scan.extractor.include_stats


def scan_join(scan, epsilon, **options):
    """``all_pairs`` as ``(anchor row, other row, distance)`` triples."""
    row_of = {id(series): row for row, series in enumerate(scan.store.series_list())}
    pairs, statistics = scan.all_pairs(epsilon, **options)
    return [(row_of[id(a)], row_of[id(b)], distance) for a, b, distance in pairs], statistics


def with_duplicate(data):
    """The collection plus a fresh object repeating one series' values, so
    one pair sits at distance exactly zero."""
    return [*data, TimeSeries(data[len(data) // 2].values.copy(), name="duplicate")]


def ragged_walks(lengths, seed):
    rng = np.random.default_rng(seed)
    return [random_walk(int(length), seed=rng) for length in lengths]


def check_join(scan, epsilon, transformation=None):
    """Both flavours of the scan join against both references."""
    arrays = scan_records(scan, transformation)
    brute = brute_force_join(*arrays, epsilon)
    count = len(scan)
    for early_abandon in (True, False):
        observed, statistics = scan_join(
            scan, epsilon, transformation=transformation, early_abandon=early_abandon
        )
        assert observed == reference_join(*arrays, epsilon, early_abandon)
        assert observed == brute
        assert statistics.postprocessed == statistics.candidates == count * (count - 1) // 2
        assert statistics.node_accesses == scan.data_pages
    return brute


# ----------------------------------------------------------------------
# the flat pair order
# ----------------------------------------------------------------------
class TestPairRows:
    @pytest.mark.parametrize("count", [2, 3, 4, 5, 9, 61])
    def test_every_block_is_a_slice_of_the_condensed_order(self, count):
        rows, columns = np.triu_indices(count, 1)
        total = rows.size
        edges = sorted({0, 1, min(2, total), total // 3, total // 2, total - 1, total})
        for first in edges:
            for last in edges:
                if first < last:
                    left, right = _pair_rows(count, first, last)
                    assert left.tolist() == rows[first:last].tolist()
                    assert right.tolist() == columns[first:last].tolist()

    def test_single_pairs_of_a_large_relation(self):
        # (2 * count - 1) ** 2 is beyond 2 ** 53: a float square root rounds.
        count = 200_000_001
        total = count * (count - 1) // 2
        for first, expected in [
            (0, (0, 1)),
            (count - 2, (0, count - 1)),
            (count - 1, (1, 2)),
            (total - 1, (count - 2, count - 1)),
        ]:
            left, right = _pair_rows(count, first, first + 1)
            assert (left.tolist(), right.tolist()) == ([expected[0]], [expected[1]])

    @pytest.mark.parametrize("block", [1, 7, 8192])
    def test_blocks_tile_the_pair_order(self, block, monkeypatch):
        monkeypatch.setattr(columnar, "PAIR_BLOCK", block)
        for count in (0, 1, 2, 14):
            blocks = pair_blocks(count)
            starts = [first for first, _ in blocks]
            stops = [last for _, last in blocks]
            assert starts == [0, *stops[:-1]][: len(blocks)]
            assert (stops[-1] if blocks else 0) == count * (count - 1) // 2
            assert all(last - first == block for first, last in blocks[:-1])
            assert all(0 < last - first <= block for first, last in blocks)


# ----------------------------------------------------------------------
# the join
# ----------------------------------------------------------------------
class TestJoinDifferential:
    @pytest.mark.parametrize("count", [0, 1, 2, 61])
    @pytest.mark.parametrize("include_stats", [True, False])
    @pytest.mark.parametrize("transformed", [False, True])
    def test_uniform_relation(self, count, include_stats, transformed):
        data = random_walk_collection(count, 32, seed=7)
        if count >= 2:
            data = with_duplicate(data[:-1])
        scan = build_scan(data, include_stats)
        transformation = moving_average_spectral(32, 5) if transformed else None
        distances = reference_pairwise(*scan_records(scan, transformation))
        middle = float(np.median(distances)) if distances.size else 1.0
        answers = {
            epsilon: len(check_join(scan, epsilon, transformation))
            for epsilon in (0.0, middle, 1e9)
        }
        if count >= 2:
            assert answers[0.0] >= 1  # the duplicate, at distance exactly zero
            assert answers[0.0] < answers[middle] < answers[1e9] or count == 2
        assert answers[1e9] == count * (count - 1) // 2

    @pytest.mark.parametrize("include_stats", [True, False])
    def test_ragged_relation(self, include_stats):
        # Cycling lengths: every anchor meets shorter and longer rows, and
        # no two consecutive anchors reduce over the same number of columns.
        data = with_duplicate(ragged_walks([64, 48, 32, 1, 2, 128] * 6, seed=11))
        scan = build_scan(data, include_stats)
        distances = reference_pairwise(*scan_records(scan))
        for epsilon in (0.0, float(np.quantile(distances, 0.3)), 1e9):
            assert check_join(scan, epsilon)

    def test_ragged_relation_under_a_transformation_with_offsets(self):
        # An affine spectral map fills every short row's padding with its
        # offsets; the kernel must never read them.  (Its stretched means are
        # also where ``record_distance`` first disagreed with the kernels in
        # the last bit, while it still squared the statistics with ``** 2``.)
        rng = np.random.default_rng(5)
        transformation = SpectralTransformation(
            rng.normal(size=65) + 1j * rng.normal(size=65),
            rng.normal(size=65) + 1j * rng.normal(size=65),
            extra_multiplier=(1.5, 0.5),
            extra_offset=(0.25, -0.5),
        )
        scan = build_scan(ragged_walks([64, 17, 40, 64, 9, 33] * 5, seed=13))
        distances = reference_pairwise(*scan_records(scan, transformation))
        for epsilon in (float(np.quantile(distances, 0.2)), 1e9):
            assert check_join(scan, epsilon, transformation)

    @pytest.mark.parametrize("block", [1, 7, 61 * 60 // 2, 10**6])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_block_edges_anywhere(self, block, ragged, monkeypatch):
        # One pair a block, blocks that begin and end inside an anchor's
        # run, exactly one block, and a block larger than the join.
        lengths = [64, 48, 32] * 20 + [64] if ragged else [32] * 61
        scan = build_scan(ragged_walks(lengths, seed=17))
        distances = reference_pairwise(*scan_records(scan))
        monkeypatch.setattr(columnar, "PAIR_BLOCK", block)
        assert len(pair_blocks(61)) == -(-1830 // block)
        for epsilon in (float(np.quantile(distances, 0.25)), 1e9):
            assert check_join(scan, epsilon)

    @settings(max_examples=40, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(1, 128), st.integers(1, 4)), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
        quantile=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        include_stats=st.booleans(),
        block=st.sampled_from([1, 7, 64, 8192]),
    )
    def test_ragged_lengths_property(self, runs, seed, quantile, include_stats, block):
        """Any mix of lengths 1 … 128 in one store — runs of equal lengths and
        changes between them, anchors shorter and longer than the rows they
        meet — at a threshold that *is* one of the distances."""
        lengths = [length for length, repeat in runs for _ in range(repeat)]
        scan = build_scan(ragged_walks(lengths, seed), include_stats)
        distances = reference_pairwise(*scan_records(scan))
        epsilon = float(np.quantile(distances, quantile, method="lower")) if distances.size else 1.0
        with mock.patch.object(columnar, "PAIR_BLOCK", block):
            check_join(scan, epsilon)
            assert pairwise_distances(*scan_records(scan)).tolist() == distances.tolist()


# ----------------------------------------------------------------------
# the condensed vector
# ----------------------------------------------------------------------
class TestPairwiseDistances:
    @pytest.mark.parametrize("block", [1, 7, 8192])
    @pytest.mark.parametrize("include_stats", [True, False])
    def test_equals_the_per_anchor_loop(self, block, include_stats, monkeypatch):
        monkeypatch.setattr(columnar, "PAIR_BLOCK", block)
        for data in (
            random_walk_collection(25, 32, seed=5),
            ragged_walks([64, 48, 32, 1, 2, 128] * 4, seed=23),
        ):
            arrays = scan_records(build_scan(data, include_stats))
            count = arrays[0].size
            unsorted = np.random.default_rng(29).permutation(count)[: count - 3]
            for row_ids in (None, [0, 3, 8, 15], unsorted, unsorted.tolist(), [4], []):
                observed = pairwise_distances(*arrays, row_ids=row_ids)
                expected = reference_pairwise(*arrays, row_ids=row_ids)
                assert observed.dtype == np.float64
                assert observed.tolist() == expected.tolist()

    def test_equals_brute_force_in_condensed_order(self):
        arrays = scan_records(build_scan(ragged_walks([64, 48, 32, 5] * 5, seed=31)))
        count = arrays[0].size
        expected = [
            brute_force_distance(*arrays, anchor, other)
            for anchor in range(count - 1)
            for other in range(anchor + 1, count)
        ]
        assert pairwise_distances(*arrays).tolist() == expected


# ----------------------------------------------------------------------
# structure: the seam and the temporaries
# ----------------------------------------------------------------------
class _CountingToken(CancellationToken):
    """A live token that counts how often the seam polls it."""

    __slots__ = ("polls",)

    def __init__(self):
        super().__init__()
        self.polls = []  # appended to from pool threads: atomic, unlike += 1

    def check(self):
        self.polls.append(None)
        super().check()


class TestCancellationSeam:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_checkpoint_per_block_not_per_anchor(self, workers):
        scan = build_scan(random_walk_collection(240, 32, seed=37), workers=workers)
        blocks = len(pair_blocks(240))
        assert 1 < blocks < 24  # 28 680 pairs: a handful of blocks, 239 anchors
        token = _CountingToken()
        with cancel_scope(token):
            scan.all_pairs(6.0)
        assert len(token.polls) == blocks


class TestTemporariesAreBounded:
    """No temporary of the kernel scales with the relation or its survivors.

    Re-scoring all survivors in one gather (6 000 x 127 complex at 240 rows,
    ~12 MB) was measured while the kernel was sized: the benchmark's peak RSS
    went from 88.6 to 95.1 MB, over its 5 % bound.  Here the relation is the
    evaluation's 1200 x 128 and the threshold keeps about a tenth of its
    719 400 pairs, so one gather of the survivors would be hundreds of
    megabytes.
    """

    #: Four gathers the size of a pruning round's (1 MB each at the shipped
    #: block size): what the kernel holds at once, plus the block's index
    #: arrays and the answer list's growth.
    BOUND = 4 * columnar.PAIR_BLOCK * columnar.ABANDON_CHUNK * 16

    @pytest.fixture(scope="class")
    def scan(self):
        return build_scan(random_walk_collection(1200, 128, seed=41))

    @pytest.mark.parametrize("early_abandon", [True, False])
    def test_join_peak_beyond_its_answer(self, scan, early_abandon):
        sample = pairwise_distances(*scan_records(scan), row_ids=np.arange(60))
        epsilon = float(np.quantile(sample, 0.1))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            pairs, _ = scan.all_pairs(epsilon, early_abandon=early_abandon)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 40_000 < len(pairs) < 120_000
        answer = current - before  # the returned list is all that is left
        assert peak - before < answer + self.BOUND
