"""Differentials for the k-index's candidate verification.

``KIndex._verify_batch`` checks every candidate a range probe's traversal
returned — a single probe being a batch of one — through one kernel,
:func:`repro.storage.columnar.verify_pairs`: bounded blocks of (candidate,
query) pairs, abandoned chunk by chunk against each query's own epsilon, and
only the survivors scored exactly.  It replaced one gathered pass that scored
every pair over every column; that loop lives on here as the reference.
Every differential asks for the same thing:

    kernel == reference loop

bit for bit — answer ids, their order and their distance bits — with the same
work counters, whatever the relation's lengths, the representation, the
statistics term, the transformation, the batch or the block size.  The file
also pins verification's memory bound and the epsilon guard of every range
entry point.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import KIndex, SequentialScan, SeriesFeatureExtractor, TimeSeries
from repro.index import kindex as kindex_module
from repro.storage import columnar
from repro.storage.columnar import verify_pairs
from repro.timeseries.generators import random_walk, random_walk_collection
from repro.timeseries.transforms import moving_average_spectral, scale_spectral


# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------
def reference_pair_distances(
    coefficients,
    lengths,
    means,
    stds,
    include_stats,
    row_ids,
    query_matrix,
    query_lengths,
    query_means,
    query_stds,
    query_index,
):
    """The gathered pass verification used to be: every (row, query) pair
    scored over every column in one call."""
    if row_ids.size == 0:
        return np.zeros(0, dtype=np.float64)
    columns = min(coefficients.shape[1], query_matrix.shape[1])
    gathered = coefficients[row_ids, :columns]
    queries = query_matrix[query_index, :columns]
    squared = np.abs(gathered - queries) ** 2
    common = np.minimum(lengths[row_ids], query_lengths[query_index])
    if np.all(common == columns):
        totals = np.sum(squared, axis=1)
    else:
        mask = np.arange(columns)[None, :] < common[:, None]
        totals = np.sum(np.where(mask, squared, 0.0), axis=1)
    if include_stats:
        totals = totals + (
            (means[row_ids] - query_means[query_index]) ** 2
            + (stds[row_ids] - query_stds[query_index]) ** 2
        )
    return np.sqrt(totals)


def reference_verify_batch(index, candidate_lists, query_fulls, transformation, epsilons, results):
    """The ``KIndex._verify_batch`` the kernel replaced, a drop-in for it."""
    counts = [candidates.size for candidates in candidate_lists]
    if not sum(counts):
        return
    row_ids = np.concatenate(candidate_lists)
    query_index = np.repeat(np.arange(len(candidate_lists), dtype=np.intp), counts)
    query_lengths = np.array([full[0].shape[0] for full in query_fulls], dtype=np.intp)
    query_matrix = np.zeros((len(query_fulls), int(query_lengths.max())), dtype=np.complex128)
    for position, full in enumerate(query_fulls):
        query_matrix[position, : full[0].shape[0]] = full[0]
    query_means = np.array([full[1] for full in query_fulls])
    query_stds = np.array([full[2] for full in query_fulls])
    coefficients, means, stds = index.store.transformed_arrays(transformation)
    distances = reference_pair_distances(
        coefficients,
        index.store.lengths,
        means,
        stds,
        index.extractor.include_stats,
        row_ids,
        query_matrix,
        query_lengths,
        query_means,
        query_stds,
        query_index,
    )
    offset = 0
    for position, count in enumerate(counts):
        block = distances[offset : offset + count]
        ids = row_ids[offset : offset + count]
        offset += count
        keep = np.nonzero(block <= float(epsilons[position]))[0]
        order = keep[np.argsort(block[keep], kind="stable")]
        results[position].answers = [
            (index.store.series(int(ids[i])), float(block[i])) for i in order
        ]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
#: Work counters verification must leave as the traversal set them.
WORK = (
    "candidates",
    "postprocessed",
    "record_fetches",
    "node_accesses",
    "internal_node_accesses",
    "leaf_node_accesses",
)

#: Thresholds the batches mix: nothing but duplicates, a few, many, all.
EPSILONS = (0.0, 0.5, 2.0, 5.0, 10.0, math.inf)


def observed(result):
    """A result's answers (object id, distance bits) and work counters."""
    answers = [(series.object_id, distance.hex()) for series, distance in result.answers]
    return answers, [getattr(result.statistics, name) for name in WORK]


def check_verification(index, queries, epsilons, transformation=None):
    """Batched and single probes against the reference, bit for bit.

    A batch's answers are compared with the reference's batch, not with the
    single probes: on a ragged relation the reference reduces a batch over
    its widest query's columns, so a distance may differ from the single
    probe's in its last bit.
    """
    batched = [
        observed(result)
        for result in index.range_query_batch(queries, epsilons, transformation=transformation)
    ]
    singles = [
        observed(index.range_query(query, epsilon, transformation=transformation))
        for query, epsilon in zip(queries, epsilons)
    ]
    with mock.patch.object(KIndex, "_verify_batch", reference_verify_batch):
        assert batched == [
            observed(result)
            for result in index.range_query_batch(queries, epsilons, transformation=transformation)
        ]
        assert singles == [
            observed(index.range_query(query, epsilon, transformation=transformation))
            for query, epsilon in zip(queries, epsilons)
        ]
    for (_, batch_work), (_, single_work) in zip(batched, singles):
        assert single_work[0] == single_work[1] == single_work[2] == batch_work[0]


def nth_distance(index, query, rank, transformation=None):
    """The query's ``rank``-th smallest distance to the relation (cyclically):
    a threshold some candidate lies exactly on."""
    with mock.patch.object(KIndex, "_verify_batch", reference_verify_batch):
        answers = index.range_query(query, math.inf, transformation=transformation).answers
    return answers[rank % len(answers)][1]


def build_index(lengths, seed, representation="polar", include_stats=True):
    rng = np.random.default_rng(seed)
    data = [random_walk(int(length), seed=rng) for length in lengths]
    extractor = SeriesFeatureExtractor(
        2, representation=representation, include_stats=include_stats
    )
    return KIndex.bulk_load(data, extractor, max_entries=4), data


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------
class TestVerificationEqualsTheGatheredPass:
    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([16, 24, 32]), min_size=1, max_size=60),
        ragged=st.booleans(),
        seed=st.integers(0, 2**16),
        representation=st.sampled_from(["polar", "rectangular"]),
        include_stats=st.booleans(),
        transformation=st.sampled_from([None, "mavg", "scale"]),
        picks=st.lists(
            st.tuples(st.integers(-1, 59), st.sampled_from(EPSILONS) | st.integers(0, 59)),
            min_size=1,
            max_size=40,
        ),
        block=st.sampled_from([1, 7, 64, 8192]),
    )
    def test_property(
        self, lengths, ragged, seed, representation, include_stats, transformation, picks, block
    ):
        """Random relations (uniform or ragged), both representations, with
        and without the statistics term, untransformed, ``mavg`` and
        ``scale``; batches of 1–40 queries at mixed epsilons — fixed ones
        and thresholds that are one of the query's distances — stored series
        and fresh walks among them, at block sizes that cut the pairs
        anywhere."""
        assume(not (transformation == "mavg" and representation == "rectangular"))
        if not ragged:
            lengths = [lengths[0]] * len(lengths)
        index, data = build_index(lengths, seed, representation, include_stats)
        rng = np.random.default_rng(seed + 1)
        queries = [
            data[pick % len(data)] if pick >= 0 else random_walk(int(rng.choice(lengths)), seed=rng)
            for pick, _ in picks
        ]
        transformation = {
            None: None,
            "mavg": moving_average_spectral(32, 4),
            "scale": scale_spectral(32, -1.5),
        }[transformation]

        def threshold(query, choice):
            if isinstance(choice, int):
                return nth_distance(index, query, choice, transformation)
            return choice

        epsilons = [threshold(query, choice) for query, (_, choice) in zip(queries, picks)]
        with mock.patch.object(columnar, "PAIR_BLOCK", block):
            check_verification(index, queries, epsilons, transformation)

    @pytest.mark.parametrize("block", [7, 64, 8192])
    def test_thresholds_on_the_distances_of_a_ragged_relation(self, block, monkeypatch):
        """Each query's threshold is one of its own distances, so an answer
        lies exactly on it; lengths change from row to row, so a block mixes
        common prefixes; and the batch is large enough for abandoning rounds
        to run at the shipped block size."""
        monkeypatch.setattr(columnar, "PAIR_BLOCK", block)
        index, data = build_index([16, 32, 24] * 100, seed=13, include_stats=False)
        queries = data[:40]
        epsilons = [nth_distance(index, query, 10 + n) for n, query in enumerate(queries)]
        check_verification(index, queries, epsilons)

    @pytest.mark.parametrize("block", [1, 5, 8192])
    def test_stored_query_finds_itself_at_zero_distance(self, block, monkeypatch):
        # At epsilon 0 the polar traversal's zero-width window can return no
        # candidate at all, so the smallest threshold verification is asked
        # to hold the row to is just above.
        monkeypatch.setattr(columnar, "PAIR_BLOCK", block)
        index, data = build_index([32] * 30, seed=3)
        results = index.range_query_batch(data[:6], 1e-9)
        for query, result in zip(data[:6], results):
            found = [(series.object_id, distance) for series, distance in result.answers]
            assert found == [(query.object_id, 0.0)]
        check_verification(index, data[:6], [1e-9] * 3 + [0.0] * 3)

    def test_infinite_epsilon_returns_everything(self):
        index, data = build_index([16, 32, 24] * 8, seed=5)
        results = index.range_query_batch(data[:3], math.inf)
        assert all(len(result.answers) == len(data) for result in results)
        check_verification(index, data[:3], [math.inf] * 3)

    def test_empty_candidate_lists(self):
        index, _ = build_index([32] * 20, seed=7)
        far = [TimeSeries(random_walk(32, seed=seed).values + 1000.0) for seed in (1, 2)]
        results = index.range_query_batch(far, 0.5)
        assert [result.statistics.candidates for result in results] == [0, 0]
        check_verification(index, far, [0.5, 0.5])
        check_verification(index, far + index.series_list()[:1], [0.5, 0.5, 0.5])

    def test_no_pairs(self):
        index, _ = build_index([32] * 4, seed=9)
        coefficients, means, stds = index.store.transformed_arrays(None)
        nothing = np.zeros(0, dtype=np.intp)
        positions, distances = verify_pairs(
            coefficients,
            index.store.lengths,
            means,
            stds,
            True,
            nothing,
            coefficients[:1],
            index.store.lengths[:1],
            means[:1],
            stds[:1],
            nothing,
            np.ones(1),
        )
        assert positions.size == distances.size == 0


# ----------------------------------------------------------------------
# the memory bound
# ----------------------------------------------------------------------
class TestTemporariesAreBounded:
    """Verification's temporaries are bounded by the block, not the batch.

    The gathered pass held every candidate's full row and a copy of its
    query's row at once: a batch of the 1 200 walks of the evaluation's
    1200 x 128 relation at epsilon 5, probing for themselves, peaked at
    ~345 MB in it, and twice the batch at twice that.
    """

    #: Four gathers the size of a pruning round's (1 MB each at the shipped
    #: block size): what the kernel holds at once, plus its block's index
    #: arrays and the answers' growth.
    BOUND = 4 * columnar.PAIR_BLOCK * columnar.ABANDON_CHUNK * 16

    @pytest.fixture(scope="class")
    def walks(self):
        data = random_walk_collection(1200, 128, seed=41)
        return KIndex.bulk_load(data), data

    def verification_peak(self, index, queries, monkeypatch):
        """Bytes verification allocated beyond its inputs, at its peak."""
        peaks = []
        kernel = kindex_module.verify_pairs

        def measured(*args):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            found = kernel(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return found

        monkeypatch.setattr(kindex_module, "verify_pairs", measured)
        tracemalloc.start()
        try:
            results = index.range_query_batch(queries, 5.0)
        finally:
            tracemalloc.stop()
        assert sum(result.statistics.candidates for result in results) > 40 * len(queries)
        return peaks[0]

    def test_doubling_the_batch_leaves_the_peak(self, walks, monkeypatch):
        index, data = walks
        once = self.verification_peak(index, data, monkeypatch)
        twice = self.verification_peak(index, data * 2, monkeypatch)
        assert once < self.BOUND
        assert twice < self.BOUND
        # Only the answers grow with the batch: ~1 300 here, 16 bytes each.
        assert twice - once < columnar.PAIR_BLOCK * 16


# ----------------------------------------------------------------------
# the epsilon guard
# ----------------------------------------------------------------------
class TestEpsilonMustBeANumberAtLeastZero:
    @pytest.fixture(scope="class")
    def structures(self):
        data = random_walk_collection(30, 32, seed=11)
        scan = SequentialScan()
        scan.extend(data)
        return KIndex.bulk_load(data), scan, data

    @pytest.mark.parametrize("epsilon", [math.nan, -1.0, -math.inf])
    def test_every_entry_point_refuses(self, structures, epsilon):
        index, scan, data = structures
        entry_points = [
            lambda: index.range_query(data[0], epsilon),
            lambda: index.range_query_batch(data[:2], epsilon),
            lambda: index.range_query_batch(data[:2], [1.0, epsilon]),
            lambda: index.all_pairs(epsilon),
            lambda: KIndex().all_pairs(epsilon),
            lambda: scan.range_query(data[0], epsilon),
            lambda: scan.all_pairs(epsilon),
        ]
        for entry_point in entry_points:
            with pytest.raises(ValueError, match="non-negative"):
                entry_point()

    def test_infinity_returns_everything(self, structures):
        index, scan, data = structures
        assert len(index.range_query(data[0], math.inf).answers) == len(data)
        assert len(index.range_query_batch(data[:2], math.inf)[1].answers) == len(data)
        assert len(scan.range_query(data[0], math.inf).answers) == len(data)
        pairs, _ = index.all_pairs(math.inf)
        assert len(pairs) == len(data) * (len(data) - 1)
        pairs, _ = scan.all_pairs(math.inf)
        assert len(pairs) == len(data) * (len(data) - 1) // 2
