"""Differentials for the order the abandoning kernel visits columns in.

A stored record keeps each frequency of a real series' spectrum once,
lowest first (the other half are their conjugates), so the abandoning kernel
of :mod:`repro.storage.columnar`, ``verify_pairs``, visits the columns in
order, ``0, 1, 2, ...``, each weighted by the times its frequency is in the
exact distance, for all three of its callers: the scan range, index
verification and the scan join (``pair_block_distances``).  There used to
be three round loops of their own; those loops live on here as the
reference, and so does ``early_abandon_candidates``, the scan's own loop
until the scan range went through ``verify_pairs``.  They sum each column
once, over the columns both sides of a pair store: a weaker lower bound, but
one.  A partial sum over any set of columns is at most the total, so every
differential asks for the same two things:

    answers == the reference's, bit for bit
    survivors ⊇ the brute-force answers

whatever the relation's lengths (uniform or ragged, odd or even column
counts, fewer columns than one round), the statistics term, the
transformation, the index's representation or the block size.  The file also
pins what the order is for: how few candidates reach the exact scorer.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gathered_transform import reading_the_matrix, transformed_arrays

from repro import KIndex, SequentialScan, SeriesFeatureExtractor
from repro.index import kindex as kindex_module
from repro.storage import columnar
from repro.storage.columnar import (
    ABANDON_CHUNK,
    _PRUNE_SLACK,
    ColumnarRecordStore,
    Records,
    _pair_rows,
    _partial_sums,
    _plan,
    exact_distances,
    gathered_pair_distances,
    half_width,
    pair_block_distances,
    pair_blocks,
    query_records,
    verify_pairs,
)
from repro.timeseries.generators import random_walk, random_walk_collection
from repro.timeseries.transforms import moving_average_spectral, scale_spectral


# ----------------------------------------------------------------------
# the references: the scan's own loop, and the three loops in natural
# column order
# ----------------------------------------------------------------------
def early_abandon_candidates(
    coefficients: np.ndarray,
    lengths: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    query_coefficients: np.ndarray,
    query_mean: float,
    query_std: float,
    query_length: int,
    include_stats: bool,
    epsilon: float,
    *,
    chunk: int = ABANDON_CHUNK,
) -> np.ndarray:
    """Row indices surviving a vectorized early-abandoning scan.

    Accumulates squared differences chunkwise (statistics terms first, then
    the coefficients both sides store from the lowest frequency up — largest
    contributions first, which is what makes abandoning effective), dropping
    rows whose running sum clearly
    exceeds ``epsilon**2`` after each chunk and compacting the active set.
    Pruned rows are *guaranteed* non-answers (partial sums only grow and a
    small slack absorbs float reassociation), so callers re-score only the
    survivors with :func:`exact_distances`.
    """
    count = coefficients.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.intp)
    limit = float(epsilon) ** 2
    bound = limit * (1.0 + _PRUNE_SLACK) + 1e-12
    if include_stats:
        totals = (means - query_mean) ** 2 + (stds - query_std) ** 2
    else:
        totals = np.zeros(count, dtype=np.float64)
    active = np.nonzero(totals <= bound)[0]
    totals = totals[active]
    query_coefficients = np.asarray(query_coefficients)
    columns = min(coefficients.shape[1], len(query_coefficients))
    common = np.minimum(half_width(lengths), len(query_coefficients))
    ragged = not np.all(common == columns)
    records = Records(coefficients, lengths, means, stds)
    for start in range(0, columns, chunk):
        if active.size == 0:
            break
        cols = np.arange(start, min(start + chunk, columns))
        difference = records.gather(active, cols)
        difference -= query_coefficients[cols]
        if ragged:
            difference[cols >= common[active][:, None]] = 0.0
        parts = difference.view(np.float64)
        totals += np.einsum("ij,ij->i", parts, parts)
        alive = totals <= bound
        dropped = alive.size - int(np.count_nonzero(alive))
        if dropped:
            active, totals = active[alive], totals[alive]
        if dropped * columns <= active.size * chunk:
            break
    return active


def reference_early_abandon_candidates(
    coefficients,
    lengths,
    means,
    stds,
    query_coefficients,
    query_mean,
    query_std,
    query_length,
    include_stats,
    epsilon,
):
    """``early_abandon_candidates`` slicing the columns from 0 upwards."""
    count = coefficients.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.intp)
    bound = float(epsilon) ** 2 * (1.0 + columnar._PRUNE_SLACK) + 1e-12
    if include_stats:
        totals = (means - query_mean) ** 2 + (stds - query_std) ** 2
    else:
        totals = np.zeros(count, dtype=np.float64)
    active = np.nonzero(totals <= bound)[0]
    totals = totals[active]
    query_coefficients = np.asarray(query_coefficients)
    columns = min(coefficients.shape[1], len(query_coefficients))
    common = np.minimum(half_width(lengths), len(query_coefficients))
    ragged = not np.all(common == columns)
    for start in range(0, columns, columnar.ABANDON_CHUNK):
        if active.size == 0:
            break
        stop = min(start + columnar.ABANDON_CHUNK, columns)
        squared = np.abs(coefficients[active, start:stop] - query_coefficients[start:stop]) ** 2
        if ragged:
            mask = np.arange(start, stop)[None, :] < common[active][:, None]
            squared = np.where(mask, squared, 0.0)
        totals = totals + np.sum(squared, axis=1)
        alive = totals <= bound
        if not alive.all():
            active = active[alive]
            totals = totals[alive]
    return active


def reference_verify_pairs(rows, row_ids, queries, query_index, epsilons, include_stats):
    """``verify_pairs`` with the round loop of its own, over arrays already
    transformed (:func:`reading_the_matrix`): it maps nothing."""
    coefficients, lengths, means, stds, mapping, whole = rows
    query_matrix, query_lengths, query_means, query_stds, query_mapping, query_whole = queries
    assert mapping is None and query_mapping is None
    block = columnar.PAIR_BLOCK
    found = []
    width = min(coefficients.shape[1], query_matrix.shape[1])
    # The columns each side stores: its half, or all of a whole record's.
    stored, query_stored = half_width(lengths), half_width(query_lengths)
    if whole is not None:
        stored = np.where(whole, lengths, stored)
    if query_whole is not None:
        query_stored = np.where(query_whole, query_lengths, query_stored)
    limits = epsilons**2 * (1.0 + columnar._PRUNE_SLACK) + 1e-12
    for first in range(0, row_ids.size, block):
        rows = row_ids[first : first + block]
        queries = query_index[first : first + block]
        if include_stats:
            mean_gaps = means[rows] - query_means[queries]
            std_gaps = stds[rows] - query_stds[queries]
            totals = mean_gaps**2 + std_gaps**2
        else:
            totals = np.zeros(rows.size, dtype=np.float64)
        bounds = limits[queries]
        survivors = np.nonzero(totals <= bounds)[0]
        rows, queries = rows[survivors], queries[survivors]
        if survivors.size * width > block:
            totals, bounds = totals[survivors], bounds[survivors]
            common = np.minimum(stored[rows], query_stored[queries])
            columns = int(common.max())
            ragged = not np.all(common == columns)
            for start in range(0, columns, columnar.ABANDON_CHUNK):
                if survivors.size * (columns - start) <= block:
                    break
                stop = min(start + columnar.ABANDON_CHUNK, columns)
                difference = coefficients[rows, start:stop]
                difference -= query_matrix[queries, start:stop]
                if ragged:
                    difference[np.arange(start, stop) >= common[:, None]] = 0.0
                parts = difference.view(np.float64)
                totals += np.einsum("ij,ij->i", parts, parts)
                alive = totals <= bounds
                if not alive.all():
                    survivors, rows, queries = survivors[alive], rows[alive], queries[alive]
                    common, totals, bounds = common[alive], totals[alive], bounds[alive]
        distances = gathered_pair_distances(
            Records(coefficients, lengths, means, stds, whole=whole),
            rows,
            Records(query_matrix, query_lengths, query_means, query_stds, whole=query_whole),
            queries,
            include_stats,
        )
        keep = distances <= epsilons[queries]
        found.append((first + survivors[keep], distances[keep]))
    if not found:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.float64)
    positions = np.concatenate([positions for positions, _ in found])
    return positions, np.concatenate([distances for _, distances in found])


def reference_pair_block_distances(records, include_stats, first, last, *, epsilon=None):
    """``pair_block_distances`` with the round loop of its own."""
    coefficients, lengths, means, stds, _, _ = records
    left, right = _pair_rows(coefficients.shape[0], first, last)
    if epsilon is not None:
        bound = float(epsilon) ** 2 * (1.0 + columnar._PRUNE_SLACK) + 1e-12
        if include_stats:
            totals = (means[right] - means[left]) ** 2 + (stds[right] - stds[left]) ** 2
            alive = totals <= bound
            left, right, totals = left[alive], right[alive], totals[alive]
        else:
            totals = np.zeros(left.size, dtype=np.float64)
        common = half_width(np.minimum(lengths[left], lengths[right]))
        columns = int(common.max()) if common.size else 0
        ragged = not np.all(common == columns)
        for start in range(0, columns, columnar.ABANDON_CHUNK):
            if left.size == 0:
                break
            chunk = coefficients[:, start : min(start + columnar.ABANDON_CHUNK, columns)]
            difference = chunk.take(right, axis=0)
            difference -= chunk.take(left, axis=0)
            if ragged:
                beyond = np.arange(start, start + chunk.shape[1]) >= common[:, None]
                difference[beyond] = 0.0
            parts = difference.view(np.float64)
            totals += np.einsum("ij,ij->i", parts, parts)
            alive = totals <= bound
            if not alive.all():
                left, right, totals = left[alive], right[alive], totals[alive]
                common = common[alive]
    distances = np.empty(left.size, dtype=np.float64)
    rows = max(1, columnar.PAIR_BLOCK // max(1, coefficients.shape[1]))
    for start in range(0, left.size, rows):
        piece = slice(start, start + rows)
        distances[piece] = gathered_pair_distances(
            records, right[piece], records, left[piece], include_stats
        )
    return left, right, distances


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
#: Series lengths whose records hold 5 (fewer than one round), 8, 15, 16, 31
#: and 32 columns: odd and even counts on both sides of a round's width.
LENGTHS = (6, 9, 16, 17, 32, 33)

#: The transformations the rows are verified under, by name.
TRANSFORMATIONS = {
    None: lambda length: None,
    "mavg10": lambda length: moving_average_spectral(max(length, 10), 10),
    "scale": lambda length: scale_spectral(length, -1.5),
}


def relation(lengths, seed, transformation=None):
    """``(coefficients, lengths, means, stds)`` of random walks of the given
    lengths under one of :data:`TRANSFORMATIONS`."""
    rng = np.random.default_rng(seed)
    store = ColumnarRecordStore()
    store.extend([random_walk(int(length), seed=rng) for length in lengths])
    transformation = TRANSFORMATIONS[transformation](max(lengths))
    if transformation is None:
        return store.coefficients, store.lengths, store.means, store.stds
    # The stored halves mapped column by column: data to verify, whatever
    # the map would make of the records whose length it was not built for.
    width = store.coefficients.shape[1]
    coefficients = store.coefficients * transformation.multiplier[1 : 1 + width]
    coefficients += transformation.offset[1 : 1 + width]
    extra = np.stack([store.means, store.stds], axis=1)
    extra = extra * transformation.extra_multiplier + transformation.extra_offset
    return coefficients, store.lengths, extra[:, 0].copy(), extra[:, 1].copy()


def record(arrays, row):
    """Row ``row`` of the arrays as a query record over its own columns."""
    coefficients, lengths, means, stds = arrays
    length = int(lengths[row])
    return (
        coefficients[row, : half_width(length)],
        float(means[row]),
        float(stds[row]),
        length,
    )


def fresh_record(length, rng):
    """The record of a walk that is not in the relation."""
    store = ColumnarRecordStore()
    store.extend([random_walk(int(length), seed=rng)])
    return store.full_record(0)


def kth_distance(arrays, query, rank, include_stats):
    """The query's ``rank``-th smallest distance (cyclically): a threshold
    some row lies exactly on."""
    distances = np.sort(exact_distances(Records(*arrays), query_records([query]), include_stats))
    return float(distances[rank % distances.size])


def bits(values):
    return [float(value).hex() for value in values]


relations = st.fixed_dictionaries(
    {
        "lengths": st.lists(st.sampled_from(LENGTHS), min_size=2, max_size=40),
        "ragged": st.booleans(),
        "seed": st.integers(0, 2**16),
        "include_stats": st.booleans(),
        "transformation": st.sampled_from(sorted(TRANSFORMATIONS, key=str)),
    }
)


def drawn(case):
    """The arrays of a drawn relation: ragged, or all of its first length."""
    lengths = case["lengths"]
    if not case["ragged"]:
        lengths = [lengths[0]] * len(lengths)
    return relation(lengths, case["seed"], case["transformation"])


# ----------------------------------------------------------------------
# the order
# ----------------------------------------------------------------------
class TestTheOrder:
    @pytest.mark.parametrize("length", [0, 1, 2, 5, 8, 15, 16, 127])
    def test_the_weights_count_each_coefficient_once(self, length):
        """Two halves of one length are scored over their stored columns,
        the first ``doubled`` of them twice: ``doubled + columns`` is the
        whole spectrum's coefficient count, and only an even series
        length's last column, ``n/2``, is its own mirror."""
        arrays = relation([length + 1] * 3, seed=length)
        ids = np.arange(3)
        doubled, columns = _plan(Records(*arrays), ids, Records(*arrays), ids)
        assert columns == half_width(length) == arrays[0].shape[1]
        assert doubled + columns == length
        assert columns - doubled == (length % 2)

    @pytest.mark.parametrize("lengths", [[32] * 12, [6, 9, 16, 17, 32, 33] * 2])
    @pytest.mark.parametrize("transformation", sorted(TRANSFORMATIONS, key=str))
    def test_rounds_in_order_rise_to_the_exact_distance(self, lengths, transformation):
        """The partial sums over the columns in order, a round at a time,
        never decrease, never exceed the exact squared distance, and end on
        it — whatever the lengths of the pair."""
        arrays = relation(lengths, seed=5, transformation=transformation)
        rows = Records(*arrays)
        queries = query_records([record(arrays, 0), fresh_record(24, np.random.default_rng(1))])
        for query in range(queries.size):
            ids = np.arange(rows.size)
            queried = np.full(rows.size, query)
            plan = _plan(rows, ids, queries, queried)
            exact = gathered_pair_distances(rows, ids, queries, queried, False) ** 2
            totals = np.zeros(rows.size)
            for start in range(0, int(np.max(plan[1])), ABANDON_CHUNK):
                cols = np.arange(start, min(start + ABANDON_CHUNK, int(np.max(plan[1]))))
                before = totals.copy()
                totals += _partial_sums(rows, ids, queries, queried, cols, plan)
                assert (totals >= before).all()
                assert (totals <= exact * (1 + 1e-12) + 1e-300).all()
            assert np.allclose(totals, exact, rtol=1e-12, atol=0.0)


# ----------------------------------------------------------------------
# the scan range
# ----------------------------------------------------------------------
def scan_kernel(arrays, query, include_stats, epsilon, row_ids=None):
    """The scan range's kernel as ``SequentialScan.range_query`` runs it over
    one span of the whole relation: ``verify_pairs`` on (row, query 0)
    pairs, the one query broadcast, the rows in order (or the given
    ``row_ids``).  Returns the kept positions and distances."""
    positions, distances = verify_pairs(
        Records(*arrays), row_ids, query_records([query]), None, (epsilon,), include_stats
    )
    keep = distances <= epsilon
    return positions[keep], distances[keep]


def scan(kernel, arrays, query, include_stats, epsilon):
    """What a scan keeps — the kernel's survivors re-scored exactly, those
    within ``epsilon``, as (rows, distance bits) — and the survivors."""
    survivors = kernel(*arrays, *query, include_stats, epsilon)
    distances = exact_distances(
        Records(*arrays), query_records([query]), include_stats, row_ids=survivors
    )
    keep = distances <= epsilon
    return (survivors[keep].tolist(), bits(distances[keep])), set(survivors.tolist())


def check_scan(arrays, query, include_stats, epsilon):
    """The scan kernel keeps the rows and bits of the loop it replaced and
    of the natural-order reference, with the rows in order or given as ids,
    and scores every brute-force answer."""
    scored = set()

    def counting(*args):
        scored.update(args[1].tolist())
        return gathered_pair_distances(*args)

    with mock.patch.object(columnar, "gathered_pair_distances", counting):
        rows, distances = scan_kernel(arrays, query, include_stats, epsilon)
    answers = (rows.tolist(), bits(distances))
    every_row = np.arange(arrays[0].shape[0])
    rows, distances = scan_kernel(arrays, query, include_stats, epsilon, every_row)
    assert answers == (rows.tolist(), bits(distances))
    replaced, survivors = scan(early_abandon_candidates, arrays, query, include_stats, epsilon)
    assert answers == replaced
    reference = reference_early_abandon_candidates
    assert answers == scan(reference, arrays, query, include_stats, epsilon)[0]
    brute = exact_distances(Records(*arrays), query_records([query]), include_stats)
    assert set(np.flatnonzero(brute <= epsilon).tolist()) <= survivors
    assert set(np.flatnonzero(brute <= epsilon).tolist()) <= scored
    return answers


class TestEarlyAbandonCandidates:
    @settings(max_examples=60, deadline=None)
    @given(
        case=relations,
        picks=st.lists(st.integers(0, 39), min_size=1, max_size=6),
        block=st.sampled_from([1, 7, 64, 8192]),
    )
    def test_property(self, case, picks, block):
        """At block sizes that cut the relation's pairs anywhere, the scan
        kernel keeps the rows and distance bits of the loop it replaced."""
        arrays = drawn(case)
        include_stats = case["include_stats"]
        for pick in picks:
            query = record(arrays, pick % arrays[0].shape[0])
            at_a_distance = kth_distance(arrays, query, pick, include_stats)
            for epsilon in (0.0, 1.0, at_a_distance, math.inf):
                with mock.patch.object(columnar, "PAIR_BLOCK", block):
                    check_scan(arrays, query, include_stats, epsilon)

    @pytest.mark.parametrize("length", [6, 17, 33, 64])
    def test_fresh_queries_shorter_and_longer_than_the_rows(self, length):
        arrays = relation([16, 17, 32, 9] * 10, seed=3)
        query = fresh_record(length, np.random.default_rng(length))
        for epsilon in (2.0, 5.0, 20.0):
            check_scan(arrays, query, True, epsilon)

    def test_nothing_pruned_keeps_every_row(self):
        arrays = relation([32] * 50, seed=4)
        answers = check_scan(arrays, record(arrays, 0), True, 1000.0)
        assert answers[0] == list(range(50))


# ----------------------------------------------------------------------
# verify_pairs
# ----------------------------------------------------------------------
def pair_problem(arrays, picks, include_stats, seed):
    """``verify_pairs``'s arguments: stored and fresh queries (``pick < 0``),
    each against a random candidate list, at fixed thresholds and at some of
    their own distances."""
    coefficients, lengths, means, stds = arrays
    count = coefficients.shape[0]
    rng = np.random.default_rng(seed)
    queries = [
        record(arrays, pick % count) if pick >= 0 else fresh_record(rng.choice(lengths) + 1, rng)
        for pick in picks
    ]
    candidates = [np.sort(rng.choice(count, rng.integers(0, count + 1))) for _ in queries]
    row_ids = np.concatenate(candidates).astype(np.intp)
    query_index = np.repeat(np.arange(len(queries), dtype=np.intp), [c.size for c in candidates])
    choices = (0.0, 0.5, 2.0, 5.0, math.inf)
    epsilons = np.array(
        [
            kth_distance(arrays, query, pick + 3, include_stats) if pick % 2 else choices[pick % 5]
            for pick, query in zip(picks, queries)
        ]
    )
    return Records(*arrays), row_ids, query_records(queries), query_index, epsilons, include_stats


#: (representation, transformation) pairs an index is probed under; the
#: moving average is a safe transformation of the polar representation only.
PROBES = [
    ("polar", None),
    ("polar", "mavg10"),
    ("polar", "scale"),
    ("rectangular", None),
    ("rectangular", "scale"),
]


class TestVerifyPairs:
    @settings(max_examples=60, deadline=None)
    @given(
        case=relations,
        picks=st.lists(st.integers(-1, 39), min_size=1, max_size=12),
        block=st.sampled_from([1, 7, 64, 8192]),
    )
    def test_property(self, case, picks, block):
        """Positions and distance bits equal the natural-order loop's at
        block sizes that make rounds run on small data, and the pairs scored
        exactly hold every pair brute force keeps."""
        problem = pair_problem(drawn(case), picks, case["include_stats"], case["seed"])
        row_ids, query_index, epsilons = problem[1], problem[3], problem[4]
        scored = set()

        def counting(*args):
            scored.update(zip(args[1].tolist(), args[3].tolist()))
            return gathered_pair_distances(*args)

        with mock.patch.object(columnar, "PAIR_BLOCK", block):
            with mock.patch.object(columnar, "gathered_pair_distances", counting):
                positions, distances = verify_pairs(*problem)
            expected = reference_verify_pairs(*problem)
        assert positions.tolist() == expected[0].tolist()
        assert bits(distances) == bits(expected[1])
        brute = gathered_pair_distances(*problem[:4], problem[5])
        within = brute <= epsilons[query_index]
        assert set(zip(row_ids[within].tolist(), query_index[within].tolist())) <= scored

    @pytest.mark.parametrize("representation, transformation", PROBES)
    @pytest.mark.parametrize("include_stats", [True, False])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_range_probes_of_an_index(self, representation, transformation, include_stats, ragged):
        """Through ``KIndex``: answers, their order and their distance bits
        equal those of the index verifying with the natural-order loop."""
        lengths = [32, 33, 17, 16] * 40 if ragged else [33] * 160
        rng = np.random.default_rng(17)
        data = [random_walk(length, seed=rng) for length in lengths]
        extractor = SeriesFeatureExtractor(
            2, representation=representation, include_stats=include_stats
        )
        index = KIndex.bulk_load(data, extractor, max_entries=4)
        transformation = TRANSFORMATIONS[transformation](33)
        queries = data[::16]
        epsilons = [2.0, 4.0, 8.0, 16.0, 3.0] * 2

        def observed():
            results = index.range_query_batch(queries, epsilons, transformation=transformation)
            return [
                [(series.object_id, distance.hex()) for series, distance in result.answers]
                for result in results
            ]

        with mock.patch.object(columnar, "PAIR_BLOCK", 64):
            found = observed()
            with mock.patch.object(kindex_module, "verify_pairs", reference_verify_pairs):
                with reading_the_matrix(index, transformation):
                    assert found == observed()
        assert sum(len(answers) for answers in found) > len(queries)


# ----------------------------------------------------------------------
# pair_block_distances
# ----------------------------------------------------------------------
def join(kernel, arrays, include_stats, epsilon):
    """Every block's ``(left, right, distance bits)`` within ``epsilon``,
    and every pair the kernel handed back."""
    kept, survivors = [], set()
    for first, last in pair_blocks(arrays[0].shape[0]):
        left, right, distances = kernel(
            Records(*arrays), include_stats, first, last, epsilon=epsilon
        )
        survivors.update(zip(left.tolist(), right.tolist()))
        keep = np.ones(left.size, dtype=bool) if epsilon is None else distances <= epsilon
        kept.extend(zip(left[keep].tolist(), right[keep].tolist(), bits(distances[keep])))
    return kept, survivors


def check_join(arrays, include_stats, epsilon):
    kept, survivors = join(pair_block_distances, arrays, include_stats, epsilon)
    assert kept == join(reference_pair_block_distances, arrays, include_stats, epsilon)[0]
    if epsilon is not None:
        count = arrays[0].shape[0]
        left, right = _pair_rows(count, 0, count * (count - 1) // 2)
        brute = gathered_pair_distances(
            Records(*arrays), right, Records(*arrays), left, include_stats
        )
        within = brute <= epsilon
        assert set(zip(left[within].tolist(), right[within].tolist())) <= survivors
    return kept


class TestPairBlockDistances:
    @settings(max_examples=60, deadline=None)
    @given(case=relations, rank=st.integers(0, 200), block=st.sampled_from([1, 7, 64, 8192]))
    def test_property(self, case, rank, block):
        arrays = drawn(case)
        include_stats = case["include_stats"]
        count = arrays[0].shape[0]
        sample = pair_block_distances(
            Records(*arrays), include_stats, 0, count * (count - 1) // 2
        )[2]
        at_a_distance = float(np.sort(sample)[rank % sample.size])
        with mock.patch.object(columnar, "PAIR_BLOCK", block):
            for epsilon in (None, 0.0, 1.0, at_a_distance, math.inf):
                check_join(arrays, include_stats, epsilon)

    @pytest.mark.parametrize("block", [50, 8192])
    def test_relations_larger_and_smaller_than_a_block(self, block, monkeypatch):
        """A round of a block with fewer pairs than the relation has rows
        gathers pair by pair, one with more takes from a copy of the round's
        columns: the same bits either way."""
        monkeypatch.setattr(columnar, "PAIR_BLOCK", block)
        arrays = relation([17, 16, 33, 32] * 20, seed=9)
        for epsilon in (3.0, 6.0):
            assert check_join(arrays, True, epsilon)


# ----------------------------------------------------------------------
# what the order is for
# ----------------------------------------------------------------------
class TestThePruningIsPinned:
    """On 5 000 walks of 128 points, with thresholds that keep 1-4 % of the
    relation, the rows 20 range probes score exactly are at least their
    answers (each answer is verified by the scorer) and at most 1.3 times
    them: 1.15 here in conjugate pairs, 2.6 in natural order, whose
    rounds see only half of each frequency's energy.  The scan range and the
    scan join are pinned the same way (1.13 and 1.11-1.16 at the time of
    writing, the same counts as their own round loops gave before the three
    shared one)."""

    @staticmethod
    def scored_exactly(monkeypatch):
        """A counter of the rows handed to the exact scorer."""
        scored = [0]

        def counting(*args):
            scored[0] += args[1].size
            return gathered_pair_distances(*args)

        monkeypatch.setattr(columnar, "gathered_pair_distances", counting)
        return scored

    def test_rows_scored_exactly_per_answer(self, monkeypatch):
        data = random_walk_collection(5000, 128, seed=11)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2))
        coefficients, means, stds = transformed_arrays(index.store, None)
        arrays = (coefficients, index.store.lengths, means, stds)
        rng = np.random.default_rng(11)
        probes = []
        for row in rng.choice(len(data), 20, replace=False).tolist():
            rank = int(rng.integers(50, 200))
            probes.append((data[row], kth_distance(arrays, record(arrays, row), rank, True)))
        scored = self.scored_exactly(monkeypatch)
        answers = sum(len(index.range_query(query, epsilon).answers) for query, epsilon in probes)
        assert answers >= 20 * 50
        assert answers <= scored[0] <= 1.3 * answers

    def test_rows_scored_exactly_per_answer_of_a_scan_range(self, monkeypatch):
        """20 scan ranges over 8 000 walks, each keeping 2-10 % of them."""
        data = random_walk_collection(8000, 128, seed=13)
        scan = SequentialScan()
        scan.extend(data)
        coefficients, means, stds = transformed_arrays(scan.store, None)
        arrays = (coefficients, scan.store.lengths, means, stds)
        rng = np.random.default_rng(13)
        probes = []
        for row in rng.choice(len(data), 20, replace=False).tolist():
            rank = int(rng.integers(160, 800))
            probes.append((data[row], kth_distance(arrays, record(arrays, row), rank, True)))
        scored = self.scored_exactly(monkeypatch)
        answers = sum(len(scan.range_query(query, epsilon).answers) for query, epsilon in probes)
        assert answers >= 20 * 160
        assert answers <= scored[0] <= 1.3 * answers

    @pytest.mark.parametrize("share", [0.02, 0.05, 0.10])
    def test_pairs_scored_exactly_per_answer_of_a_scan_join(self, share, monkeypatch):
        """The join of 240 walks at a threshold keeping ``share`` of its
        28 680 pairs."""
        scan = SequentialScan()
        scan.extend(random_walk_collection(240, 128, seed=13))
        coefficients, means, stds = transformed_arrays(scan.store, None)
        arrays = (coefficients, scan.store.lengths, means, stds)
        sample = np.sort(columnar.pairwise_distances(Records(*arrays), True))
        epsilon = float(sample[int(share * sample.size)])
        scored = self.scored_exactly(monkeypatch)
        pairs, _ = scan.all_pairs(epsilon)
        assert len(pairs) >= share * sample.size
        assert len(pairs) <= scored[0] <= 1.3 * len(pairs)
