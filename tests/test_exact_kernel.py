"""Differentials for the exact kernel under every verification pass.

Every exact distance of the engine — the scan's range and k-NN, the
k-index's range verification and its k-NN ``exact`` callback, the scan join
— is scored by one core, ``gathered_pair_distances`` in
:mod:`repro.storage.columnar`: the rows gathered once, the query subtracted
and the moduli squared in place, one weighted reduction over the half
spectra.  It gathers one query row per pair, or broadcasts a one-row query
matrix; ``exact_distances`` runs it that way, in blocks of at most
``PAIR_BLOCK * ABANDON_CHUNK`` coefficients.  The reference is the scalar
one, ``record_distance``, pair by pair, as is the (row, column) gather of
the abandoning rounds.  Every differential asks for the same thing:

    kernel == reference, bit for bit (compared with ``tobytes()``)

whatever the relation's lengths, the statistics term, the transformation,
the rows asked for (all, none, unsorted, repeated), the memory layout of the
arrays or the block size.  The file also pins the exact pass's memory: a
scan whose radius covers the relation holds one block, not the relation.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_abandon_order import drawn, fresh_record, record, relation, relations

from repro import SequentialScan
from repro.storage import columnar
from repro.storage.columnar import (
    Records,
    exact_distances,
    gathered_pair_distances,
    half_width,
    query_records,
)
from repro.timeseries.features import record_distance
from repro.timeseries.generators import random_walk_collection


# ----------------------------------------------------------------------
# the references: the scalar distance, and the replaced gather verbatim
# ----------------------------------------------------------------------
def reference_gather_columns(matrix, rows, cols):
    """``matrix[rows[:, None], cols]``, a fresh array.

    numpy's (row, column) gather costs about twice a copy of the columns
    followed by a row take, so it goes that way when the matrix has no more
    rows than are gathered: the copy is then no larger than the result, and
    no temporary outgrows the gather.
    """
    if matrix.shape[0] <= rows.size:
        return matrix.take(cols, axis=1).take(rows, axis=0)
    return matrix[rows[:, None], cols]


def stored_record(coefficients, lengths, means, stds, row):
    """Row ``row`` of the arrays as a ``(coefficients, mean, std, length)``
    record: its stored half."""
    length = int(lengths[row])
    return coefficients[row, : half_width(length)], means[row], stds[row], length


def reference_exact_distances(
    coefficients,
    lengths,
    means,
    stds,
    query_coefficients,
    query_mean,
    query_std,
    query_length,
    include_stats,
    *,
    row_ids=None,
):
    """Exact record distances of many rows to one query record:
    :func:`~repro.timeseries.features.record_distance`, row by row."""
    rows = range(coefficients.shape[0]) if row_ids is None else row_ids.tolist()
    query = (query_coefficients, query_mean, query_std, query_length)
    return np.array(
        [
            record_distance(
                stored_record(coefficients, lengths, means, stds, row), query, include_stats
            )
            for row in rows
        ],
        dtype=np.float64,
    )


def reference_gathered_pair_distances(
    coefficients, lengths, means, stds, include_stats, row_ids, queries, query_index
):
    """One exact distance per (stored row, query record) pair:
    :func:`~repro.timeseries.features.record_distance`, pair by pair."""
    return np.array(
        [
            record_distance(
                stored_record(coefficients, lengths, means, stds, row),
                queries[query],
                include_stats,
            )
            for row, query in zip(row_ids.tolist(), query_index.tolist())
        ],
        dtype=np.float64,
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
#: How the rows of a call are picked: every row (``row_ids=None``), none,
#: a shuffled subset, or a subset with repeats.
PICKS = ("all", "empty", "unsorted", "repeated")

#: How the stored arrays are laid out: as the store holds them, every other
#: row of them (a strided view), or column-major.  The replaced kernels
#: reduced in the memory order of their input, so on a column-major matrix
#: they summed a row's squares one by one, not pairwise as
#: ``record_distance`` does; the kernel gathers rows first and sums every
#: layout as the store's row-major one.  Column-major arrays are therefore
#: checked against the reference over a row-major copy (:func:`row_major`);
#: no caller passes one.
LAYOUTS = ("store", "strided", "fortran")


def laid_out(arrays, layout):
    coefficients, lengths, means, stds = arrays
    if layout == "strided":
        return coefficients[::2], lengths[::2], means[::2], stds[::2]
    if layout == "fortran":
        return np.asfortranarray(coefficients), lengths, means, stds
    return arrays


def row_major(arrays):
    return (np.ascontiguousarray(arrays[0]), *arrays[1:])


def picked(count, pick, rng):
    if pick == "all":
        return None
    if pick == "empty":
        return np.zeros(0, dtype=np.intp)
    if pick == "unsorted":
        return rng.permutation(count)[: rng.integers(1, count + 1)].astype(np.intp)
    return rng.integers(0, count, int(rng.integers(1, 3 * count + 1))).astype(np.intp)


def budget_for(rows, columns):
    """A ``PAIR_BLOCK`` whose exact blocks hold ``rows`` rows of ``columns``
    coefficients — or up to :func:`slack` more, the budget's unit being
    ``ABANDON_CHUNK`` coefficients."""
    return -(-rows * columns // columnar.ABANDON_CHUNK)


def slack(columns):
    """The rows beyond ``rows`` a block of :func:`budget_for` may hold: one,
    or ``ABANDON_CHUNK // columns`` when a row is narrower than a unit."""
    return max(1, columnar.ABANDON_CHUNK // max(1, columns))


def same_bits(found, expected):
    assert found.dtype == expected.dtype
    assert found.shape == expected.shape
    assert found.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# exact_distances
# ----------------------------------------------------------------------
class TestExactDistances:
    @settings(max_examples=80, deadline=None)
    @given(
        case=relations,
        query_pick=st.integers(-1, 39),
        pick=st.sampled_from(PICKS),
        layout=st.sampled_from(LAYOUTS),
        rows=st.sampled_from([1, 7, 64, None]),
    )
    def test_property(self, case, query_pick, pick, layout, rows):
        """Bits equal the one-call reference for every pick of rows, layout
        and block size; blocks hold the rows the budget allows."""
        arrays = laid_out(drawn(case), layout)
        count = arrays[0].shape[0]
        rng = np.random.default_rng(case["seed"])
        if query_pick < 0:
            query = fresh_record(int(rng.integers(2, 40)), rng)
        else:
            query = record(arrays, query_pick % count)
        row_ids = picked(count, pick, rng)
        include_stats = case["include_stats"]
        # The most columns a pair is scored over: the stored halves of two
        # records of one length, else the common prefix of whole spectra.
        asked = np.arange(count) if row_ids is None else row_ids
        plan = columnar._plan(Records(*arrays), asked, query_records([query]), 0)
        columns = columnar._widest(plan)
        sizes = []

        def counting(*args):
            sizes.append(args[1].size)
            return gathered_pair_distances(*args)

        block = columnar.PAIR_BLOCK if rows is None else budget_for(rows, columns)
        with mock.patch.object(columnar, "PAIR_BLOCK", block):
            with mock.patch.object(columnar, "gathered_pair_distances", counting):
                found = exact_distances(
                    Records(*arrays), query_records([query]), include_stats, row_ids=row_ids
                )
        expected = reference_exact_distances(
            *row_major(arrays), *query, include_stats, row_ids=row_ids
        )
        same_bits(found, expected)
        asked = count if row_ids is None else row_ids.size
        assert sum(sizes) == asked
        if rows is not None and asked > rows:
            assert rows <= sizes[0] <= rows + slack(columns)
            assert len(sizes) == -(-asked // sizes[0])

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("pick", PICKS)
    def test_blocks_of_a_larger_relation(self, rows, pick):
        """300 rows of 64 columns, many blocks deep."""
        arrays = relation([128] * 300, seed=rows)
        query = fresh_record(128, np.random.default_rng(rows))
        row_ids = picked(300, pick, np.random.default_rng(pick.encode()[0]))
        for include_stats in (True, False):
            with mock.patch.object(columnar, "PAIR_BLOCK", budget_for(rows, 64)):
                found = exact_distances(
                    Records(*arrays), query_records([query]), include_stats, row_ids=row_ids
                )
            same_bits(
                found, reference_exact_distances(*arrays, *query, include_stats, row_ids=row_ids)
            )

    def test_queries_wider_and_narrower_than_the_matrix(self):
        arrays = relation([17, 16, 33, 32] * 10, seed=5)
        for length in (1, 6, 33, 64):
            query = fresh_record(length, np.random.default_rng(length))
            with mock.patch.object(columnar, "PAIR_BLOCK", 3):
                found = exact_distances(Records(*arrays), query_records([query]), True)
            same_bits(found, reference_exact_distances(*arrays, *query, True))

    def test_an_empty_relation(self):
        arrays = (
            np.zeros((0, 0), dtype=np.complex128),
            np.zeros(0, dtype=np.intp),
            np.zeros(0),
            np.zeros(0),
        )
        query = fresh_record(16, np.random.default_rng(0))
        same_bits(
            exact_distances(Records(*arrays), query_records([query]), True),
            reference_exact_distances(*arrays, *query, True),
        )

    def test_the_store_is_left_as_it_was(self):
        """The subtraction is in place, on a gathered copy only."""
        arrays = relation([33] * 40, seed=6)
        before = [array.copy() for array in arrays]
        query = fresh_record(33, np.random.default_rng(6))
        with mock.patch.object(columnar, "PAIR_BLOCK", 4):
            exact_distances(Records(*arrays), query_records([query]), True)
            exact_distances(
                Records(*arrays), query_records([query]), True, row_ids=np.arange(40)[::-1].copy()
            )
        for array, copy in zip(arrays, before):
            assert array.tobytes() == copy.tobytes()


# ----------------------------------------------------------------------
# gathered_pair_distances
# ----------------------------------------------------------------------
def pair_arguments(arrays, queries, pairs, rng):
    """``gathered_pair_distances``' arguments: ``pairs`` random (row, query)
    pairs against the stacked ``queries``."""
    count = arrays[0].shape[0]
    stacked = query_records(queries)
    row_ids = rng.integers(0, count, pairs).astype(np.intp)
    query_index = rng.integers(0, len(queries), pairs).astype(np.intp)
    return row_ids, stacked.coefficients, stacked.lengths, stacked.means, stacked.stds, query_index


class TestGatheredPairDistances:
    @settings(max_examples=80, deadline=None)
    @given(
        case=relations,
        picks=st.lists(st.integers(-1, 39), min_size=1, max_size=5),
        pairs=st.integers(0, 60),
        layout=st.sampled_from(LAYOUTS),
        query_layout=st.sampled_from(["stacked", "strided", "sliced"]),
    )
    def test_property(self, case, picks, pairs, layout, query_layout):
        """One-row matrices (broadcast) and many-row ones (gathered), stored
        and fresh queries, contiguous and strided arrays on both sides."""
        arrays = laid_out(drawn(case), layout)
        count = arrays[0].shape[0]
        rng = np.random.default_rng(case["seed"])
        queries = [
            record(arrays, pick % count)
            if pick >= 0
            else fresh_record(rng.choice(arrays[1]) + 1, rng)
            for pick in picks
        ]
        row_ids, matrix, *query_side, query_index = pair_arguments(arrays, queries, pairs, rng)
        if query_layout == "strided":
            # Every query twice, read through every other row.
            matrix = np.repeat(matrix, 2, axis=0)[::2]
        elif query_layout == "sliced":
            # The pair kernel's form: the anchors' columns of a wider matrix.
            matrix = np.pad(matrix, ((0, 0), (0, 3)))[:, : matrix.shape[1]]
        arguments = (case["include_stats"], row_ids, queries, query_index)
        same_bits(
            gathered_pair_distances(
                Records(*arrays),
                row_ids,
                Records(matrix, *query_side),
                query_index,
                case["include_stats"],
            ),
            reference_gathered_pair_distances(*row_major(arrays), *arguments),
        )

    def test_a_one_row_matrix_is_a_probe(self):
        """Broadcast against every pair: the bits of the gathered pass, and
        of ``exact_distances`` over the same rows."""
        arrays = relation([17, 16, 33, 32] * 10, seed=7)
        query = fresh_record(30, np.random.default_rng(7))
        row_ids, matrix, *query_side, query_index = pair_arguments(
            arrays, [query], 50, np.random.default_rng(8)
        )
        for include_stats in (True, False):
            arguments = (*arrays, include_stats, row_ids, [query], query_index)
            found = gathered_pair_distances(
                Records(*arrays), row_ids, Records(matrix, *query_side), query_index, include_stats
            )
            same_bits(found, reference_gathered_pair_distances(*arguments))
            same_bits(
                found,
                exact_distances(
                    Records(*arrays), query_records([query]), include_stats, row_ids=row_ids
                ),
            )


# ----------------------------------------------------------------------
# the abandoning rounds' gather
# ----------------------------------------------------------------------
class TestGatherColumns:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 20)),
        rows=st.integers(0, 80),
        cols=st.integers(0, 8),
        layout=st.sampled_from(["contiguous", "strided", "sliced", "fortran"]),
        seed=st.integers(0, 2**16),
    )
    def test_property(self, shape, rows, cols, layout, seed):
        """The same elements, shape and dtype as the (row, column) gather,
        from matrices with fewer and more rows than are gathered."""
        rng = np.random.default_rng(seed)
        size = (2 * shape[0], shape[1] + 2)
        base = rng.normal(size=size) + 1j * rng.normal(size=size)
        matrix = {
            "contiguous": np.ascontiguousarray(base[: shape[0], : shape[1]]),
            "strided": base[::2, : shape[1]],
            "sliced": base[: shape[0], : shape[1]],
            "fortran": np.asfortranarray(base[: shape[0], : shape[1]]),
        }[layout]
        row_ids = rng.integers(0, shape[0], rows).astype(np.intp)
        col_ids = rng.integers(0, shape[1], cols).astype(np.intp)
        found = Records(matrix, None, None, None).gather(row_ids, col_ids)
        same_bits(found, reference_gather_columns(matrix, row_ids, col_ids))
        assert not np.shares_memory(found, matrix)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
class TestTheExactPassHoldsABlock:
    """A scan whose radius covers the relation scores every row exactly.
    The exact pass used to copy every row at full width and then hold the
    temporaries of ``np.abs(rows - query) ** 2`` beside the copy: a peak of
    14.6 MiB over 3 000 walks of 128 points (2.4 times their spectra), and
    8.7 MiB for a k-NN scan.  It now holds one block of
    ``PAIR_BLOCK * ABANDON_CHUNK`` coefficients and its moduli at a time.
    Counted with ``tracemalloc``, not timed."""

    #: Two pruning-round gathers (1 MB each at the shipped block size): the
    #: exact block and its moduli, the answers and their ids.
    BOUND = 2 * columnar.PAIR_BLOCK * columnar.ABANDON_CHUNK * 16

    @pytest.fixture(scope="class")
    def scan(self):
        data = random_walk_collection(3000, 128, seed=35)
        scan = SequentialScan()
        scan.extend(data)
        return scan, data

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_range_covering_the_relation(self, scan):
        scan, data = scan
        result, peak = self.peak(lambda: scan.range_query(data[0], 1000.0))
        assert len(result.answers) == len(data)
        assert peak < self.BOUND

    def test_nearest_neighbours(self, scan):
        scan, data = scan
        result, peak = self.peak(lambda: scan.nearest_neighbors(data[0], 10))
        assert result.answers[0][0] is data[0]
        assert peak < self.BOUND
