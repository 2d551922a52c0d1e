"""Differentials for transformations applied to the rows a kernel gathers.

Under a spectral transformation every refine kernel of
:mod:`repro.storage.columnar` — the scan range, k-index verification and
k-NN, the scan join, the pairwise sampler — reads the store's record set,
its base arrays with a :class:`~repro.storage.columnar.RecordMap`, and maps
each block of rows in place as it gathers it (``*= multiplier; += offset``, the statistics
``* extra_multiplier + extra_offset``).  Before, the store built a
transformed copy of the whole relation per transformation and the kernels
read that.  The copy's build lives on here as the reference
(:func:`transformed_arrays`), and :func:`reading_the_matrix` runs any query
path over it the way the kernels used to.  Every differential asks for

    answers == the transformed matrix's, ids and distance bits

on uniform and ragged relations (where the padding carries the offsets),
under a moving average, the sign reversal (an extra multiplier of -1) and a
transformation with a non-zero coefficient offset.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro import KIndex, SequentialScan, SeriesFeatureExtractor
from repro.index import kindex as kindex_module
from repro.storage import columnar
from repro.storage.columnar import (
    Records,
    exact_distances,
    half_width,
    pairwise_distances,
    query_records,
    transform_full_record,
    whole_spectrum,
)
from repro.timeseries.generators import random_walk
from repro.timeseries.transforms import (
    SpectralTransformation,
    moving_average_spectral,
    reverse_spectral,
)


# ----------------------------------------------------------------------
# the reference: the transformed matrix
# ----------------------------------------------------------------------
def transformed_records(store, transformation):
    """Every stored record under a spectral transformation, as a record set
    that maps nothing, built as the store used to build its transformed
    matrix: the product is the result and the offset is added in place, the
    statistics mapped as one stacked block.  A record the map keeps a half
    (it ``keeps_mirror``, and the record has its length) is mapped as one;
    any other is made whole first and flagged whole.  ``None`` returns the
    base record set."""
    if transformation is None:
        return store.records()
    lengths = store.lengths
    halves = transformation.keeps_mirror & (lengths + 1 == transformation.length)
    width = store.coefficients.shape[1] if halves.all() else int(lengths.max(initial=0))
    coefficients = np.zeros((len(store), width), dtype=np.complex128)
    coefficients[:, : store.coefficients.shape[1]] = store.coefficients
    for row in np.flatnonzero(~halves).tolist():
        stored, _, _, length = store.full_record(row)
        coefficients[row, :length] = whole_spectrum(stored, length)
    coefficients *= transformation.multiplier[1 : 1 + width]
    coefficients += transformation.offset[1 : 1 + width]
    extra = np.stack([store.means, store.stds], axis=1)
    extra = extra * transformation.extra_multiplier + transformation.extra_offset
    return Records(
        coefficients,
        lengths,
        extra[:, 0].copy(),
        extra[:, 1].copy(),
        whole=None if halves.all() else ~halves,
    )


def record_of_row(records, row):
    """Row ``row`` of a record set that maps nothing as a ``(coefficients,
    mean, std, length)`` record: its stored half, or all of a whole row."""
    length = int(records.lengths[row])
    whole = records.whole is not None and records.whole[row]
    stored = length if whole else half_width(length)
    return records.coefficients[row, :stored], records.means[row], records.stds[row], length


def transformed_arrays(store, transformation):
    """``(coefficients, means, stds)`` of :func:`transformed_records`, for a
    relation the transformation keeps in halves."""
    records = transformed_records(store, transformation)
    assert records.whole is None
    return records.coefficients, records.means, records.stds


class MatrixStore:
    """A store that serves the transformed matrix as its record set and maps
    nothing: a query over it runs its kernels as they ran over the copy."""

    def __init__(self, store, transformation):
        self._store = store
        self._transformation = transformation
        self._records = transformed_records(store, transformation)

    def records(self, transformation=None):
        assert transformation is self._transformation
        return self._records

    def __len__(self):
        return len(self._store)

    def __getattr__(self, name):
        return getattr(self._store, name)


@contextmanager
def reading_the_matrix(owner, transformation):
    """``owner`` (an index or a scan) reads the transformed matrix."""
    store = owner.store
    owner.store = MatrixStore(store, transformation)
    try:
        yield
    finally:
        owner.store = store


# ----------------------------------------------------------------------
# relations and transformations
# ----------------------------------------------------------------------
#: The longest series of every relation: the transformations' length.
LENGTH = 64


def offset_spectral(length):
    """A real multiplier (safe for a rectangular index) with a complex offset
    on every coefficient, and moved statistics."""
    rng = np.random.default_rng(23)
    offset = (rng.normal(size=length) + 1j * rng.normal(size=length)) * 0.5
    return SpectralTransformation(
        rng.uniform(0.8, 1.2, length),
        offset,
        extra_multiplier=(1.5, 0.5),
        extra_offset=(0.25, -0.1),
        name="offset",
    )


#: name -> (transformation, the index representation it is safe for).
TRANSFORMATIONS = {
    "mavg10": (moving_average_spectral(LENGTH, 10), "polar"),
    "reverse": (reverse_spectral(LENGTH), "polar"),
    "offset": (offset_spectral(LENGTH), "rectangular"),
}


def walks(ragged, count=360, seed=31):
    """Random walks, all ``LENGTH`` long or of lengths from 40 to ``LENGTH``."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(40, LENGTH + 1, count) if ragged else [LENGTH] * count
    return [random_walk(int(length), seed=rng) for length in lengths]


def hexed(answers):
    return [(series.object_id, float(distance).hex()) for series, distance in answers]


def bits(values):
    return [value.hex() for value in values.tolist()]


def threshold(owner, query, transformation, rank):
    """The ``rank``-th smallest distance of the transformed query to the
    transformed relation: a threshold some row lies exactly on."""
    store = owner.store
    full = transform_full_record(*record_of(owner, query), transformation)
    distances = exact_distances(
        transformed_records(store, transformation), query_records([full]), True
    )
    return float(np.sort(distances)[rank])


def record_of(owner, series):
    features = owner.extractor.extract(series)
    return features.full_coefficients, features.mean, features.std, features.length


@pytest.fixture(params=[False, True], ids=["uniform", "ragged"])
def data(request):
    return walks(request.param)


@pytest.fixture(params=sorted(TRANSFORMATIONS))
def case(request):
    return TRANSFORMATIONS[request.param]


@pytest.fixture(params=[None, 96], ids=["block", "small-block"])
def block(request, monkeypatch):
    """The shipped pair block, or one small enough that every path runs
    several blocks, abandoning rounds and exact slices."""
    if request.param is not None:
        monkeypatch.setattr(columnar, "PAIR_BLOCK", request.param)


# ----------------------------------------------------------------------
# the k-index
# ----------------------------------------------------------------------
class TestIndex:
    def test_range_batches(self, data, case, block):
        transformation, representation = case
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2, representation=representation))
        queries = data[::60] + walks(False, count=2, seed=5)
        epsilons = [threshold(index, query, transformation, 25) for query in queries]

        def answers():
            results = index.range_query_batch(queries, epsilons, transformation=transformation)
            return [hexed(result.answers) for result in results]

        found = answers()
        with reading_the_matrix(index, transformation):
            assert found == answers()
        assert all(len(answer) >= 20 for answer in found)

    def test_nearest_with_an_open_tail(self, data, case, block):
        transformation, representation = case
        extractor = SeriesFeatureExtractor(2, representation=representation)
        index = KIndex.bulk_load(data[:-24], extractor)
        index.extend(data[-24:])
        assert index.tail_rows == 24 < kindex_module.SEAL_MIN_ROWS
        queries = data[::45] + data[-3:] + walks(False, count=2, seed=6)

        def answers():
            return [
                hexed(index.nearest_neighbors(query, 7, transformation=transformation).answers)
                for query in queries
            ]

        found = answers()
        with reading_the_matrix(index, transformation):
            assert found == answers()


# ----------------------------------------------------------------------
# the scan
# ----------------------------------------------------------------------
def build_scan(data, representation, workers=1):
    extractor = SeriesFeatureExtractor(2, representation=representation)
    scan = SequentialScan(extractor, workers=workers, partition_rows=64)
    scan.extend(data)
    return scan


class TestScan:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_range(self, data, case, block, workers):
        transformation, representation = case
        scan = build_scan(data, representation, workers)
        queries = data[::90] + walks(False, count=2, seed=7)
        epsilons = [threshold(scan, query, transformation, 30) for query in queries]

        def answers(early_abandon):
            return [
                hexed(
                    scan.range_query(
                        query, epsilon, transformation=transformation, early_abandon=early_abandon
                    ).answers
                )
                for query, epsilon in zip(queries, epsilons)
            ]

        for early_abandon in (True, False):
            found = answers(early_abandon)
            with reading_the_matrix(scan, transformation):
                assert found == answers(early_abandon)
            assert all(len(answer) >= 30 for answer in found)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nearest(self, data, case, workers):
        transformation, representation = case
        scan = build_scan(data, representation, workers)
        queries = data[::120] + walks(False, count=1, seed=8)

        def answers():
            return [
                hexed(scan.nearest_neighbors(query, 5, transformation=transformation).answers)
                for query in queries
            ]

        found = answers()
        with reading_the_matrix(scan, transformation):
            assert found == answers()

    @pytest.mark.parametrize("early_abandon", [True, False])
    def test_join(self, data, case, block, early_abandon):
        transformation, representation = case
        scan = build_scan(data[:160], representation)
        store = scan.store
        sample = np.sort(pairwise_distances(transformed_records(store, transformation), True))
        epsilon = float(sample[sample.size // 50])

        def pairs():
            found, _ = scan.all_pairs(
                epsilon, transformation=transformation, early_abandon=early_abandon
            )
            return [(a.object_id, b.object_id, distance.hex()) for a, b, distance in found]

        found = pairs()
        with reading_the_matrix(scan, transformation):
            assert found == pairs()
        assert len(found) >= sample.size // 50


# ----------------------------------------------------------------------
# the kernels called directly
# ----------------------------------------------------------------------
class TestKernels:
    @pytest.mark.parametrize("sampled", [False, True])
    def test_pairwise_distances(self, data, case, block, sampled):
        transformation, _ = case
        scan = build_scan(data[:150], "polar")
        store = scan.store
        row_ids = np.random.default_rng(3).permutation(150)[:90] if sampled else None
        found = pairwise_distances(store.records(transformation), True, row_ids=row_ids)
        expected = pairwise_distances(
            transformed_records(store, transformation), True, row_ids=row_ids
        )
        assert bits(found) == bits(expected)

    @pytest.mark.parametrize("include_stats", [True, False])
    def test_exact_distances(self, data, case, block, include_stats):
        transformation, _ = case
        scan = build_scan(data, "polar")
        store = scan.store
        row_ids = np.random.default_rng(4).permutation(len(data))[:200]
        matrix = transformed_records(store, transformation)
        for query in (data[7], walks(False, count=1, seed=9)[0]):
            full = query_records([transform_full_record(*record_of(scan, query), transformation)])
            for rows in (None, row_ids):
                found = exact_distances(
                    store.records(transformation), full, include_stats, row_ids=rows
                )
                expected = exact_distances(matrix, full, include_stats, row_ids=rows)
                assert bits(found) == bits(expected)

    def test_a_map_keeps_nothing_on_the_store(self, case):
        transformation, _ = case
        scan = build_scan(walks(True, count=40), "polar")
        before = dict(vars(scan.store))
        mapping = scan.store.records(transformation).mapping
        assert not mapping.multiplier.flags.owndata  # a view of the transformation's
        # A zero offset is never added (``None``); a non-zero one is a view.
        assert (mapping.offset is None) == (not transformation.offset[1:].any())
        scan.range_query(scan.store.series(0), 5.0, transformation=transformation)
        assert vars(scan.store).keys() == before.keys()
        assert all(vars(scan.store)[name] is value for name, value in before.items())
