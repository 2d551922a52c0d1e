"""A lone range query pays only for itself: its extraction and its
verification, against the batch-shaped forms they replaced.

Extraction computes a series' mean and deviation by the reductions that
``np.mean`` and ``np.std`` run, and a single record's point without a record
set; the references kept here are the two numpy calls and the extraction
that went through :meth:`SeriesFeatureExtractor.points_of`.  Verification of
a batch of one query calls :func:`verify_pairs` in its broadcast form (no
query index), which scores a block's survivors by
:func:`gathered_pair_distances` under the plan the block already holds.
Every comparison is bit for bit: answer positions, distance bits, points,
coefficients and statistics.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_half_spectrum import bits, mirror_breaking

from repro import SeriesFeatureExtractor, TimeSeries
from repro.core.objects import FeatureVector
from repro.storage import columnar
from repro.storage.columnar import (
    ColumnarRecordStore,
    Records,
    gathered_pair_distances,
    half_width,
    query_record,
    query_records,
    verify_pairs,
)
from repro.timeseries import dft as dft_module
from repro.timeseries.features import SeriesFeatures
from repro.timeseries.generators import random_walk
from repro.timeseries.normalform import normal_form_values
from repro.timeseries.transforms import moving_average_spectral


# ----------------------------------------------------------------------
# the references
# ----------------------------------------------------------------------
def reference_normal_form(values):
    """The normal form as numpy's statistics functions give it."""
    array = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(array))
    std = float(np.std(array))
    if std == 0.0:
        return np.zeros_like(array), mean, std
    return (array - mean) / std, mean, std


def reference_extract(extractor, series):
    """The extraction as it was: numpy's statistics, and the point taken
    from a one-record set."""
    values, mean, std = reference_normal_form(series.values)
    length = values.shape[0] - 1
    half = dft_module.dft(values)[1 : 1 + half_width(length)].copy()
    point = extractor.points_of(
        Records(half[None, :], np.array([length]), np.array([mean]), np.array([std]))
    )[0]
    return SeriesFeatures(
        point=FeatureVector(point), full_coefficients=half, mean=mean, std=std, length=length
    )


def same_features(got, want):
    assert got.point.values.tobytes() == want.point.values.tobytes()
    assert got.full_coefficients.tobytes() == want.full_coefficients.tobytes()
    assert (got.mean, got.std, got.length) == (want.mean, want.std, want.length)


def drawn_values(values, constant, offset):
    """``values`` (or its first value repeated), moved by ``offset``."""
    if constant:
        values = values[:1].repeat(values.size)
    return values + offset


#: Series values: ragged lengths from one value up, constant series, and
#: values far from zero, where the mean's rounding decides the deviations.
series_values = st.builds(
    drawn_values,
    arrays(
        np.float64,
        st.integers(1, 160),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    st.booleans(),
    st.sampled_from([0.0, 1e6, -1e6, 0.5]),
)


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------
class TestExtractionBits:
    @settings(max_examples=300, deadline=None)
    @given(values=series_values)
    def test_the_normal_form_is_numpys(self, values):
        normal, mean, std = normal_form_values(values)
        want_normal, want_mean, want_std = reference_normal_form(values)
        assert mean == float(np.mean(values)) == want_mean
        assert std == float(np.std(values)) == want_std
        assert normal.tobytes() == want_normal.tobytes()

    def test_edge_series(self):
        for values in ([5.0], [7.5] * 9, [1e6, 1e6 + 1e-9, 1e6], [0.0, -0.0]):
            normal, mean, std = normal_form_values(np.array(values))
            want_normal, want_mean, want_std = reference_normal_form(values)
            assert (mean, std) == (want_mean, want_std)
            assert normal.tobytes() == want_normal.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        batch=st.lists(series_values, min_size=1, max_size=6),
        coefficients=st.integers(1, 5),
        representation=st.sampled_from(["polar", "rectangular"]),
        include_stats=st.booleans(),
    )
    def test_extract_is_its_row_of_extract_many(
        self, batch, coefficients, representation, include_stats
    ):
        """One series' features are the old extraction's and their row of
        the batch form's — also for series shorter than the indexed prefix,
        whose point is zero past their length."""
        extractor = SeriesFeatureExtractor(coefficients, representation, include_stats)
        series = [TimeSeries(values) for values in batch]
        points, matrix, lengths, means, stds = extractor.extract_many(series)
        for row, one in enumerate(series):
            features = extractor.extract(one)
            same_features(features, reference_extract(extractor, one))
            assert features.point.values.tobytes() == points[row].tobytes()
            stored = half_width(int(lengths[row]))
            assert features.full_coefficients.tobytes() == matrix[row, :stored].tobytes()
            assert (features.mean, features.std) == (means[row], stds[row])

    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    def test_points_past_the_stored_half(self, representation):
        """Series of 1–10 values under prefixes of 1–5 coefficients: the
        point reads the mirrored conjugates past the stored half, and zeros
        past the series' length."""
        rng = np.random.default_rng(4)
        for coefficients in range(1, 6):
            extractor = SeriesFeatureExtractor(coefficients, representation)
            series = [TimeSeries(rng.normal(size=size)) for size in range(1, 11)]
            points = extractor.extract_many(series)[0]
            for row, one in enumerate(series):
                features = extractor.extract(one)
                same_features(features, reference_extract(extractor, one))
                assert features.point.values.tobytes() == points[row].tobytes()

    @pytest.mark.parametrize("name", ["none", "mavg10", "skew"])
    def test_the_probes_query_record_is_unchanged(self, name):
        transformation = {
            "none": None,
            "mavg10": moving_average_spectral(128, 10),
            "skew": mirror_breaking(128),
        }[name]
        extractor = SeriesFeatureExtractor(3)
        for seed in range(20):
            series = random_walk(128, seed=seed)
            got = query_record(extractor.extract(series), transformation)
            want = query_record(reference_extract(extractor, series), transformation)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1:] == want[1:]


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
#: Relations: one length, ragged lengths (odd and even), and one length
#: under a moving average and under a map that breaks the mirror.
RELATIONS = {
    "uniform": ([32] * 90, None),
    "ragged": ([16, 33, 24, 32, 17] * 18, None),
    "mavg10": ([32] * 90, lambda: moving_average_spectral(32, 10)),
    "skew": ([32] * 90, lambda: mirror_breaking(32)),
}


def relation(name, seed):
    """``(records, data, transformation)`` of a relation of :data:`RELATIONS`."""
    lengths, make = RELATIONS[name]
    rng = np.random.default_rng(seed)
    data = [random_walk(length, seed=rng) for length in lengths]
    store = ColumnarRecordStore()
    store.extend(data)
    transformation = make() if make else None
    return store.records(transformation), data, transformation


def query_set(extractor, queries, transformation):
    return query_records(
        [query_record(extractor.extract(query), transformation) for query in queries]
    )


class TestOneQueryVerification:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(RELATIONS)),
        seed=st.integers(0, 2**16),
        include_stats=st.booleans(),
        rank=st.integers(0, 89),
        block=st.sampled_from([1, 7, 64, 8192]),
    )
    def test_the_broadcast_form_is_the_indexed_one(self, name, seed, include_stats, rank, block):
        """Candidates drawn with repeats, at a threshold on one of their
        distances: ``query_index=None`` with a 1-tuple of thresholds keeps
        the positions and distance bits of a zeros index with one threshold
        per query, at block sizes that run abandoning rounds or none."""
        records, data, transformation = relation(name, seed)
        rng = np.random.default_rng(seed + 1)
        query = data[int(rng.integers(len(data)))]
        queries = query_set(SeriesFeatureExtractor(2), [query], transformation)
        ids = rng.integers(0, len(data), size=int(rng.integers(1, 200)))
        every = gathered_pair_distances(records, ids, queries, None, include_stats)
        epsilon = float(np.sort(every)[rank % every.size])
        zeros = np.zeros(ids.size, dtype=np.intp)
        with mock.patch.object(columnar, "PAIR_BLOCK", block):
            positions, distances = verify_pairs(
                records, ids, queries, None, (epsilon,), include_stats
            )
            want_positions, want_distances = verify_pairs(
                records, ids, queries, zeros, np.array([epsilon]), include_stats
            )
        assert positions.tolist() == want_positions.tolist()
        assert bits(distances) == bits(want_distances)
        assert positions.tolist() == np.flatnonzero(every <= epsilon).tolist()
        assert bits(distances) == bits(every[positions])

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    @pytest.mark.parametrize("include_stats", [True, False])
    def test_the_exact_scorer_under_the_blocks_plan(self, name, include_stats):
        """The exact scorer under a block's plan, and under that plan cut to
        a slice of the block, equals the scorer planning the pairs itself —
        for one query broadcast and for a batch of queries of differing
        lengths, where the plan is per pair."""
        records, data, transformation = relation(name, 61)
        rng = np.random.default_rng(62)
        extractor = SeriesFeatureExtractor(2)
        ids = rng.integers(0, len(data), size=150)
        one = query_set(extractor, [data[5]], transformation)
        lengths = {len(series) for series in data}
        batch = query_set(
            extractor,
            [random_walk(length, seed=rng) for length in sorted(lengths)] + data[:2],
            transformation,
        )
        for queries, index in ((one, None), (batch, rng.integers(0, batch.size, size=150))):
            plan = columnar._plan(records, ids, queries, 0 if index is None else index)
            got = gathered_pair_distances(records, ids, queries, index, include_stats, plan)
            want = gathered_pair_distances(records, ids, queries, index, include_stats)
            assert bits(got) == bits(want)
            for pairs in (slice(0, 1), slice(10, 70), slice(149, None)):
                cut = columnar._cut(plan, pairs)
                part = None if index is None else index[pairs]
                got = gathered_pair_distances(
                    records, ids[pairs], queries, part, include_stats, cut
                )
                want = gathered_pair_distances(records, ids[pairs], queries, part, include_stats)
                assert bits(got) == bits(want)
