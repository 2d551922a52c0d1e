"""A scan's k-NN is multi-step, and answers as the full-width loop did.

``SequentialScan.nearest_neighbors`` used to score every row of a span at
full width and keep the stable top ``k``.  Each span now ranks its rows by a
one-gather lower bound, scores the ``k`` smallest exactly, and hands the
largest of their distances to the refine kernel as a threshold: the rows
within it come back exactly scored, the rest are abandoned.  That loop is
kept here as the reference: answers, their order and their distance bits
must be its own, at one worker and at two, on ragged relations and under
transformations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SequentialScan,
    SeriesFeatureExtractor,
    TimeSeries,
    moving_average_spectral,
    random_walk,
    random_walk_collection,
)
from repro.storage import columnar
from repro.storage.columnar import exact_distances
from repro.timeseries.transforms import reverse_spectral


def reference_nearest(scan, query, k, transformation=None, transform_query=True):
    """The scan's k-NN as it was: every row scored at full width by
    ``exact_distances``, the stable top ``k`` as ``(row, distance)``."""
    queries = scan._query(query, transformation, transform_query)
    records = scan.store.records(transformation)
    distances = exact_distances(records, queries, scan.extractor.include_stats)
    order = np.argsort(distances, kind="stable")[:k]
    return [(int(row), distances[row].tobytes()) for row in order]


def _walks(count, seed, ragged, distinct):
    """``count`` walks of 64 points, or of cycling lengths 64/48/32 when
    ``ragged``; with ``distinct`` only that many different walks, repeated,
    so ties straddle the cut."""
    rng = np.random.default_rng(seed)
    lengths = (64, 48, 32) if ragged else (64,)
    unique = [
        random_walk(lengths[i % len(lengths)], seed=int(rng.integers(0, 2**31)))
        for i in range(distinct or count)
    ]
    return [TimeSeries(unique[i % len(unique)].values, name=f"s{i}") for i in range(count)]


def _answers(scan, result):
    rows = {id(series): row for row, series in enumerate(scan.store.series_list())}
    return [(rows[id(series)], np.float64(distance).tobytes()) for series, distance in result]


class TestTheScansNearestIsTheFullWidthLoop:
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(0, 70),
        ragged=st.booleans(),
        distinct=st.sampled_from([None, 5]),
        transformation=st.sampled_from([None, "mavg10", "reverse"]),
        transform_query=st.booleans(),
        include_stats=st.booleans(),
        k=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_answers_and_bits_at_one_and_two_workers(
        self, seed, count, ragged, distinct, transformation, transform_query, include_stats, k
    ):
        data = _walks(count, seed, ragged, distinct)
        transformation = {
            None: None,
            "mavg10": moving_average_spectral(64, 10),
            "reverse": reverse_spectral(64),
        }[transformation]
        extractor = SeriesFeatureExtractor(2, include_stats=include_stats)
        queries = [random_walk(64, seed=seed + 1)] + data[:2]
        for workers in (1, 2):
            scan = SequentialScan(extractor, workers=workers, partition_rows=7)
            scan.extend(data)
            for query in queries:
                result = scan.nearest_neighbors(
                    query, k, transformation=transformation, transform_query=transform_query
                )
                want = reference_nearest(scan, query, k, transformation, transform_query)
                assert _answers(scan, result.answers) == want
                work = result.statistics
                assert work.candidates == work.postprocessed == count

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_the_exact_pass_scores_a_few_rows(self, k, monkeypatch):
        """Over 3 000 walks of 128 points the exact core scores the ``k``
        seeds and the rows within their bound, not the relation."""
        data = random_walk_collection(3000, 128, seed=35)
        scan = SequentialScan()
        scan.extend(data)
        scored = []
        core = columnar.gathered_pair_distances

        def counting(rows, row_ids, *args, **kwargs):
            scored.append(len(row_ids))
            return core(rows, row_ids, *args, **kwargs)

        monkeypatch.setattr(columnar, "gathered_pair_distances", counting)
        for query in random_walk_collection(8, 128, seed=36):
            del scored[:]
            result = scan.nearest_neighbors(query, k)
            assert k <= sum(scored) < len(data) // 10
            monkeypatch.setattr(columnar, "gathered_pair_distances", core)
            assert _answers(scan, result.answers) == reference_nearest(scan, query, k)
            monkeypatch.setattr(columnar, "gathered_pair_distances", counting)
