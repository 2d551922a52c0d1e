"""The half-spectrum records against the whole spectra they replaced.

A real series of ``n`` values has a conjugate-symmetric spectrum, ``X[n - f]
= conj(X[f])``, so the record store keeps coefficients ``1 … ⌊n/2⌋`` of each
row and the exact distance weights every frequency below ``n/2`` twice:
``Δmean² + Δstd² + 2·Σ_{f<n/2} |ΔX_f|² + |ΔX_{n/2}|²``.  numpy's FFT output
is exactly symmetric in only about one entry in ten, so distances cannot
keep their bits.  The reference is a new scalar one,
``repro.timeseries.features.record_distance``, and every kernel meets it bit
for bit.  The kernel it replaced — the full-width one, over every
coefficient of numpy's whole spectra, mapped as the store once mapped its
transformed matrix — lives on here (:func:`full_width_distances`), and
every distance stays within :data:`ULPS` of it:

    |d_half² - d_whole²| <= ULPS · eps · (|a|² + |b|²)

where ``|a|²`` is a record's squared norm over its whole spectrum and
statistics (the measured worst over 400 random relations was 1.53).  The
properties run over even and odd lengths, ragged pairs, every registered
spectral transformation and one that breaks the mirror (its records rebuilt
whole on the rows gathered), and bare feature-point queries.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import KIndex, SequentialScan, SeriesFeatureExtractor
from repro.core.objects import FeatureVector
from repro.storage.columnar import (
    ColumnarRecordStore,
    exact_distances,
    half_width,
    pair_block_distances,
    query_records,
    transform_full_record,
    verify_pairs,
    whole_spectrum,
)
from repro.storage.durable.manifest import FORMAT_VERSION
from repro.timeseries.features import record_distance
from repro.timeseries.generators import random_walk, random_walk_collection
from repro.timeseries.transforms import (
    SpectralTransformation,
    identity_spectral,
    moving_average_spectral,
    reverse_spectral,
    scale_spectral,
    shift_spectral,
)

#: The bound on squared distances against the full-width kernel, in units
#: of ``eps · (|a|² + |b|²)``.
ULPS = 8.0

EPS = float(np.finfo(np.float64).eps)


# ----------------------------------------------------------------------
# the old reference: the full-width kernel over numpy's whole spectra
# ----------------------------------------------------------------------
def whole_record(series, transformation):
    """``(coefficients 1 … n-1, mean, std)`` of a series as the store kept
    them before: numpy's whole spectrum of the normal form, mapped as the
    transformed matrix was (the product, then the offset)."""
    values = series.values
    mean, std = float(np.mean(values)), float(np.std(values))
    normal = (values - mean) / std if std else np.zeros_like(values)
    coefficients = np.fft.fft(normal.astype(np.complex128), norm="ortho")[1:]
    if transformation is None:
        return coefficients, mean, std
    size = coefficients.shape[0]
    coefficients = coefficients * transformation.multiplier[1 : 1 + size]
    coefficients += transformation.offset[1 : 1 + size]
    extra = np.array([mean, std]) * transformation.extra_multiplier + transformation.extra_offset
    return coefficients, float(extra[0]), float(extra[1])


def full_width_distances(rows, query, include_stats):
    """The exact kernel's arithmetic before the half spectra: one query
    broadcast over full-width rows, each pair over the common prefix of the
    two whole spectra, the moduli squared in place and summed once."""
    lengths = np.array([row[0].shape[0] for row in rows], dtype=np.intp)
    matrix = np.zeros((len(rows), int(lengths.max())), dtype=np.complex128)
    for position, row in enumerate(rows):
        matrix[position, : row[0].shape[0]] = row[0]
    means = np.array([row[1] for row in rows])
    stds = np.array([row[2] for row in rows])
    columns = min(matrix.shape[1], query[0].shape[0])
    gathered = matrix[:, :columns]
    gathered -= query[0][:columns]
    squared = np.abs(gathered)
    squared *= squared
    common = np.minimum(lengths, query[0].shape[0])
    if (common == columns).all():
        totals = squared.sum(axis=1)
    else:
        mask = np.arange(columns)[None, :] < common[:, None]
        totals = np.where(mask, squared, 0.0).sum(axis=1)
    if include_stats:
        totals = totals + ((means - query[1]) ** 2 + (stds - query[2]) ** 2)
    return np.sqrt(totals)


def squared_norm(record):
    return float(np.sum(np.abs(record[0]) ** 2) + record[1] ** 2 + record[2] ** 2)


def within_the_bound(new, old, rows, query):
    """Every half-spectrum distance within :data:`ULPS` of the old one."""
    scale = np.array([squared_norm(row) + squared_norm(query) for row in rows])
    assert (np.abs(new**2 - old**2) <= ULPS * EPS * scale).all()


# ----------------------------------------------------------------------
# relations, transformations and queries
# ----------------------------------------------------------------------
def mirror_breaking(length):
    """A map whose multiplier and offset are not conjugate-symmetric (a real
    multiplier, safe for a rectangular index, and a complex offset): its
    records are rebuilt whole before they are mapped."""
    rng = np.random.default_rng(length)
    return SpectralTransformation(
        rng.uniform(0.8, 1.2, length),
        rng.normal(size=length) + 1j * rng.normal(size=length),
        extra_multiplier=(1.5, 0.5),
        extra_offset=(0.25, -0.1),
        name="skew",
    )


#: Every registered spectral transformation, by name, at a length.
TRANSFORMATIONS = {
    "none": lambda length: None,
    "identity": identity_spectral,
    "mavg3": lambda length: moving_average_spectral(length, 3),
    "weighted": lambda length: moving_average_spectral(length, 3, weights=[0.5, 0.3, 0.2]),
    "reverse": reverse_spectral,
    "shift": lambda length: shift_spectral(length, 2.5),
    "scale": lambda length: scale_spectral(length, -1.5),
    "skew": mirror_breaking,
}

#: Even and odd series lengths, from the shortest with a mirror.
LENGTHS = (3, 4, 6, 7, 16, 17, 32, 33)

cases = st.fixed_dictionaries(
    {
        "length": st.sampled_from(LENGTHS),
        "ragged": st.booleans(),
        "rows": st.integers(1, 24),
        "seed": st.integers(0, 2**16),
        "include_stats": st.booleans(),
        "transformation": st.sampled_from(sorted(TRANSFORMATIONS)),
        "query": st.sampled_from(["stored", "fresh", "shorter", "bare"]),
    }
)


def build(case):
    """A relation, the transformation at the longest length it meets, and a
    query: a stored row, a fresh walk of the relation's length or one
    shorter, or a bare coefficient vector (a feature point's)."""
    rng = np.random.default_rng(case["seed"])
    length = case["length"]
    sizes = [int(rng.choice(LENGTHS)) if case["ragged"] else length for _ in range(case["rows"])]
    data = [random_walk(size, seed=rng) for size in sizes]
    extractor = SeriesFeatureExtractor(2, include_stats=case["include_stats"])
    kind = case["query"]
    series = {
        "stored": data[0],
        "fresh": random_walk(length, seed=rng),
        "shorter": random_walk(max(2, length - 1), seed=rng),
        "bare": data[0],
    }[kind]
    transformation = TRANSFORMATIONS[case["transformation"]](max(*sizes, len(series)))
    if kind == "bare":
        values = rng.normal(size=4) + 1j * rng.normal(size=4)
        coefficients = values[: min(4, max(sizes) - 1)]
        stats = rng.normal(size=2)
        query = (coefficients, float(stats[0]), float(stats[1]))
        old_query = whole_record_of_bare(query, transformation)
    else:
        features = extractor.extract(series)
        query = (features.full_coefficients, features.mean, features.std, features.length)
        old_query = whole_record(series, transformation)
    query = transform_full_record(*normalized(query), transformation)
    return data, transformation, query, old_query


def normalized(record):
    """A record as ``(coefficients, mean, std, length)``: a bare one is
    whole, its length its coefficient count."""
    return record if len(record) > 3 else (*record, record[0].shape[0])


def whole_record_of_bare(record, transformation):
    coefficients, mean, std = record
    if transformation is None:
        return record
    size = coefficients.shape[0]
    mapped = coefficients * transformation.multiplier[1 : 1 + size]
    mapped += transformation.offset[1 : 1 + size]
    extra = np.array([mean, std]) * transformation.extra_multiplier + transformation.extra_offset
    return mapped, float(extra[0]), float(extra[1])


def bits(values):
    return [float(value).hex() for value in values]


# ----------------------------------------------------------------------
# the scalar reference and the layout
# ----------------------------------------------------------------------
class TestTheScalarReference:
    @pytest.mark.parametrize("length", [2, 3, 4, 5, 16, 17, 128])
    def test_a_half_is_the_whole_spectrum(self, length):
        """A stored row is the first half of numpy's spectrum, and rebuilt
        it is the whole one to within an ulp of its modulus."""
        series = random_walk(length, seed=length)
        store = ColumnarRecordStore()
        store.extend([series])
        coefficients, _, _, stored_length = store.full_record(0)
        whole = whole_record(series, None)[0]
        assert stored_length == length - 1 == whole.shape[0]
        assert coefficients.shape == (half_width(length - 1),) == (length // 2,)
        assert np.array_equal(coefficients, whole[: length // 2])
        rebuilt = whole_spectrum(coefficients, stored_length)
        assert rebuilt.shape == whole.shape
        assert np.allclose(rebuilt, whole, rtol=0.0, atol=4 * EPS * np.abs(whole).max())

    def test_weights(self):
        """Twice below ``n/2``, once at ``n/2``: an even length's last
        stored column is its own mirror."""
        zero, unit = np.zeros(4, dtype=np.complex128), np.ones(4, dtype=np.complex128)
        for length, expected in ((7, 2.0 * 3 + 1.0), (8, 2.0 * 4)):
            distance = record_distance((unit, 0.0, 0.0, length), (zero, 0.0, 0.0, length), False)
            assert distance == math.sqrt(expected)

    def test_a_bare_vector_keeps_its_filter_distance(self):
        """A bare coefficient vector has no mirror: its distance is its
        feature-space distance over its own coefficients, each once."""
        store = ColumnarRecordStore()
        store.extend(random_walk_collection(5, 32, seed=3))
        bare = (store.full_record(0)[0][:3] + 0.5, 1.0, 2.0)
        for row in range(5):
            coefficients, mean, std, _ = store.full_record(row)
            expected = math.sqrt(
                float(np.sum(np.abs(coefficients[:3] - bare[0]) ** 2))
                + (mean - 1.0) ** 2
                + (std - 2.0) ** 2
            )
            distance = record_distance(store.full_record(row), bare, True)
            assert distance == pytest.approx(expected, rel=1e-15)


# ----------------------------------------------------------------------
# the kernels against both references
# ----------------------------------------------------------------------
class TestTheKernels:
    @settings(max_examples=300, deadline=None)
    @given(case=cases, rank=st.integers(0, 30))
    def test_property(self, case, rank):
        """``exact_distances``, ``verify_pairs`` at a threshold that is one
        of the distances, and the pair kernel equal the scalar reference
        bit for bit, and the full-width kernel to within :data:`ULPS`."""
        data, transformation, query, old_query = build(case)
        include_stats = case["include_stats"]
        store = ColumnarRecordStore()
        store.extend(data)
        records = store.records(transformation)
        queries = query_records([query])
        rows = [
            transform_full_record(*store.full_record(row), transformation)
            for row in range(len(data))
        ]
        reference = np.array([record_distance(row, query, include_stats) for row in rows])
        found = exact_distances(records, queries, include_stats)
        assert bits(found) == bits(reference)
        epsilon = float(np.sort(reference)[rank % reference.size])
        positions, distances = verify_pairs(records, None, queries, None, (epsilon,), include_stats)
        assert positions.tolist() == np.flatnonzero(reference <= epsilon).tolist()
        assert bits(distances) == bits(reference[positions])
        old_rows = [whole_record(series, transformation) for series in data]
        old = full_width_distances(old_rows, old_query, include_stats)
        within_the_bound(found, old, old_rows, old_query)
        pairs = len(data) * (len(data) - 1) // 2
        if pairs:
            left, right, distances = pair_block_distances(records, include_stats, 0, pairs)
            expected = [
                record_distance(rows[other], rows[anchor], include_stats)
                for anchor, other in zip(left.tolist(), right.tolist())
            ]
            assert bits(distances) == bits(expected)


# ----------------------------------------------------------------------
# the engine's answers
# ----------------------------------------------------------------------
def positions_of(data, answers):
    """``(row, distance bits)`` of a query's answers, in their order."""
    row_of = {id(series): row for row, series in enumerate(data)}
    return [(row_of[id(series)], distance.hex()) for series, distance in answers]


class TestTheAnswers:
    """Index, scan, join and k-NN over 600 walks of 128 points (and of 127)
    under no map, a moving average and a map that breaks the mirror: ids and
    distances equal the scalar reference bit for bit, and ids and order the
    full-width kernel's."""

    @pytest.fixture(scope="class", params=[128, 127])
    def relation(self, request):
        data = random_walk_collection(600, request.param, seed=request.param)
        return data, request.param

    @pytest.mark.parametrize("name", ["none", "mavg3", "skew"])
    def test_range_and_nearest(self, relation, name):
        data, length = relation
        transformation = TRANSFORMATIONS[name](length)
        representation = "rectangular" if name == "skew" else "polar"
        extractor = SeriesFeatureExtractor(2, representation=representation)
        index = KIndex.bulk_load(data, extractor)
        scan = SequentialScan(extractor)
        scan.extend(data)
        rows = [
            transform_full_record(*index.store.full_record(row), transformation)
            for row in range(len(data))
        ]
        old_rows = [whole_record(series, transformation) for series in data]
        ids = np.arange(len(data))
        for query in data[::97] + random_walk_collection(2, length, seed=7):
            features = extractor.extract(query)
            record = (features.full_coefficients, features.mean, features.std, features.length)
            record = transform_full_record(*record, transformation)
            reference = np.array([record_distance(row, record, True) for row in rows])
            old = full_width_distances(old_rows, whole_record(query, transformation), True)
            order = np.lexsort((ids, reference))
            assert order.tolist() == np.lexsort((ids, old)).tolist()
            epsilon = float(reference[order[40]])
            expected = [(int(row), reference[row].hex()) for row in order[:41]]
            options = {"transformation": transformation}
            for owner in (index, scan):
                found = positions_of(data, owner.range_query(query, epsilon, **options).answers)
                assert sorted(found) == sorted(expected)
                found = positions_of(data, owner.nearest_neighbors(query, 10, **options).answers)
                assert found == expected[:10]

    def test_join(self, relation):
        data, _ = relation
        scan = SequentialScan()
        scan.extend(data[:150])
        rows = [scan.store.full_record(row) for row in range(150)]
        old_rows = [whole_record(series, None) for series in data[:150]]
        pairs = {
            (anchor, other): record_distance(rows[other], rows[anchor], True)
            for anchor in range(149)
            for other in range(anchor + 1, 150)
        }
        epsilon = float(np.quantile(list(pairs.values()), 0.05))
        row_of = {id(series): row for row, series in enumerate(data)}
        found, _ = scan.all_pairs(epsilon)
        assert [(row_of[id(a)], row_of[id(b)], d.hex()) for a, b, d in found] == [
            (anchor, other, distance.hex())
            for (anchor, other), distance in pairs.items()
            if distance <= epsilon
        ]
        for anchor in range(149):
            old = full_width_distances(old_rows[anchor + 1 :], old_rows[anchor], True)
            new = np.array([pairs[anchor, other] for other in range(anchor + 1, 150)])
            assert (np.argsort(old, kind="stable") == np.argsort(new, kind="stable")).all()

    def test_a_bare_point_query(self, relation):
        """A feature point probes the index with its own coefficients, each
        once: the answers of the scalar reference over a whole record."""
        data, _ = relation
        extractor = SeriesFeatureExtractor(2)
        index = KIndex.bulk_load(data, extractor)
        point = FeatureVector(extractor.extract(data[5]).point.values + 0.01)
        extra, features = extractor.space.decode(point)
        bare = (features, float(extra[0]), float(extra[1]))
        reference = np.array(
            [record_distance(index.store.full_record(row), bare, True) for row in range(len(data))]
        )
        epsilon = float(np.sort(reference)[20])
        found = positions_of(data, index.range_query(point, epsilon).answers)
        within = np.flatnonzero(reference <= epsilon).tolist()
        assert sorted(found) == [(row, reference[row].hex()) for row in within]


# ----------------------------------------------------------------------
# a directory written while the store kept whole spectra
# ----------------------------------------------------------------------
class TestAVersion5Directory:
    """``tests/data/format5`` was written at format version 5, whose segments
    hold whole spectra: a uniform relation with a k-index, and a ragged one.
    It reopens with a fresh load's records and answers, bit for bit — its
    coefficients sliced to halves as they are copied in — and its first
    checkpoint rewrites every segment in the half layout."""

    SOURCE = Path(__file__).parent / "data" / "format5"
    QUERIES = (
        "SELECT FROM walks WHERE dist(object, $q) < 6.0",
        "SELECT FROM walks NEAREST 5 TO $q",
        "SELECT FROM mixed WHERE dist(object, $q) < 9.0",
        "SELECT FROM mixed NEAREST 4 TO $q",
    )

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "db"
        shutil.copytree(self.SOURCE, path)
        return str(path)

    @pytest.fixture(scope="class")
    def fresh(self):
        rng = np.random.default_rng(5)
        session = repro.connect()
        walks = random_walk_collection(40, 32, seed=51) + random_walk_collection(3, 32, seed=52)
        session.relation("walks").insert_many(walks).with_index(KIndex())
        session.relation("mixed").insert_many(
            [random_walk(int(length), seed=rng) for length in (16, 17, 31, 32, 9, 24) * 3]
        )
        return session

    @classmethod
    def answers(cls, session, fresh):
        """Every query's answers as (row, distance bits), for the queries of
        the fresh load's rows 0, 7 and 17 and a walk of neither."""
        found = []
        for sql in cls.QUERIES:
            relation = sql.split()[2]
            objects = session.relation(relation).objects()
            row_of = {obj.object_id: row for row, obj in enumerate(objects)}
            stored = fresh.relation(relation).objects()
            for query in (stored[0], stored[7], stored[17], random_walk(32, seed=9)):
                answers = session.sql(sql, q=query).answers
                found.append([(row_of[obj.object_id], distance.hex()) for obj, distance in answers])
        assert any(found)
        return found

    @staticmethod
    def same_records(session, fresh):
        for name in ("walks", "mixed"):
            stored = session.database.columnar_store(name)
            expected = fresh.database.columnar_store(name)
            assert stored.coefficients.shape == expected.coefficients.shape
            assert stored.coefficients.tobytes() == expected.coefficients.tobytes()
            for column in ("lengths", "means", "stds"):
                assert getattr(stored, column).tolist() == getattr(expected, column).tolist()

    def test_it_reopens_as_a_fresh_load_and_checkpoints_in_halves(self, path, fresh):
        manifest = json.loads((Path(path) / "MANIFEST.json").read_text())
        assert manifest["format_version"] == 5
        assert "spectrum" not in manifest["relations"]["walks"]
        expected = self.answers(fresh, fresh)
        with repro.connect(path=path) as session:
            self.same_records(session, fresh)
            assert self.answers(session, fresh) == expected
            session.checkpoint()
        manifest = json.loads((Path(path) / "MANIFEST.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 6
        for name, rows in (("walks", 43), ("mixed", 18)):
            assert manifest["relations"][name]["spectrum"] == "half"
            directory = Path(path) / "segments" / name
            files = sorted(file.name for file in directory.iterdir())
            assert files and all("-half-" in file for file in files)
            spectra = [np.load(directory / file) for file in files if file.endswith("-coeffs.npy")]
            assert max(spectrum.shape[1] for spectrum in spectra) == 16  # the half of 32 values
            assert sum(spectrum.shape[0] for spectrum in spectra) == rows
        with repro.connect(path=path) as session:
            self.same_records(session, fresh)
            assert self.answers(session, fresh) == expected
