"""Seeded, serializable query workloads plus the classic experiment fixtures.

Two layers live here:

* :class:`ExperimentFixture` (plus :func:`synthetic_workload` /
  :func:`stock_workload` / :func:`pick_queries`) — the data-set/index/scan
  bundles the per-figure experiment modules compare, unchanged from the
  original experiment suite.

* :class:`WorkloadSpec` → :func:`generate_workload` → :class:`Workload` —
  a *declarative* workload: relation shape, query-family mix, parameter
  skew (a Zipf exponent over anchor series), repetition coefficient and
  target selectivities, expanded into a concrete arrival-ordered list of
  :class:`WorkloadQuery` items.  The expansion draws exclusively uniform
  doubles from a PCG64 stream (``rng.random`` / ``rng.uniform``), whose
  bit-level output is stable across NumPy versions, and every serialized
  number is a plain Python float (``repr``-shortest in JSON) — so the same
  spec produces a **byte-identical** serialized workload on any machine and
  Python version.  :meth:`Workload.to_json` / :meth:`Workload.from_json`
  round-trip losslessly; the workload is the first-class artifact both the
  replay harness (:mod:`repro.bench.harness`) and the index advisor
  (:mod:`repro.core.advisor`) consume.

Range and join radii are calibrated against the data set itself: a
deterministic evenly-spaced sample of series is extracted once, exact
full-record distances between all sampled pairs form an empirical
distribution, and each query's target answer fraction is converted to a
radius through its quantile function — so ``selectivity=(0.005, 0.05)``
means what it says regardless of the data scale.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.query.ast import AllPairsQuery, NearestNeighborQuery, RangeQuery
from ..core.stats import sample_positions
from ..index.kindex import KIndex
from ..index.scan import SequentialScan
from ..timeseries.features import SeriesFeatureExtractor
from ..timeseries.generators import make_rng, random_walk_collection
from ..timeseries.series import TimeSeries
from ..timeseries.stockdata import StockArchiveConfig, make_stock_archive

__all__ = [
    "ExperimentFixture",
    "Workload",
    "WorkloadQuery",
    "WorkloadSpec",
    "generate_workload",
    "pick_queries",
    "standard_mixes",
    "stock_workload",
    "synthetic_workload",
]

#: Query families a workload mix may contain.
QUERY_FAMILIES = ("range", "nearest", "join")

#: Series sampled when calibrating radii (pair count is quadratic in this;
#: 48 positions keep it at ~1.1k exact distances per generation).
CALIBRATION_SAMPLE = 48

#: Serialization format tag, bumped on incompatible layout changes.
WORKLOAD_FORMAT = 1

#: Node capacity of the experiment fixtures' trees: the evaluation's figures
#: and their pinned counts were measured on 8-entry nodes, so the fixtures
#: write it out rather than take the index's page-sized default.
PAPER_NODE_CAPACITY = 8


# ----------------------------------------------------------------------
# experiment fixtures (the original per-figure bundles)
# ----------------------------------------------------------------------
@dataclass
class ExperimentFixture:
    """A data set plus the evaluators the experiments compare."""

    name: str
    data: list[TimeSeries]
    index: KIndex
    scan: SequentialScan
    extractor: SeriesFeatureExtractor
    queries: list[TimeSeries] = field(default_factory=list)

    @property
    def length(self) -> int:
        """Length of the series in the fixture."""
        return len(self.data[0]) if self.data else 0

    def __len__(self) -> int:
        return len(self.data)


def pick_queries(data: list[TimeSeries], count: int, seed: int = 97) -> list[TimeSeries]:
    """A deterministic sample of query series drawn from the data set."""
    if not data:
        return []
    rng = make_rng(seed)
    indices = rng.choice(len(data), size=min(count, len(data)), replace=False)
    return [data[int(i)] for i in indices]


def _build(
    name: str,
    data: list[TimeSeries],
    *,
    num_coefficients: int,
    representation: str,
    num_queries: int,
    query_seed: int,
    bulk_load: bool = False,
) -> ExperimentFixture:
    extractor = SeriesFeatureExtractor(
        num_coefficients=num_coefficients, representation=representation
    )
    # The evaluation's figures were measured on a dynamically built tree.
    build = KIndex.bulk_load if bulk_load else KIndex.build_by_insertion
    index = build(data, extractor, max_entries=PAPER_NODE_CAPACITY)
    scan = SequentialScan(extractor)
    scan.extend(data)
    return ExperimentFixture(
        name=name,
        data=data,
        index=index,
        scan=scan,
        extractor=extractor,
        queries=pick_queries(data, num_queries, seed=query_seed),
    )


def synthetic_workload(
    num_series: int,
    length: int,
    *,
    seed: int = 11,
    num_coefficients: int = 2,
    representation: str = "polar",
    num_queries: int = 10,
    query_seed: int = 97,
    bulk_load: bool = False,
) -> ExperimentFixture:
    """Random-walk sequences following the evaluation's generation recipe.

    ``bulk_load=True`` builds the index with the Sort-Tile-Recursive loader
    instead of one-at-a-time insertion into a dynamic tree
    (:meth:`KIndex.build_by_insertion`; identical answers, packed tree).
    """
    data = random_walk_collection(num_series, length, seed=seed)
    return _build(
        f"synthetic-{num_series}x{length}",
        data,
        num_coefficients=num_coefficients,
        representation=representation,
        num_queries=num_queries,
        query_seed=query_seed,
        bulk_load=bulk_load,
    )


def stock_workload(
    config: StockArchiveConfig | None = None,
    *,
    num_coefficients: int = 2,
    representation: str = "polar",
    num_queries: int = 10,
    query_seed: int = 101,
) -> ExperimentFixture:
    """The synthetic stock archive standing in for the original FTP data."""
    config = config if config is not None else StockArchiveConfig()
    data = make_stock_archive(config)
    return _build(
        f"stocks-{config.num_series}x{config.length}",
        data,
        num_coefficients=num_coefficients,
        representation=representation,
        num_queries=num_queries,
        query_seed=query_seed,
    )


# ----------------------------------------------------------------------
# declarative, seeded workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """The declarative recipe a :class:`Workload` is expanded from.

    Attributes
    ----------
    name / relation:
        Workload label and the catalog relation the queries target.
    num_series / length / data_seed:
        Shape and seed of the random-walk data set (regenerated on demand
        by :meth:`Workload.data` — the recipe travels, not the data).
    seed / num_queries:
        Seed of the query stream and how many queries it contains.
    mix:
        Family → weight mapping over ``range`` / ``nearest`` / ``join``
        (normalized internally; families with weight 0 never occur).
    skew:
        Zipf exponent over anchor series when drawing query parameters:
        0 is uniform, larger values concentrate queries on few anchors.
    repetition:
        Probability in ``[0, 1)`` that a query is an *exact* repeat of an
        earlier query of the same family (what answer caches feast on).
    selectivity:
        ``(low, high)`` band of target answer fractions; each fresh range
        or join query draws a fraction uniformly from the band and gets
        its radius from the calibrated distance quantile.
    k_choices:
        The ``k`` values nearest-neighbour queries draw from.
    query_noise:
        Half-width of the uniform perturbation added to an anchor series
        to form a query parameter (0 asks about the anchor itself).
    """

    name: str
    relation: str = "series"
    num_series: int = 500
    length: int = 128
    data_seed: int = 11
    seed: int = 7
    num_queries: int = 40
    mix: tuple[tuple[str, float], ...] = (("range", 1.0),)
    skew: float = 0.0
    repetition: float = 0.0
    selectivity: tuple[float, float] = (0.005, 0.05)
    k_choices: tuple[int, ...] = (1, 5, 10)
    query_noise: float = 1.0

    def __post_init__(self) -> None:
        mix = self.mix
        if isinstance(mix, Mapping):
            mix = tuple(sorted((str(f), float(w)) for f, w in mix.items()))
        else:
            mix = tuple(sorted((str(f), float(w)) for f, w in mix))
        for family, weight in mix:
            if family not in QUERY_FAMILIES:
                raise ValueError(f"unknown query family {family!r}; choose from {QUERY_FAMILIES}")
            if weight < 0:
                raise ValueError(f"negative weight for family {family!r}")
        if not any(weight > 0 for _, weight in mix):
            raise ValueError("the mix needs at least one family with positive weight")
        object.__setattr__(self, "mix", mix)
        low, high = (float(self.selectivity[0]), float(self.selectivity[1]))
        if not (0.0 < low <= high <= 1.0):
            raise ValueError("selectivity must satisfy 0 < low <= high <= 1")
        object.__setattr__(self, "selectivity", (low, high))
        object.__setattr__(self, "k_choices", tuple(int(k) for k in self.k_choices))
        if not self.k_choices or min(self.k_choices) < 1:
            raise ValueError("k_choices must be non-empty positive integers")
        if not 0.0 <= self.repetition < 1.0:
            raise ValueError("repetition must lie in [0, 1)")
        if self.skew < 0.0:
            raise ValueError("skew must be non-negative")
        if self.query_noise < 0.0:
            raise ValueError("query_noise must be non-negative")
        if self.num_series < 2 or self.length < 4:
            raise ValueError("need num_series >= 2 and length >= 4")
        if self.num_queries < 0:
            raise ValueError("num_queries must be non-negative")

    def mix_weights(self) -> dict[str, float]:
        """The mix as a family → weight dictionary."""
        return dict(self.mix)

    def to_dict(self) -> dict:
        """Plain-data form (JSON-ready, deterministic key order via dumps)."""
        return {
            "name": self.name,
            "relation": self.relation,
            "num_series": self.num_series,
            "length": self.length,
            "data_seed": self.data_seed,
            "seed": self.seed,
            "num_queries": self.num_queries,
            "mix": {family: weight for family, weight in self.mix},
            "skew": self.skew,
            "repetition": self.repetition,
            "selectivity": list(self.selectivity),
            "k_choices": list(self.k_choices),
            "query_noise": self.query_noise,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            relation=payload["relation"],
            num_series=payload["num_series"],
            length=payload["length"],
            data_seed=payload["data_seed"],
            seed=payload["seed"],
            num_queries=payload["num_queries"],
            mix=dict(payload["mix"]),
            skew=payload["skew"],
            repetition=payload["repetition"],
            selectivity=tuple(payload["selectivity"]),
            k_choices=tuple(payload["k_choices"]),
            query_noise=payload["query_noise"],
        )


@dataclass(frozen=True)
class WorkloadQuery:
    """One concrete query of a workload, in arrival order.

    ``text`` is the canonical surface syntax (parse-roundtrippable);
    ``values`` carries the parameter series for range/nearest queries
    (``None`` for joins, which are parameterless); ``repeat_of`` names the
    label of the *root* query this one exactly repeats, or ``None`` for a
    fresh query.
    """

    label: str
    family: str
    text: str
    epsilon: float | None = None
    k: int | None = None
    values: tuple[float, ...] | None = None
    query_name: str | None = None
    repeat_of: str | None = None

    def parameter_series(self) -> TimeSeries | None:
        """The query parameter as a :class:`TimeSeries` (``None`` for joins)."""
        if self.values is None:
            return None
        return TimeSeries(
            np.asarray(self.values, dtype=np.float64),
            name=self.query_name or self.label,
        )

    def bindings(self) -> dict:
        """The ``$q`` parameter binding for :meth:`Session.sql`."""
        series = self.parameter_series()
        return {} if series is None else {"q": series}

    def to_dict(self) -> dict:
        payload: dict = {"label": self.label, "family": self.family, "text": self.text}
        if self.epsilon is not None:
            payload["epsilon"] = self.epsilon
        if self.k is not None:
            payload["k"] = self.k
        if self.values is not None:
            payload["values"] = list(self.values)
        if self.query_name is not None:
            payload["query_name"] = self.query_name
        if self.repeat_of is not None:
            payload["repeat_of"] = self.repeat_of
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkloadQuery":
        values = payload.get("values")
        return cls(
            label=payload["label"],
            family=payload["family"],
            text=payload["text"],
            epsilon=payload.get("epsilon"),
            k=payload.get("k"),
            values=None if values is None else tuple(float(v) for v in values),
            query_name=payload.get("query_name"),
            repeat_of=payload.get("repeat_of"),
        )


@dataclass(frozen=True)
class Workload:
    """A fully expanded workload: the spec plus its concrete query stream."""

    spec: WorkloadSpec
    queries: tuple[WorkloadQuery, ...]

    @property
    def name(self) -> str:
        return self.spec.name

    def __len__(self) -> int:
        return len(self.queries)

    def data(self) -> list[TimeSeries]:
        """Regenerate the data set from the spec's recipe."""
        return random_walk_collection(
            self.spec.num_series, self.spec.length, seed=self.spec.data_seed
        )

    def profile(self):
        """The advisor's view of this workload (repeats collapsed)."""
        from ..core.advisor import WorkloadProfile

        return WorkloadProfile.from_queries(self.spec.relation, self.queries)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, ``repr``-shortest floats — the
        same spec serializes byte-identically on every platform."""
        payload = {
            "format": WORKLOAD_FORMAT,
            "spec": self.spec.to_dict(),
            "queries": [query.to_dict() for query in self.queries],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        payload = json.loads(text)
        if payload.get("format") != WORKLOAD_FORMAT:
            raise ValueError(
                f"unsupported workload format {payload.get('format')!r} "
                f"(expected {WORKLOAD_FORMAT})"
            )
        return cls(
            spec=WorkloadSpec.from_dict(payload["spec"]),
            queries=tuple(WorkloadQuery.from_dict(q) for q in payload["queries"]),
        )

    def checksum(self) -> str:
        """SHA-256 of the serialized form (the determinism fingerprint)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------
def _calibration_distances(data: list[TimeSeries]) -> np.ndarray:
    """Sorted exact full-record distances between sampled series pairs."""
    extractor = SeriesFeatureExtractor(1)
    features = [
        extractor.extract(data[int(i)])
        for i in sample_positions(len(data), CALIBRATION_SAMPLE)
    ]
    out = []
    for i, left in enumerate(features):
        for right in features[i + 1 :]:
            out.append(extractor.full_distance(left, right))
    return np.sort(np.asarray(out, dtype=np.float64))


def _quantile(sorted_values: np.ndarray, fraction: float) -> float:
    """Smallest sampled distance capturing ``fraction`` of the pairs
    (the same rule :meth:`DistanceHistogram.quantile` applies)."""
    n = len(sorted_values)
    if n == 0:
        return 1.0
    position = min(n - 1, max(0, int(np.ceil(fraction * n)) - 1))
    # Rounded so the serialized radius is robust against last-bit drift in
    # the underlying FFT between NumPy builds.
    return round(float(sorted_values[position]), 6)


def _pick(cumulative: np.ndarray, u: float) -> int:
    """Index drawn from a cumulative distribution by a uniform ``u``."""
    return min(len(cumulative) - 1, int(np.searchsorted(cumulative, u, side="right")))


def _fresh_query(
    spec: WorkloadSpec,
    label: str,
    family: str,
    data: list[TimeSeries],
    distances: np.ndarray,
    anchor_cdf: np.ndarray,
    rng: np.random.Generator,
) -> WorkloadQuery:
    if family == "join":
        epsilon = _quantile(distances, rng.uniform(*spec.selectivity))
        node = AllPairsQuery(relation=spec.relation, epsilon=epsilon)
        return WorkloadQuery(label=label, family="join", text=node.describe(), epsilon=epsilon)
    anchor = _pick(anchor_cdf, rng.random())
    noise = rng.uniform(-spec.query_noise, spec.query_noise, size=spec.length)
    values = tuple(float(v) for v in data[anchor].values + noise)
    query_name = f"{spec.name}/{label}"
    if family == "range":
        epsilon = _quantile(distances, rng.uniform(*spec.selectivity))
        node = RangeQuery(relation=spec.relation, parameter="q", epsilon=epsilon)
        return WorkloadQuery(
            label=label,
            family="range",
            text=node.describe(),
            epsilon=epsilon,
            values=values,
            query_name=query_name,
        )
    k = min(spec.k_choices[_pick_uniform(len(spec.k_choices), rng)], spec.num_series)
    node = NearestNeighborQuery(relation=spec.relation, parameter="q", k=k)
    return WorkloadQuery(
        label=label,
        family="nearest",
        text=node.describe(),
        k=k,
        values=values,
        query_name=query_name,
    )


def _pick_uniform(count: int, rng: np.random.Generator) -> int:
    return min(count - 1, int(rng.random() * count))


def generate_workload(spec: WorkloadSpec) -> Workload:
    """Expand a spec into its concrete query stream, deterministically.

    Only ``rng.random`` / ``rng.uniform`` draws are used (family choice and
    anchor skew go through explicit inverse-CDF lookups), so the stream is
    identical across NumPy versions for a given seed.
    """
    data = random_walk_collection(spec.num_series, spec.length, seed=spec.data_seed)
    distances = _calibration_distances(data)
    rng = make_rng(spec.seed)
    weights = spec.mix_weights()
    families = [family for family in QUERY_FAMILIES if weights.get(family, 0.0) > 0]
    family_weights = np.asarray([weights[f] for f in families], dtype=np.float64)
    family_cdf = np.cumsum(family_weights) / family_weights.sum()
    ranks = np.arange(1, spec.num_series + 1, dtype=np.float64)
    anchor_weights = np.power(ranks, -spec.skew)
    anchor_cdf = np.cumsum(anchor_weights) / anchor_weights.sum()

    queries: list[WorkloadQuery] = []
    by_family: dict[str, list[WorkloadQuery]] = {family: [] for family in families}
    for position in range(spec.num_queries):
        label = f"q{position:03d}"
        family = families[_pick(family_cdf, rng.random())]
        prior = by_family[family]
        if prior and rng.random() < spec.repetition:
            source = prior[_pick_uniform(len(prior), rng)]
            query = replace(source, label=label, repeat_of=source.repeat_of or source.label)
        else:
            query = _fresh_query(spec, label, family, data, distances, anchor_cdf, rng)
        queries.append(query)
        by_family[family].append(query)
    return Workload(spec=spec, queries=tuple(queries))


def standard_mixes() -> dict[str, WorkloadSpec]:
    """The three standard mixes the advisor is held to.

    * ``uniform`` — unskewed range/nearest traffic at low selectivity:
      indexes beat the scan handily, and the advisor must rank the
      in-memory metric index against k-index page traversals;
    * ``skewed-repeat`` — Zipf-skewed anchors with a high repetition
      coefficient: the answer cache absorbs repeats and the advisor must
      still price the distinct shapes correctly;
    * ``join-heavy`` — all-pairs joins mixed with ranges: the quadratic
      provider join makes a metric index a trap, and the optimised scan
      join beats per-record index probes — k-index/"no index" territory.
    """
    return {
        "uniform": WorkloadSpec(
            name="uniform",
            num_series=600,
            length=128,
            data_seed=11,
            seed=101,
            num_queries=36,
            mix={"range": 0.75, "nearest": 0.25},
            skew=0.0,
            repetition=0.0,
            selectivity=(0.002, 0.02),
            k_choices=(1, 5, 10),
        ),
        "skewed-repeat": WorkloadSpec(
            name="skewed-repeat",
            num_series=600,
            length=128,
            data_seed=12,
            seed=202,
            num_queries=60,
            mix={"range": 1.0},
            skew=1.1,
            repetition=0.55,
            selectivity=(0.002, 0.015),
        ),
        "join-heavy": WorkloadSpec(
            name="join-heavy",
            num_series=240,
            length=64,
            data_seed=13,
            seed=303,
            num_queries=16,
            mix={"join": 0.4, "range": 0.6},
            skew=0.0,
            repetition=0.0,
            selectivity=(0.01, 0.05),
        ),
    }
