"""The workload table: sizes, catalogs and seeded operation streams.

Every stream is expanded from fixed *templates* (``WorkloadSpec`` →
``generate_workload`` with template seeds that never change) and then
perturbed by the ``--seed`` of the run: the seed draws fresh noise onto every
query series, fresh rows for every insert batch, and the arrival order.  The
strata that set an operation's cost — which neighbourhood of the data it
probes, its radius or ``k``, whether it runs under ``mavg10``, which queries
repeat — belong to the template.  Probing showed why: with strata drawn from
the seed, the median range latency of a 75-op stream moved 12 % between seeds
(throughput 21 %), four times the machine noise the estimator is built to
reject, and no gain or regression below that could ever be resolved.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro import TimeSeries, parse_query
from repro.bench.workloads import WorkloadQuery, WorkloadSpec, generate_workload
from repro.timeseries.generators import random_walk_collection

LENGTH = 128
#: Feature prefix of every k-index the benchmark builds (the evaluation's default).
INDEX_COEFFICIENTS = 2
#: The one registered ``USING`` transformation: a 10-point moving average.
TRANSFORMATION = "mavg10"
MOVING_AVERAGE_WINDOW = 10
#: Half-width of the per-seed noise added to every template query series.
SEED_NOISE = 0.5

WORKLOADS = ("embedded-index", "embedded-scan-join", "served-read", "durable-rw")


@dataclass(frozen=True)
class Sizes:
    """Every size the benchmark uses; constants, not flags."""

    rounds: int
    index_rows: int
    index_range_ops: int
    index_nearest_ops: int
    scan_rows: int
    scan_range_ops: int
    join_rows: int
    join_ops: int
    durable_rows: int
    durable_selective_ops: int
    durable_wide_ops: int
    durable_insert_batches: int
    insert_batch_rows: int
    buffer_pages: int


#: Sized so that a run takes about ``run_seconds`` on this host: the contract's
#: total-time cap (92 runs in 3420 s) leaves no room for more ops per round.
FULL = Sizes(rounds=9,
             index_rows=5000, index_range_ops=84, index_nearest_ops=28,
             scan_rows=8000, scan_range_ops=150, join_rows=240, join_ops=24,
             durable_rows=3000, durable_selective_ops=48, durable_wide_ops=10,
             durable_insert_batches=10, insert_batch_rows=16, buffer_pages=256)
#: Smoke-test sizes: every code path, meaningless numbers.
TINY = Sizes(rounds=2,
             index_rows=300, index_range_ops=9, index_nearest_ops=3,
             scan_rows=300, scan_range_ops=10, join_rows=40, join_ops=3,
             durable_rows=300, durable_selective_ops=6, durable_wide_ops=3,
             durable_insert_batches=3, insert_batch_rows=4, buffer_pages=8)


@dataclass(frozen=True)
class RelationSpec:
    """One relation of a workload's catalog."""

    name: str
    rows: int
    data_seed: int
    indexed: bool
    #: Run once at the end of set-up with ``$q`` bound to the first series,
    #: one per plan family the stream will use, so that lazy work (plan
    #: statistics, scan materialisation) is inside ``setup_s``.
    warmup: tuple[str, ...]

    def data(self) -> list[TimeSeries]:
        return _relation_data(self.rows, self.data_seed)


@functools.lru_cache(maxsize=None)
def _relation_data(rows: int, data_seed: int) -> list[TimeSeries]:
    # Generated once per process and shared by every round, the oracle and
    # the probes: data generation is the generator's cost, not the program's.
    return random_walk_collection(rows, LENGTH, seed=data_seed)


@dataclass(frozen=True)
class Op:
    """One operation of a stream, in arrival order."""

    op_id: int
    family: str  # range | nearest | join | insert
    relation: str
    text: str = ""
    params: dict = dataclasses.field(default_factory=dict)
    epsilon: float | None = None
    k: int | None = None
    transformation: str | None = None
    rows: tuple[TimeSeries, ...] = ()

    def to_dict(self) -> dict:
        payload = {"op_id": self.op_id, "family": self.family,
                   "relation": self.relation, "text": self.text}
        if self.params:
            payload["q"] = [float(v) for v in self.params["q"].values]
        if self.rows:
            payload["rows"] = [[row.name, [float(v) for v in row.values]]
                               for row in self.rows]
        return payload


@dataclass(frozen=True)
class Stream:
    """A workload's catalog plus its seeded operation stream."""

    workload: str
    catalog: tuple[RelationSpec, ...]
    ops: tuple[Op, ...]

    def to_json(self) -> str:
        return json.dumps([op.to_dict() for op in self.ops], sort_keys=True)

    def checksum(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# templates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TemplateQuery:
    """A template query, the template it came from, and its ``USING`` name."""

    template_seed: int
    query: WorkloadQuery
    transformation: str | None


def _template(relation: RelationSpec, family: str, count: int, template_seed: int,
              selectivity: tuple[float, float] = (0.002, 0.02),
              skew: float = 0.0, repetition: float = 0.0,
              transformation_every: int = 0) -> list[TemplateQuery]:
    """``count`` queries of one family from a fixed template seed; every
    ``transformation_every``-th of them runs under the moving average."""
    spec = WorkloadSpec(name=f"{relation.name}-{family}-{template_seed}",
                        relation=relation.name, num_series=relation.rows,
                        length=LENGTH, data_seed=relation.data_seed,
                        seed=template_seed, num_queries=count,
                        mix=((family, 1.0),), skew=skew, repetition=repetition,
                        selectivity=selectivity)
    return [TemplateQuery(template_seed, query,
                          TRANSFORMATION if transformation_every
                          and position % transformation_every == 1 else None)
            for position, query in enumerate(generate_workload(spec).queries)]


_RANGE = "SELECT FROM {0} WHERE DIST(OBJECT, $q) < {1}"
_NEAREST = "SELECT FROM {0} NEAREST 1 TO $q"
_JOIN = "SELECT PAIRS FROM {0} WHERE DIST < 0.5"


def index_catalog(rows: int) -> tuple[RelationSpec, ...]:
    """The catalog ``embedded-index`` builds and ``served-read`` serves."""
    return (RelationSpec("walks", rows, data_seed=11, indexed=True,
                         warmup=(_RANGE.format("walks", 1.0),
                                 _RANGE.format("walks", 1.0) + f" USING {TRANSFORMATION}",
                                 _NEAREST.format("walks"))),)


def _index_parts(sizes: Sizes):
    (walks,) = index_catalog(sizes.index_rows)
    ranges = _template(walks, "range", sizes.index_range_ops, 101,
                       transformation_every=2)
    nearest = _template(walks, "nearest", sizes.index_nearest_ops, 102)
    return (walks,), ranges + nearest


def _scan_join_parts(sizes: Sizes):
    walks = RelationSpec("walks", sizes.scan_rows, data_seed=13, indexed=False,
                         warmup=(_RANGE.format("walks", 1.0),))
    pairs = RelationSpec("pairs", sizes.join_rows, data_seed=17, indexed=False,
                         warmup=(_JOIN.format("pairs"),))
    ranges = _template(walks, "range", sizes.scan_range_ops, 201,
                       selectivity=(0.02, 0.10), skew=1.0, repetition=0.3)
    joins = _template(pairs, "join", sizes.join_ops, 202,
                      selectivity=(0.02, 0.10), repetition=0.3)
    return (walks, pairs), ranges + joins


def _durable_parts(sizes: Sizes):
    # The second warm-up radius covers the relation, so it plans as a scan.
    walks = RelationSpec("walks", sizes.durable_rows, data_seed=19, indexed=True,
                         warmup=(_RANGE.format("walks", 1.0),
                                 _RANGE.format("walks", 1000.0)))
    selective = _template(walks, "range", sizes.durable_selective_ops, 301)
    wide = _template(walks, "range", sizes.durable_wide_ops, 302,
                     selectivity=(0.10, 0.25))
    return (walks,), selective + wide


#: workload → (its templates, the key its seeded generator is derived from).
#: served-read shares embedded-index's key and therefore its stream, byte for
#: byte, so that their difference is the wire alone.
_PARTS = {"embedded-index": (_index_parts, 1), "served-read": (_index_parts, 1),
          "embedded-scan-join": (_scan_join_parts, 2), "durable-rw": (_durable_parts, 3)}


def build_stream(workload: str, seed: int, sizes: Sizes = FULL) -> Stream:
    """Expand ``workload``'s templates under ``seed``; same seed, same bytes."""
    parts, stream_key = _PARTS[workload]
    catalog, template = parts(sizes)
    rng = np.random.default_rng([int(seed), stream_key])
    # Repeats must stay exact copies of their root (the answer cache keys on
    # the parameter), so noise is drawn per root and shared by its repeats.
    noisy: dict[tuple[int, str], TimeSeries] = {}
    items: list[Op] = []
    for entry in template:
        query = entry.query
        node = parse_query(query.text)
        if entry.transformation is not None:
            node = dataclasses.replace(node, transformation=entry.transformation)
        params = {}
        if query.values is not None:
            root = (entry.template_seed, query.repeat_of or query.label)
            if root not in noisy:
                noise = rng.uniform(-SEED_NOISE, SEED_NOISE, size=len(query.values))
                noisy[root] = TimeSeries(np.asarray(query.values) + noise,
                                         name=f"q{root[0]}-{root[1]}")
            params = {"q": noisy[root]}
        items.append(Op(op_id=-1, family=query.family, relation=node.relation,
                        text=node.describe(), params=params, epsilon=query.epsilon,
                        k=query.k, transformation=entry.transformation))
    if workload == "durable-rw":
        fresh = random_walk_collection(
            sizes.durable_insert_batches * sizes.insert_batch_rows, LENGTH,
            seed=np.random.default_rng([int(seed), 4]), name_prefix="ins")
        for batch in range(sizes.durable_insert_batches):
            rows = fresh[batch * sizes.insert_batch_rows:(batch + 1) * sizes.insert_batch_rows]
            items.append(Op(op_id=-1, family="insert", relation="walks",
                            rows=tuple(rows)))
    order = rng.permutation(len(items))
    ops = tuple(dataclasses.replace(items[int(source)], op_id=position)
                for position, source in enumerate(order))
    return Stream(workload=workload, catalog=catalog, ops=ops)
