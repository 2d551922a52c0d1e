"""Index advisor: price candidate physical designs against a workload.

The planner (PR 4) picks the best plan *given* the registered indexes; this
module closes the remaining loop and picks the indexes themselves.  From an
observed workload — summarized as a :class:`WorkloadProfile` (query family,
radius or ``k``, repeats collapsed) — and the relation's measured
:class:`~repro.core.stats.RelationStatistics`, the advisor builds one
candidate per physical design:

* **no index** — sequential scan (or a bare provider scan);
* **k-index** with each considered feature-prefix length; the candidate
  index is actually bulk-loaded (a *what-if* index), so its
  ``structure_summary()`` and per-prefix filter histogram feed the cost
  model real numbers rather than fanout guesses;
* **metric index** over the exact full-record distance (for series
  relations this registers an advisor-owned
  :class:`~repro.core.database.DistanceProvider`, flipping the relation
  onto the planner's provider path).

Each candidate's cost is the profile-weighted sum of the cheapest rows of
the planner's :data:`~repro.core.query.planner.PLAN_FAMILIES` it makes
available, priced by the planner's own cost model — the advisor invents no
second cost model and no second list of plan families, so whatever the
planner believes about plan families is exactly what the advisor believes
about index configurations.
``Session.advise`` returns the ranked recommendation;
``Session.autotune`` additionally installs it through the ordinary catalog
APIs (``register_index`` / ``drop_index`` / ``register_distance`` /
``drop_distance``), so cached plans and answers are invalidated by
construction via the catalog-version bump.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from dataclasses import replace as replace_fields
from typing import Any

from ..index.kindex import KIndex
from ..index.metric import MetricIndex
from ..timeseries.features import SeriesFeatureExtractor
from .database import Database, DistanceProvider
from .errors import CatalogError
from .query.costmodel import CostEstimate, QueryCostModel
from .query.planner import PLAN_FAMILIES
from .stats import (
    SAMPLE_SIZE,
    RelationStatistics,
    collect_by_extraction,
    filter_histogram,
    sample_positions,
)

__all__ = [
    "ADVISOR_PROVIDER_NAME",
    "CandidateConfiguration",
    "IndexAdvisor",
    "IndexRecommendation",
    "ProfiledQuery",
    "WorkloadProfile",
    "apply_recommendation",
    "reset_advisor_configuration",
    "series_exact_distance",
]

#: Name of the distance provider the advisor registers when it moves a
#: series relation onto the metric-index path; ``autotune`` only ever drops
#: providers carrying this name, never a user-registered one.
ADVISOR_PROVIDER_NAME = "advisor-exact-series"

#: Feature-prefix lengths considered for a k-index candidate.
PREFIX_LENGTHS = (1, 2, 3)

#: A challenger must beat the incumbent's estimate by this fraction;
#: within the band the *simpler* configuration wins (no index < k-index <
#: metric index), mirroring the planner's own tie rule.
TIE_TOLERANCE = 0.05


def series_exact_distance() -> Callable[[Any, Any], float]:
    """An exact full-record distance over time series, as a metric callable.

    Euclidean over (mean, std) plus *all* normal-form DFT coefficients —
    the same formula the k-index postprocessing applies, so a metric index
    built on it returns identical answers to every other path.  Extracted
    features are memoized per series object (identity-keyed, holding a
    strong reference to the series so ids cannot be recycled), which keeps
    repeated pivot comparisons from re-running the DFT.
    """
    extractor = SeriesFeatureExtractor(1)
    cache: dict[int, tuple[Any, Any]] = {}

    def features(series: Any):
        entry = cache.get(id(series))
        if entry is None or entry[0] is not series:
            entry = (series, extractor.extract(series))
            cache[id(series)] = entry
        return entry[1]

    def distance(a: Any, b: Any) -> float:
        return extractor.full_distance(features(a), features(b))

    return distance


# ----------------------------------------------------------------------
# the workload profile (what the advisor prices against)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfiledQuery:
    """One distinct query shape: family plus its radius or ``k``."""

    family: str
    epsilon: float | None = None
    k: int | None = None
    weight: float = 1.0


@dataclass(frozen=True)
class WorkloadProfile:
    """The advisor's view of a workload: distinct query shapes, weighted.

    ``total_queries`` counts every arrival including repeats; ``entries``
    hold only the repeat *roots* — the engine's answer cache serves exact
    repeats for free, so pricing them again would overweight hot queries.
    """

    relation: str
    entries: tuple[ProfiledQuery, ...]
    total_queries: int = 0

    @classmethod
    def from_queries(cls, relation: str, queries: Iterable[Any]) -> "WorkloadProfile":
        """Build a profile from workload queries (duck-typed: each needs
        ``family`` and optionally ``epsilon`` / ``k`` / ``repeat_of``)."""
        entries = []
        total = 0
        for query in queries:
            total += 1
            if getattr(query, "repeat_of", None):
                continue
            entries.append(
                ProfiledQuery(
                    family=query.family,
                    epsilon=getattr(query, "epsilon", None),
                    k=getattr(query, "k", None),
                )
            )
        return cls(relation=relation, entries=tuple(entries), total_queries=total)

    def __len__(self) -> int:
        return len(self.entries)


# ----------------------------------------------------------------------
# candidates and recommendations
# ----------------------------------------------------------------------
@dataclass
class CandidateConfiguration:
    """One physical design under consideration, with what-if statistics.

    ``statistics`` describe the relation *as if* the candidate were
    installed (k-index candidates carry the bulk-loaded what-if tree's
    structure summary and prefix filter histogram); ``index`` keeps the
    what-if index itself so ``autotune`` installs exactly what was priced.
    """

    kind: str  # "none" | "kindex" | "metric"
    num_coefficients: int | None
    statistics: RelationStatistics
    requires_provider: bool = False
    estimated_cost: float = math.inf
    index: Any = None

    def describe(self) -> str:
        if self.kind == "kindex":
            return f"k-index (prefix {self.num_coefficients})"
        if self.kind == "metric":
            return "metric index"
        return "no index"


@dataclass
class IndexRecommendation:
    """The advisor's ranked answer for one relation."""

    relation: str
    chosen: CandidateConfiguration
    candidates: tuple[CandidateConfiguration, ...]
    profile: WorkloadProfile

    @property
    def kind(self) -> str:
        return self.chosen.kind

    @property
    def num_coefficients(self) -> int | None:
        return self.chosen.num_coefficients

    def describe(self) -> str:
        """Multi-line report: the choice, then every priced candidate."""
        lines = [
            f"recommendation for {self.relation!r} "
            f"({len(self.profile)} distinct shapes over "
            f"{self.profile.total_queries} queries): {self.chosen.describe()}"
        ]
        for candidate in self.candidates:
            marker = "->" if candidate is self.chosen else "  "
            lines.append(
                f"  {marker} {candidate.describe():<20} "
                f"estimated {candidate.estimated_cost:.1f}"
            )
        return "\n".join(lines)


class IndexAdvisor:
    """Prices index configurations with the planner's own cost model."""

    def __init__(self, cost_model: QueryCostModel | None = None) -> None:
        self.cost_model = cost_model if cost_model is not None else QueryCostModel()

    # -- pricing -----------------------------------------------------------
    def price(
        self,
        candidate: CandidateConfiguration,
        profile: WorkloadProfile,
        cardinality: int | None = None,
    ) -> float:
        """Profile-weighted total estimated cost of one candidate."""
        n = candidate.statistics.cardinality if cardinality is None else cardinality
        return sum(
            entry.weight * self._estimate(candidate, entry, n).total
            for entry in profile.entries
        )

    def _estimate(
        self, candidate: CandidateConfiguration, entry: ProfiledQuery, cardinality: int
    ) -> CostEstimate:
        """Expected cost of one query shape under one configuration.

        The planner picks the cheapest plan *available* under the installed
        configuration — an index does not force index plans — so each
        configuration is priced as the minimum over the plan-family rows it
        makes available: those probing no index or the candidate's own.
        """
        stats = candidate.statistics
        provider = candidate.kind == "metric" or (
            candidate.kind != "kindex" and stats.kind == "provider"
        )
        domain = "provider" if provider else "feature"
        shape = entry.family if entry.family in ("range", "nearest") else "join"
        if shape == "nearest":
            argument = 1 if entry.k is None else int(entry.k)
        else:
            argument = 0.0 if entry.epsilon is None else float(entry.epsilon)
        return min(
            (
                path.estimator(self.cost_model, stats, cardinality, argument)
                for path in PLAN_FAMILIES[domain][shape]
                if path.index in (None, candidate.kind)
            ),
            key=lambda estimate: estimate.total,
        )

    # -- recommendation ----------------------------------------------------
    def recommend(
        self, database: Database, relation_name: str, profile: WorkloadProfile
    ) -> IndexRecommendation:
        """Price every candidate configuration and pick the winner."""
        candidates = self.candidates(database, relation_name)
        cardinality = len(database.relation(relation_name))
        for candidate in candidates:
            candidate.estimated_cost = self.price(candidate, profile, cardinality)
        return self.recommend_from(relation_name, profile, candidates)

    def recommend_from(
        self,
        relation_name: str,
        profile: WorkloadProfile,
        candidates: list[CandidateConfiguration],
    ) -> IndexRecommendation:
        """Pick among already-priced candidates (candidates must be ordered
        simplest first: a challenger wins only by beating the incumbent's
        estimate by more than the tie tolerance)."""
        if not candidates:
            raise CatalogError(f"no index candidates for relation {relation_name!r}")
        chosen = candidates[0]
        for challenger in candidates[1:]:
            if challenger.estimated_cost < (1.0 - TIE_TOLERANCE) * chosen.estimated_cost:
                chosen = challenger
        return IndexRecommendation(
            relation=relation_name,
            chosen=chosen,
            candidates=tuple(candidates),
            profile=profile,
        )

    # -- candidate construction --------------------------------------------
    def candidates(self, database: Database, relation_name: str) -> list[CandidateConfiguration]:
        """Build the candidate set for one relation, simplest first.

        Relations compared through a *user-registered* distance provider
        get {no index, metric index}; series relations (including ones the
        advisor itself previously moved onto the provider path) get
        {no index, k-index per prefix length, metric index}.
        """
        provider = (
            database.distance_provider(relation_name)
            if database.has_distance_provider(relation_name)
            else None
        )
        if provider is not None and provider.name != ADVISOR_PROVIDER_NAME:
            return self._provider_candidates(database, relation_name)
        try:
            database.columnar_store(relation_name)
        except Exception:
            if provider is None:
                raise CatalogError(
                    f"cannot advise on relation {relation_name!r}: its objects "
                    "are not series-like and no distance provider is registered"
                ) from None
            return self._provider_candidates(database, relation_name)
        return self._feature_candidates(database, relation_name)

    def _provider_candidates(
        self, database: Database, relation_name: str
    ) -> list[CandidateConfiguration]:
        stats = database.statistics_for(relation_name)
        return [
            CandidateConfiguration(kind="none", num_coefficients=None, statistics=stats),
            CandidateConfiguration(kind="metric", num_coefficients=None, statistics=stats),
        ]

    def _feature_candidates(
        self, database: Database, relation_name: str
    ) -> list[CandidateConfiguration]:
        relation = database.relation(relation_name)
        objects = relation.objects()
        if not objects:
            raise CatalogError(f"cannot advise on empty relation {relation_name!r}")
        base = self._base_feature_statistics(database, relation_name)
        none_stats = replace_fields(base, kind="feature", tree_summary=None, metric_summary=None)
        candidates = [
            CandidateConfiguration(kind="none", num_coefficients=None, statistics=none_stats)
        ]
        # The statistics sampler's positions: a what-if filter histogram is
        # the one ``analyze`` would collect with the candidate installed.
        positions = sample_positions(len(objects), SAMPLE_SIZE)
        for prefix in PREFIX_LENGTHS:
            index = KIndex.bulk_load(objects, SeriesFeatureExtractor(prefix))
            stats = replace_fields(
                base,
                kind="feature-indexed",
                tree_summary=index.structure_summary(),
                filter_histogram=filter_histogram(index, positions),
            )
            candidates.append(
                CandidateConfiguration(
                    kind="kindex",
                    num_coefficients=prefix,
                    statistics=stats,
                    index=index,
                )
            )
        metric_stats = replace_fields(base, kind="provider", metric_summary=None)
        candidates.append(
            CandidateConfiguration(
                kind="metric",
                num_coefficients=None,
                statistics=metric_stats,
                requires_provider=True,
            )
        )
        return candidates

    def _base_feature_statistics(
        self, database: Database, relation_name: str
    ) -> RelationStatistics:
        stats = database.statistics_for(relation_name)
        if stats is not None and stats.kind in ("feature", "feature-indexed"):
            return stats
        # Provider-configured series relation (a previous autotune moved it
        # onto the metric path): rebuild the feature view from the shared
        # columnar store, the same arrays the scan and sampler read.
        return collect_by_extraction(database, database.relation(relation_name), SAMPLE_SIZE)


# ----------------------------------------------------------------------
# installation (what Session.autotune runs)
# ----------------------------------------------------------------------
def reset_advisor_configuration(database: Database, relation_name: str) -> None:
    """Drop the ``"default"`` index and any advisor-registered provider, as
    one catalog write (the statistics are refreshed once, at its end).

    User-registered providers (any name other than
    :data:`ADVISOR_PROVIDER_NAME`) are never touched.
    """
    with database.catalog_write(relation_name):
        if database.has_index(relation_name):
            database.drop_index(relation_name)
        if (
            database.has_distance_provider(relation_name)
            and database.distance_provider(relation_name).name == ADVISOR_PROVIDER_NAME
        ):
            database.drop_distance(relation_name)


def apply_recommendation(database: Database, recommendation: IndexRecommendation) -> None:
    """Install the chosen configuration through the ordinary catalog APIs,
    as one catalog write: the reset and the registrations refresh the
    statistics once, at its end."""
    relation_name = recommendation.relation
    with database.catalog_write(relation_name):
        reset_advisor_configuration(database, relation_name)
        chosen = recommendation.chosen
        if chosen.kind == "none":
            return
        relation = database.relation(relation_name)
        if chosen.kind == "kindex":
            index = chosen.index
            if index is None or len(index) != len(relation):
                # The what-if index went stale (relation grew since advising).
                index = KIndex.bulk_load(
                    relation.objects(), SeriesFeatureExtractor(chosen.num_coefficients or 2)
                )
            database.register_index(relation_name, index)
            return
        if chosen.kind != "metric":
            raise CatalogError(f"unknown recommendation kind {chosen.kind!r}")
        if chosen.requires_provider:
            database.register_distance(
                relation_name,
                DistanceProvider(distance=series_exact_distance(), name=ADVISOR_PROVIDER_NAME),
            )
        distance = database.distance_provider(relation_name).distance
        metric = MetricIndex(distance)
        metric.extend(relation.objects())
        database.register_index(relation_name, metric)
