"""The paper's figures from the command line, and the workload-replay runner.

Two entry points live here:

* the command line — ``python -m repro.bench.harness [experiment ...]`` —
  is the repo's driver for the paper's evaluation: it runs the named
  experiments of :data:`~repro.bench.experiments.EXPERIMENTS` (Figs. 8–12,
  Table 1, the §2 examples and the ablations) at their quick default sizes
  and prints one text table each, rows carrying node accesses, candidates
  and I/O beside milliseconds (``--paper-scale`` switches to the original
  data sizes, ``--list`` prints the names);

* :func:`replay_workload` — replays a seeded
  :class:`~repro.bench.workloads.Workload` through a fresh
  :class:`~repro.core.session.Session` under a named index configuration,
  recording one :class:`ExecutionResult` row per query: the plan family the
  planner chose, optimization vs execution time (the PostBOUND-style
  split), measured I/O and distance computations in the paper's currency,
  and whether the answer cache served the query.  Replays of the same
  workload are deterministic: same seed, same per-query plan choices, same
  answers — ``tests/test_workloads.py::TestReplayDeterminism`` holds that,
  and holds the advisor to within 15% of the best configuration on the
  three standard mixes.

The milliseconds in either's rows are for reading beside the counts; a
wall-clock *claim* is measured by ``BENCHMARK.json`` + ``benchmarks/perf/``,
parent against change on one host.

The measured *weighted cost* mirrors the cost model's currency —
``io_total`` plus distance computations at the model's exchange rate
(:data:`~repro.core.query.costmodel.CPU_WEIGHT`, or the early-abandon rate
for optimised scans) — so "the advisor's configuration is within 15% of the
best" compares measurements in the same units the advisor optimised.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from ..core.advisor import ADVISOR_PROVIDER_NAME, series_exact_distance
from ..core.database import DistanceProvider
from ..core.query.costmodel import CPU_WEIGHT, EARLY_ABANDON_WEIGHT
from ..core.query.planner import (
    EngineJoinPlan,
    EngineNearestPlan,
    EngineRangePlan,
    ScanJoinPlan,
    ScanRangePlan,
)
from ..core.session import Session, connect
from ..index.kindex import KIndex
from ..index.metric import MetricIndex
from ..timeseries.features import SeriesFeatureExtractor
from .experiments import EXPERIMENTS, run_experiment
from .reporting import format_table
from .workloads import Workload

__all__ = [
    "CONFIGURATIONS",
    "ExecutionResult",
    "ReplayReport",
    "main",
    "prepare_session",
    "replay_workload",
]

_PAPER_SCALE_AWARE = {"figure8", "figure9", "figure10", "figure11", "figure12", "table1"}

#: Hand-pickable index configurations the replay harness can install.
CONFIGURATIONS = ("none", "kindex", "metric", "advisor")

#: Feature-prefix length of the hand-picked ``"kindex"`` configuration
#: (the evaluation's default of two indexed coefficients).
KINDEX_PREFIX = 2


# ----------------------------------------------------------------------
# per-query execution rows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionResult:
    """One replayed query: what ran, what it cost, what it answered.

    ``optimization_seconds`` times parse+plan (through the plan cache, so
    repeats of a shape pay ~the parse); ``execution_seconds`` is the
    engine-measured run time.  Cache-served queries report zero I/O and
    zero computations — the engine copies the *original* run's counters
    into cached outcomes, and charging them again would double-count.
    """

    label: str
    family: str
    plan_family: str
    optimization_seconds: float
    execution_seconds: float
    io_accesses: int
    distance_computations: int
    weighted_cost: float
    answer_count: int
    answer_digest: str
    from_cache: bool


@dataclass
class ReplayReport:
    """Everything one replay produced, plus the aggregate view."""

    workload: str
    configuration: str
    detail: str
    results: list[ExecutionResult] = field(default_factory=list)

    @property
    def total_weighted_cost(self) -> float:
        return sum(result.weighted_cost for result in self.results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.from_cache)

    def plan_signature(self) -> tuple[str, ...]:
        """Per-query plan choices, in arrival order (determinism witness)."""
        return tuple(result.plan_family for result in self.results)

    def answer_signature(self) -> tuple[str, ...]:
        """Per-query answer digests, in arrival order."""
        return tuple(result.answer_digest for result in self.results)


def answer_digest(answers: list[Any]) -> str:
    """Order-insensitive fingerprint of a query's answers.

    Range/nearest answers are ``(object, distance)`` pairs and joins are
    ``(left, right, distance)`` triples; objects are reduced to their names
    and distances rounded to 1e-6 (the exact distance is computed by
    different but mathematically identical kernels per plan family).
    """
    entries = []
    for answer in answers:
        if isinstance(answer, tuple) and len(answer) == 3:
            left, right, distance = answer
            entries.append((_answer_name(left), _answer_name(right), round(float(distance), 6)))
        elif isinstance(answer, tuple) and len(answer) == 2:
            obj, distance = answer
            entries.append((_answer_name(obj), "", round(float(distance), 6)))
        else:
            entries.append((_answer_name(answer), "", 0.0))
    payload = repr(sorted(entries)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _answer_name(obj: Any) -> str:
    name = getattr(obj, "name", None)
    return str(name) if name is not None else repr(obj)


def _measured_weight(plan: Any) -> float:
    """The cost model's exchange rate for this plan's distance counter."""
    if isinstance(plan, (ScanRangePlan, ScanJoinPlan)) and getattr(plan, "early_abandon", True):
        return EARLY_ABANDON_WEIGHT
    return CPU_WEIGHT


def _measured_io(plan: Any, io_total: int) -> int:
    """Measured I/O in the cost model's currency for this plan family.

    Engine plans (metric index / provider scan) run entirely in memory:
    their ``record_fetches`` counter mirrors ``postprocessed`` one-for-one
    and their ``node_accesses`` are pivot visits already charged as exact
    distances, so counting ``io_total`` on top of the distance counter
    would charge the same work twice in units the model prices as zero.
    """
    if isinstance(plan, (EngineRangePlan, EngineNearestPlan, EngineJoinPlan)):
        return 0
    return io_total


# ----------------------------------------------------------------------
# session construction per configuration
# ----------------------------------------------------------------------
def prepare_session(workload: Workload, configuration: str) -> tuple[Session, str]:
    """A fresh session holding the workload's data under one configuration.

    ``"none"`` loads bare rows; ``"kindex"`` bulk-loads the evaluation's
    default two-coefficient k-index; ``"metric"`` registers the exact
    full-record distance as a provider plus a vantage-point metric index;
    ``"advisor"`` lets :meth:`Session.autotune` pick.  Statistics are
    collected (``analyze``) after configuration, so the planner prices
    plans against the installed physical design.  Returns the session and
    a human-readable description of what was installed.
    """
    spec = workload.spec
    data = workload.data()
    session = connect()
    handle = session.relation(spec.relation, data)
    detail = configuration
    if configuration == "kindex":
        handle.with_index(KIndex.bulk_load(data, SeriesFeatureExtractor(KINDEX_PREFIX)))
    elif configuration == "metric":
        distance = series_exact_distance()
        handle.with_distance(DistanceProvider(distance=distance, name=ADVISOR_PROVIDER_NAME))
        handle.with_index(MetricIndex(distance))
    elif configuration == "advisor":
        recommendation = session.autotune(spec.relation, workload)
        detail = f"advisor: {recommendation.chosen.describe()}"
    elif configuration != "none":
        raise ValueError(f"unknown configuration {configuration!r}; choose from {CONFIGURATIONS}")
    session.analyze(spec.relation)
    return session, detail


def replay_workload(
    workload: Workload, *, configuration: str = "kindex", session: Session | None = None
) -> ReplayReport:
    """Replay a workload's queries in arrival order; one row per query.

    Pass an explicit ``session`` to replay into a prepared catalog (the
    ``configuration`` label is then purely descriptive); otherwise a fresh
    session is built via :func:`prepare_session`.
    """
    detail = configuration
    if session is None:
        session, detail = prepare_session(workload, configuration)
    results: list[ExecutionResult] = []
    for query in workload.queries:
        start = time.perf_counter()
        session.engine.plan(query.text)
        optimization = time.perf_counter() - start
        outcome = session.sql(query.text, query.bindings())
        if outcome.from_cache:
            io, computations, weighted = 0, 0, 0.0
        else:
            statistics = outcome.statistics
            io = _measured_io(outcome.plan, int(statistics.io_total))
            computations = int(statistics.postprocessed)
            weighted = io + _measured_weight(outcome.plan) * computations
        result = ExecutionResult(
            label=query.label,
            family=query.family,
            plan_family=type(outcome.plan).__name__,
            optimization_seconds=optimization,
            execution_seconds=outcome.elapsed_seconds,
            io_accesses=io,
            distance_computations=computations,
            weighted_cost=weighted,
            answer_count=len(outcome.answers),
            answer_digest=answer_digest(outcome.answers),
            from_cache=outcome.from_cache,
        )
        results.append(result)
    return ReplayReport(
        workload=workload.name, configuration=configuration, detail=detail, results=results
    )


# ----------------------------------------------------------------------
# experiment CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments", nargs="*", default=[], help="experiment names (default: all)"
    )
    parser.add_argument(
        "--paper-scale", action="store_true", help="use the original evaluation's data sizes"
    )
    parser.add_argument("--list", action="store_true", help="list experiment names and exit")
    arguments = parser.parse_args(argv)
    if arguments.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    names = arguments.experiments or sorted(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
        parameters = {}
        if arguments.paper_scale and name in _PAPER_SCALE_AWARE:
            parameters["paper_scale"] = True
        rows = run_experiment(name, **parameters)
        print(format_table(rows, title=f"== {name} =="))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
