"""Abstract syntax of the similarity query language ``L``.

The language is a deliberately small extension of single-relation selection
with four similarity predicates, mirroring the query classes the framework
supports:

* **range** — objects of a relation whose (transformed) distance to a query
  object is below a threshold;
* **nearest-neighbour** — the ``k`` objects closest to a query object under a
  transformation;
* **all-pairs** — pairs of objects of a relation within a threshold of each
  other under a transformation (a similarity self-join);
* **similarity** — objects a bounded-cost transformation sequence rewrites to
  within a threshold of the query object (the paper's ``sim(A, e, T, c)``
  predicate, evaluated by the generic engine).

The AST is domain neutral: nothing in it assumes the relation holds time
series — the surface syntax names the stored object ``OBJECT`` in
``DIST(OBJECT, $q)``, and which machinery answers a query
(spatial index, metric index, sequential scan or the generic similarity
engine) is the planner's decision, driven by the catalog.

Queries reference the query object and the transformation *by name*; both are
resolved at execution time from bindings supplied by the caller, which keeps
the AST purely syntactic (and hashable / comparable, convenient for testing
the parser and the planner).

The AST is produced by two front ends that are required to agree: the
textual parser (:mod:`repro.core.query.parser`) and the fluent builder
(:mod:`repro.core.query.builder`).  Every node renders itself back to
canonical surface syntax through :meth:`Query.describe`, and
``parse(node.describe()) == node`` holds for any node either front end can
produce — which is how plan explanations show the predicate and how the
equivalence tests pin the two front ends together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Query", "RangeQuery", "NearestNeighborQuery", "AllPairsQuery",
           "SimilarityQuery"]


def _number(value: float) -> str:
    """Shortest surface form of a non-negative number (``repr`` round-trips
    through the parser's number token: ``2.5``, ``0.001``, ``1e-10``)."""
    return repr(float(value))


@dataclass(frozen=True)
class Query:
    """Base class of all queries: every query targets one relation and may
    name a transformation to apply."""

    relation: str
    transformation: str | None = None

    def describe(self) -> str:
        """Canonical surface syntax of this query (parse-roundtrippable)."""
        raise NotImplementedError

    def _using(self) -> str:
        return f" USING {self.transformation}" if self.transformation else ""


@dataclass(frozen=True)
class RangeQuery(Query):
    """``SELECT FROM r WHERE dist(object, $q) < eps [USING t]``"""

    parameter: str = "query"
    epsilon: float = 0.0
    transform_query: bool = True

    def describe(self) -> str:
        raw = "" if self.transform_query else " RAW QUERY"
        return (f"SELECT FROM {self.relation} WHERE "
                f"DIST(OBJECT, ${self.parameter}) < {_number(self.epsilon)}"
                f"{self._using()}{raw}")


@dataclass(frozen=True)
class NearestNeighborQuery(Query):
    """``SELECT FROM r NEAREST k TO $q [USING t]``"""

    parameter: str = "query"
    k: int = 1
    transform_query: bool = True

    def describe(self) -> str:
        raw = "" if self.transform_query else " RAW QUERY"
        return (f"SELECT FROM {self.relation} NEAREST {self.k} "
                f"TO ${self.parameter}{self._using()}{raw}")


@dataclass(frozen=True)
class AllPairsQuery(Query):
    """``SELECT PAIRS FROM r WHERE dist < eps [USING t]``"""

    epsilon: float = 0.0

    def describe(self) -> str:
        return (f"SELECT PAIRS FROM {self.relation} WHERE "
                f"DIST < {_number(self.epsilon)}{self._using()}")


@dataclass(frozen=True)
class SimilarityQuery(Query):
    """``SELECT FROM r WHERE sim(object, $q) < eps [COST c]``

    The bounded-cost similarity predicate: an object answers when some
    transformation sequence (drawn from the relation's registered rule set)
    of total cost at most ``cost_bound`` rewrites it to within ``epsilon``
    base distance of the query object.  ``cost_bound`` defaults to
    "unbounded" — the rule set's own limits keep the search finite.

    Evaluation inherits the framework's termination guarantees: the engine
    searches under state and sequence-length limits, so answers are *sound*
    (every reported object has a genuine witness sequence) but objects
    reachable only through extremely long transformation sequences may be
    missed.  Choose cost bounds commensurate with the rule costs.
    """

    parameter: str = "query"
    epsilon: float = 0.0
    cost_bound: float = math.inf

    def describe(self) -> str:
        cost = "" if math.isinf(self.cost_bound) else f" COST {_number(self.cost_bound)}"
        return (f"SELECT FROM {self.relation} WHERE "
                f"SIM(OBJECT, ${self.parameter}) < {_number(self.epsilon)}{cost}")
