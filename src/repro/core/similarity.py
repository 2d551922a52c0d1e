"""The similarity engine: cost-bounded transformation distance and predicate.

This module implements the framework's central definitions generically, for
*any* domain whose objects can be compared with a base distance and rewritten
by transformations:

* :func:`transformation_distance` — the dissimilarity measure

  .. math::

     D(x, y) = \\min \\begin{cases}
        D_0(x, y) \\\\
        \\min_{T} \\bigl(cost(T) + D(T(x), y)\\bigr) \\\\
        \\min_{T} \\bigl(cost(T) + D(x, T(y))\\bigr) \\\\
        \\min_{T_1, T_2} \\bigl(cost(T_1) + cost(T_2) + D(T_1(x), T_2(y))\\bigr)
     \\end{cases}

  computed by best-first search over pairs of rewritten objects, with a cost
  budget and state limits to guarantee termination.

* :func:`is_similar` / :class:`SimilarityEngine.similar` — the predicate
  ``sim(A, e, T, c)``: object ``A`` is similar to pattern ``e`` when a
  transformation sequence drawn from ``T`` with total cost at most ``c`` maps
  ``A`` to an object matching ``e`` (for metric domains, "matching" is
  "within ``epsilon`` of a member of ``e``").

The engine is deliberately domain agnostic: a ``key`` function turns objects
into hashable state keys (so the search can detect revisits), the base
distance is injected, and the transformations come from a
:class:`~repro.core.rules.TransformationRuleSet`.  The time-series and string
packages provide convenience constructors.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .cost import AdditiveCostModel, CostModel
from .patterns import ConstantPattern, Pattern, PatternContext
from .rules import TransformationRuleSet
from .transformations import IdentityTransformation, Transformation

__all__ = [
    "default_key",
    "SimilarityResult",
    "SimilarityEngine",
    "transformation_distance",
    "is_similar",
    "engine_steps",
    "MAX_ENGINE_STEPS",
]

#: The longest transformation sequence a bounded-cost ``SIM`` query searches
#: (see :func:`engine_steps`).
MAX_ENGINE_STEPS = 12


def default_key(obj: Any, precision: int = 9) -> Any:
    """A hashable key for an arbitrary object.

    Numpy arrays are rounded to ``precision`` decimals and serialised to
    bytes; other objects are used directly when hashable and fall back to
    ``repr`` otherwise.
    """
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, np.round(obj, precision).tobytes())
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(default_key(item, precision) for item in obj))
    try:
        hash(obj)
    except TypeError:
        return ("repr", repr(obj))
    return obj


@dataclass
class SimilarityResult:
    """Outcome of a similarity evaluation.

    Attributes
    ----------
    similar:
        Whether the predicate holds.
    distance:
        The best value of ``cost + D0`` found (``math.inf`` when nothing was
        within the bounds).
    cost:
        Transformation cost of the best solution.
    base_distance:
        Residual base distance of the best solution.
    left_steps, right_steps:
        The transformation sequences applied to the left and right objects of
        the best solution (empty when none were needed).
    states_explored:
        Number of search states expanded (useful for benchmarking).
    """

    similar: bool
    distance: float = math.inf
    cost: float = 0.0
    base_distance: float = math.inf
    left_steps: list[Transformation] = field(default_factory=list)
    right_steps: list[Transformation] = field(default_factory=list)
    states_explored: int = 0


class SimilarityEngine:
    """Evaluates transformation distances and similarity predicates.

    Parameters
    ----------
    rules:
        The allowed transformations and their costs.
    base_distance:
        ``D0``; a callable ``(x, y) -> float``.
    cost_model:
        How costs combine (additive by default).
    key:
        Turns an object into a hashable search key.
    max_states:
        Hard cap on expanded search states (termination guarantee).
    max_steps_per_side:
        Longest transformation sequence considered on either object.
    """

    def __init__(self, rules: TransformationRuleSet,
                 base_distance: Callable[[Any, Any], float], *,
                 cost_model: CostModel | None = None,
                 key: Callable[[Any], Any] = default_key,
                 max_states: int = 20000,
                 max_steps_per_side: int = 4) -> None:
        self.rules = rules
        self.base_distance = base_distance
        self.cost_model = cost_model if cost_model is not None else AdditiveCostModel()
        self.key = key
        self.max_states = int(max_states)
        self.max_steps_per_side = int(max_steps_per_side)

    def _active_transformations(self) -> list[Transformation]:
        return [t for t in self.rules if not isinstance(t, IdentityTransformation)]

    def _rewriter(self, transformations: list[Transformation]):
        """A memoised ``(object, its key, rule index) -> (rewritten, key)``.

        Search states are already identified by their key (the ``visited``
        dict treats equal-key objects as the same state), so rule
        applicability — and the rewritten object itself — is a function of
        the state key and can be derived once per (state, rule) instead of
        on every heap expansion that reaches an equal state.  ``None`` marks
        a rule the domain rejected for that state.
        """
        memo: dict[tuple[Any, int], tuple[Any, Any] | None] = {}

        def rewrite(obj: Any, obj_key: Any, rule_index: int
                    ) -> tuple[Any, Any] | None:
            memo_key = (obj_key, rule_index)
            if memo_key in memo:
                return memo[memo_key]
            try:
                rewritten = transformations[rule_index].apply(obj)
            except Exception:  # noqa: BLE001 - domain transformation may reject
                rewritten = None
            entry = None if rewritten is None else (rewritten, self.key(rewritten))
            memo[memo_key] = entry
            return entry

        return rewrite

    # ------------------------------------------------------------------
    # distance
    # ------------------------------------------------------------------
    def distance(self, x: Any, y: Any, *, cost_bound: float = math.inf) -> SimilarityResult:
        """Compute the transformation distance between two objects.

        Performs a uniform-cost (Dijkstra-style) search over states
        ``(x', y')`` reachable by applying allowed transformations to either
        side.  Each expanded state contributes a candidate value
        ``accumulated cost + D0(x', y')``; the minimum over all states within
        the cost bound is returned.
        """
        counter = itertools.count()
        best = SimilarityResult(similar=False)
        transformations = self._active_transformations()
        rewrite = self._rewriter(transformations)
        # State keys ride along in the heap entries: each object is keyed
        # once when first produced, not on every pop that re-encounters it.
        heap: list[tuple[float, int, tuple[Any, Any], tuple[Any, Any, int, int],
                         list[Transformation], list[Transformation]]] = []
        heapq.heappush(heap, (0.0, next(counter), (self.key(x), self.key(y)),
                              (x, y, 0, 0), [], []))
        visited: dict[Any, float] = {}
        explored = 0
        while heap and explored < self.max_states:
            cost, _, state_key, state, left_steps, right_steps = heapq.heappop(heap)
            current_x, current_y, left_len, right_len = state
            if state_key in visited and visited[state_key] <= cost:
                continue
            visited[state_key] = cost
            explored += 1
            base = float(self.base_distance(current_x, current_y))
            total = self.cost_model.combine(cost, base) if math.isfinite(base) else math.inf
            if total < best.distance:
                best = SimilarityResult(
                    similar=True,
                    distance=total,
                    cost=cost,
                    base_distance=base,
                    left_steps=list(left_steps),
                    right_steps=list(right_steps),
                )
            # Expand: apply each transformation to either side.
            for rule_index, transformation in enumerate(transformations):
                new_cost = self.cost_model.combine(cost, transformation.cost)
                if not self.cost_model.within_budget(new_cost, cost_bound):
                    continue
                # Pruning: a state whose accumulated cost already exceeds the
                # best total found cannot improve the answer (base >= 0).
                if new_cost >= best.distance:
                    continue
                if left_len < self.max_steps_per_side:
                    entry = rewrite(current_x, state_key[0], rule_index)
                    if entry is not None:
                        new_x, new_x_key = entry
                        new_key = (new_x_key, state_key[1])
                        if not (new_key in visited and visited[new_key] <= new_cost):
                            heapq.heappush(heap, (new_cost, next(counter), new_key,
                                                  (new_x, current_y, left_len + 1,
                                                   right_len),
                                                  left_steps + [transformation],
                                                  list(right_steps)))
                if right_len < self.max_steps_per_side:
                    entry = rewrite(current_y, state_key[1], rule_index)
                    if entry is not None:
                        new_y, new_y_key = entry
                        new_key = (state_key[0], new_y_key)
                        if not (new_key in visited and visited[new_key] <= new_cost):
                            heapq.heappush(heap, (new_cost, next(counter), new_key,
                                                  (current_x, new_y, left_len,
                                                   right_len + 1),
                                                  list(left_steps),
                                                  right_steps + [transformation]))
        best.states_explored = explored
        best.similar = math.isfinite(best.distance)
        return best

    # ------------------------------------------------------------------
    # predicate
    # ------------------------------------------------------------------
    def similar(self, obj: Any, pattern: Pattern | Any, *, cost_bound: float,
                epsilon: float = 0.0,
                context: PatternContext | None = None,
                first_match: bool = False) -> SimilarityResult:
        """Evaluate ``sim(obj, pattern, rules, cost_bound)``.

        ``pattern`` may be a :class:`Pattern` or a raw object (wrapped in a
        :class:`ConstantPattern`).  The object is similar to the pattern when
        some transformation sequence of cost at most ``cost_bound`` rewrites
        it into an object within ``epsilon`` (base distance) of a member of
        the pattern; for non-metric patterns the rewritten object must
        *match* the pattern.

        ``first_match=True`` stops at the first match found.  States pop in
        cost order, so that match has minimal transformation cost and is a
        valid witness of the predicate — only its residual base distance (and
        hence the reported ``distance``) may be improvable.  Predicate-style
        callers (the query executor's ``SIM`` evaluation) use this to skip
        the exhaustive tail of the search.
        """
        if not isinstance(pattern, Pattern):
            pattern = ConstantPattern(pattern)
        counter = itertools.count()
        transformations = self._active_transformations()
        rewrite = self._rewriter(transformations)
        # As in :meth:`distance`, state keys are computed once (when a state
        # is produced) and carried in the heap entries.
        heap: list[tuple[float, int, Any, Any, list[Transformation]]] = []
        heapq.heappush(heap, (0.0, next(counter), self.key(obj), obj, []))
        visited: dict[Any, float] = {}
        explored = 0
        best = SimilarityResult(similar=False)
        targets: list[Any] | None = None
        if pattern.is_enumerable():
            try:
                targets = list(pattern.enumerate(context))
            except Exception:  # noqa: BLE001 - fall back to matches()
                targets = None
        while heap and explored < self.max_states:
            cost, _, state_key, current, steps = heapq.heappop(heap)
            if state_key in visited and visited[state_key] <= cost:
                continue
            visited[state_key] = cost
            explored += 1
            matched, residual = self._match(current, pattern, targets, epsilon, context)
            if matched:
                total = self.cost_model.combine(cost, residual)
                if total < best.distance:
                    best = SimilarityResult(similar=True, distance=total, cost=cost,
                                            base_distance=residual,
                                            left_steps=list(steps))
                # Uniform-cost search pops states in cost order, so the first
                # match is optimal in cost; keep searching only if a cheaper
                # residual could still matter to callers comparing distances.
                if first_match or residual <= 0.0:
                    break
            if len(steps) >= self.max_steps_per_side:
                continue
            for rule_index, transformation in enumerate(transformations):
                new_cost = self.cost_model.combine(cost, transformation.cost)
                if not self.cost_model.within_budget(new_cost, cost_bound):
                    continue
                entry = rewrite(current, state_key, rule_index)
                if entry is None:
                    continue
                rewritten, rewritten_key = entry
                if rewritten_key in visited and visited[rewritten_key] <= new_cost:
                    continue
                heapq.heappush(heap, (new_cost, next(counter), rewritten_key,
                                      rewritten, steps + [transformation]))
        best.states_explored = explored
        return best

    def _match(self, obj: Any, pattern: Pattern, targets: list[Any] | None,
               epsilon: float, context: PatternContext | None
               ) -> tuple[bool, float]:
        """Whether ``obj`` satisfies the pattern; returns (matched, residual D0)."""
        if targets is not None and epsilon >= 0.0:
            best = math.inf
            for target in targets:
                try:
                    d = float(self.base_distance(obj, target))
                except Exception:  # noqa: BLE001 - incomparable objects never match
                    continue
                best = min(best, d)
            if best <= epsilon:
                return True, best
            return False, best
        if pattern.matches(obj, context):
            return True, 0.0
        return False, math.inf


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------
def engine_steps(rules: TransformationRuleSet, cost_bound: float) -> int:
    """Longest transformation sequence worth searching under a cost bound —
    the executor's ``max_steps_per_side`` for a ``SIM … COST c`` candidate
    and the cost model's depth for its frontier estimate.

    :data:`MAX_ENGINE_STEPS` (together with the engine's ``max_states``) is
    the termination guarantee the framework requires of ``sim`` evaluation:
    answers beyond it would need sequences whose search frontier is
    astronomically large anyway.  The trade-off — sound answers, bounded
    search — is documented on :class:`~repro.core.query.ast.SimilarityQuery`.
    """
    cheapest = rules.cheapest()
    if cheapest is None:
        return 1
    if not math.isfinite(cost_bound) or cheapest.cost <= 0:
        return 4  # the engine's usual default; max_states still bounds the search
    # Tolerant floor: binary-inexact costs (0.6 / 0.1 -> 5.999...) must
    # not under-budget the sequence length by one.
    return max(1, min(MAX_ENGINE_STEPS, int(cost_bound / cheapest.cost + 1e-9)))


def transformation_distance(x: Any, y: Any, rules: TransformationRuleSet,
                            base_distance: Callable[[Any, Any], float], *,
                            cost_bound: float = math.inf,
                            max_states: int = 20000,
                            max_steps_per_side: int = 4,
                            key: Callable[[Any], Any] = default_key) -> float:
    """The transformation distance ``D(x, y)`` (a bare float)."""
    engine = SimilarityEngine(rules, base_distance, key=key, max_states=max_states,
                              max_steps_per_side=max_steps_per_side)
    return engine.distance(x, y, cost_bound=cost_bound).distance


def is_similar(obj: Any, pattern: Pattern | Any, rules: TransformationRuleSet,
               base_distance: Callable[[Any, Any], float], *, cost_bound: float,
               epsilon: float = 0.0, max_states: int = 20000,
               max_steps_per_side: int = 4,
               key: Callable[[Any], Any] = default_key,
               context: PatternContext | None = None) -> bool:
    """The similarity predicate ``sim(obj, pattern, rules, cost_bound)``."""
    engine = SimilarityEngine(rules, base_distance, key=key, max_states=max_states,
                              max_steps_per_side=max_steps_per_side)
    return engine.similar(obj, pattern, cost_bound=cost_bound, epsilon=epsilon,
                          context=context).similar
