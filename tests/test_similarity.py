"""Tests for the generic similarity engine (distance and predicate)."""

from __future__ import annotations

import math

from repro.core.patterns import ConstantPattern, PredicatePattern, UnionPattern
from repro.core.rules import TransformationRuleSet
from repro.core.similarity import (
    SimilarityEngine,
    default_key,
    is_similar,
    transformation_distance,
)
from repro.core.transformations import FunctionTransformation

import numpy as np


def absolute_difference(a, b) -> float:
    return abs(float(a) - float(b))


def _numeric_rules() -> TransformationRuleSet:
    return TransformationRuleSet([
        FunctionTransformation(lambda x: x + 1, cost=1.0, name="inc"),
        FunctionTransformation(lambda x: x - 1, cost=1.0, name="dec"),
        FunctionTransformation(lambda x: 2 * x, cost=3.0, name="double"),
    ])


class TestDefaultKey:
    def test_hashable_passthrough(self):
        assert default_key("abc") == "abc"
        assert default_key(5) == 5

    def test_ndarray_key_stable(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0])
        assert default_key(a) == default_key(b)
        assert default_key(a) != default_key(np.array([1.0, 2.5]))

    def test_sequence_key(self):
        assert default_key([1, 2]) == default_key((1, 2))

    def test_unhashable_fallback(self):
        class Weird:
            __hash__ = None

            def __repr__(self):
                return "weird"

        assert default_key(Weird()) == ("repr", "weird")


class TestTransformationDistance:
    def test_distance_zero_for_identical_objects(self):
        result = SimilarityEngine(_numeric_rules(), absolute_difference).distance(5, 5)
        assert result.distance == 0.0
        assert result.similar

    def test_distance_without_transformations_is_base_distance(self):
        rules = TransformationRuleSet()
        assert transformation_distance(3, 7, rules, absolute_difference) == 4.0

    def test_transformations_reduce_distance_when_cheap(self):
        # Base distance 4; 'inc' applied four times costs 4 (no gain); doubling
        # 3 -> 6 costs 3 and leaves base distance 1 for a total of 4; but
        # inc(3)=4 with cost 1 leaves distance 3 for a total of 4... the best
        # strategy mixes: double(3)=6 (cost 3) then inc -> 7 (cost 4, base 0).
        engine = SimilarityEngine(_numeric_rules(), absolute_difference,
                                  max_steps_per_side=3)
        result = engine.distance(3, 7)
        assert result.distance <= 4.0
        assert result.similar

    def test_cost_bound_limits_rewrites(self):
        engine = SimilarityEngine(_numeric_rules(), absolute_difference)
        bounded = engine.distance(0, 10, cost_bound=0.0)
        assert bounded.distance == 10.0  # only the base distance is allowed
        assert bounded.cost == 0.0

    def test_distance_is_never_worse_than_base(self):
        engine = SimilarityEngine(_numeric_rules(), absolute_difference)
        for a, b in [(0, 9), (2, 2), (-3, 3)]:
            assert engine.distance(a, b).distance <= absolute_difference(a, b)

    def test_both_sides_can_be_rewritten(self):
        # 0 and 2: incrementing the left and decrementing the right meets in
        # the middle with total cost 2 and base distance 0.
        engine = SimilarityEngine(_numeric_rules(), absolute_difference,
                                  max_steps_per_side=1)
        result = engine.distance(0, 2)
        assert result.distance <= 2.0
        if result.left_steps and result.right_steps:
            assert result.base_distance == 0.0

    def test_states_explored_reported(self):
        result = SimilarityEngine(_numeric_rules(), absolute_difference).distance(1, 2)
        assert result.states_explored >= 1


class TestSimilarityPredicate:
    def test_similar_to_constant_within_budget(self):
        rules = _numeric_rules()
        assert is_similar(3, ConstantPattern(5), rules, absolute_difference,
                          cost_bound=2.0)
        assert not is_similar(3, ConstantPattern(9), rules, absolute_difference,
                              cost_bound=2.0)

    def test_epsilon_relaxes_the_match(self):
        rules = _numeric_rules()
        assert is_similar(3, ConstantPattern(9), rules, absolute_difference,
                          cost_bound=2.0, epsilon=4.0)

    def test_predicate_pattern_target(self):
        rules = _numeric_rules()
        multiple_of_ten = PredicatePattern(lambda value: value % 10 == 0, name="x10")
        engine = SimilarityEngine(rules, absolute_difference, max_steps_per_side=3)
        assert engine.similar(8, multiple_of_ten, cost_bound=2.0).similar
        assert not engine.similar(4, multiple_of_ten, cost_bound=2.0).similar

    def test_union_pattern_picks_nearest_member(self):
        rules = _numeric_rules()
        pattern = UnionPattern([ConstantPattern(100), ConstantPattern(6)])
        result = SimilarityEngine(rules, absolute_difference).similar(
            5, pattern, cost_bound=1.0)
        assert result.similar
        assert result.cost <= 1.0

    def test_raw_object_is_wrapped_as_constant(self):
        rules = _numeric_rules()
        engine = SimilarityEngine(rules, absolute_difference)
        assert engine.similar(4, 5, cost_bound=1.0).similar

    def test_reports_witness_steps(self):
        rules = _numeric_rules()
        engine = SimilarityEngine(rules, absolute_difference)
        result = engine.similar(3, ConstantPattern(5), cost_bound=2.0)
        assert result.similar
        assert [step.name for step in result.left_steps] == ["inc", "inc"]

    def test_unreachable_target_reports_not_similar(self):
        rules = TransformationRuleSet()  # identity only
        engine = SimilarityEngine(rules, lambda a, b: 0.0 if a == b else math.inf)
        result = engine.similar("a", ConstantPattern("b"), cost_bound=10.0)
        assert not result.similar
        assert result.distance == math.inf
