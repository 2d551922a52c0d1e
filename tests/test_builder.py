"""The fluent builder: parser equivalence, immutability, misuse errors."""

from __future__ import annotations

import math

import pytest

from repro import Q, QueryBuildError
from repro.core.query.ast import (
    AllPairsQuery,
    NearestNeighborQuery,
    RangeQuery,
    SimilarityQuery,
)
from repro.core.query.builder import Param, QueryBuilder
from repro.core.query.parser import parse


class TestParserEquivalence:
    """For each query family, Q...build() == parse(textual form)."""

    @pytest.mark.parametrize("builder,text", [
        (Q.from_("stocks").within(2.0).of(Q.param("q")),
         "SELECT FROM stocks WHERE dist(object, $q) < 2.0"),
        (Q.from_("stocks").under("mavg10").within(2.0).of(Q.param("q")),
         "SELECT FROM stocks WHERE dist(object, $q) < 2.0 USING mavg10"),
        (Q.from_("stocks").within(0.5).of(Q.param("q")).raw_query(),
         "SELECT FROM stocks WHERE dist(object, $q) < .5 RAW QUERY"),
        (Q.from_("stocks").under("rev").within(1e-3).of(Q.param("q")).raw_query(),
         "SELECT FROM stocks WHERE dist(object, $q) < 1e-3 USING rev RAW QUERY"),
        (Q.from_("stocks").nearest(5).to(Q.param("q")),
         "SELECT FROM stocks NEAREST 5 TO $q"),
        (Q.from_("stocks").nearest(1).to(Q.param("q")).under("mavg10"),
         "SELECT FROM stocks NEAREST 1 TO $q USING mavg10"),
        (Q.from_("stocks").nearest(3).to(Q.param("q")).raw_query(),
         "SELECT FROM stocks NEAREST 3 TO $q RAW QUERY"),
        (Q.from_("words").similar_to(Q.param("q"), epsilon=0.5, cost=2.0),
         "SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2"),
        (Q.from_("words").similar_to(Q.param("q"), epsilon=0.5),
         "SELECT FROM words WHERE sim(object, $q) < 0.5"),
        (Q.from_("stocks").pairs_with().within(1.5),
         "SELECT PAIRS FROM stocks WHERE dist < 1.5"),
        (Q.from_("stocks").pairs_within(1.5).under("mavg20"),
         "SELECT PAIRS FROM stocks WHERE dist < 1.5 USING mavg20"),
    ])
    def test_builder_equals_parsed_text(self, builder, text):
        assert builder.build() == parse(text)

    def test_families(self):
        assert isinstance(Q.from_("r").within(1.0).of("q").build(), RangeQuery)
        assert isinstance(Q.from_("r").nearest(2).to("q").build(),
                          NearestNeighborQuery)
        assert isinstance(Q.from_("r").similar_to("q", 1.0).build(), SimilarityQuery)
        assert isinstance(Q.from_("r").pairs_within(1.0).build(), AllPairsQuery)

    def test_describe_roundtrips_through_parser(self):
        builders = [
            Q.from_("stocks").under("mavg10").within(2.5).of("q"),
            Q.from_("stocks").nearest(7).to("q").raw_query(),
            Q.from_("words").similar_to("q", epsilon=0.001, cost=3.5),
            Q.from_("stocks").pairs_within(4.0).under("m"),
        ]
        for builder in builders:
            node = builder.build()
            assert parse(node.describe()) == node
            assert str(builder) == node.describe()

    def test_unbounded_cost_matches_omitted_cost_clause(self):
        node = Q.from_("w").similar_to("q", 1.0, cost=math.inf).build()
        assert node == parse("SELECT FROM w WHERE sim(object, $q) < 1.0")


class TestParamForms:
    def test_param_object_string_and_dollar_string_agree(self):
        assert Q.from_("r").within(1.0).of(Q.param("q")).build() \
            == Q.from_("r").within(1.0).of("q").build() \
            == Q.from_("r").within(1.0).of("$q").build()

    def test_param_renders_like_surface_syntax(self):
        assert isinstance(Q.param("q"), Param)
        assert str(Q.param("q")) == "$q"

    @pytest.mark.parametrize("name", ["", "1abc", "a b", "$"])
    def test_invalid_parameter_names_rejected(self, name):
        with pytest.raises(QueryBuildError):
            Q.param(name)

    def test_non_parameter_rejected(self):
        with pytest.raises(QueryBuildError):
            Q.from_("r").within(1.0).of(42)


class TestImmutability:
    def test_shared_prefix_fans_out(self):
        base = Q.from_("stocks").under("mavg10")
        range_node = base.within(1.0).of("q").build()
        nearest_node = base.nearest(3).to("q").build()
        assert isinstance(base, QueryBuilder)
        assert base.family is None  # the prefix itself is untouched
        assert range_node.transformation == nearest_node.transformation == "mavg10"
        assert range_node != nearest_node

    def test_steps_return_new_builders(self):
        first = Q.from_("r")
        second = first.within(1.0)
        assert first is not second
        assert first.family is None and second.family == "range"

    def test_str_of_incomplete_chain_does_not_raise(self):
        assert str(Q.from_("r")) == "<incomplete unstarted query on 'r'>"
        assert str(Q.from_("r").within(1.0)) == "<incomplete range query on 'r'>"


class TestMisuse:
    def test_incomplete_chain_fails_to_build(self):
        with pytest.raises(QueryBuildError):
            Q.from_("r").build()
        with pytest.raises(QueryBuildError):
            Q.from_("r").within(1.0).build()        # range without .of()
        with pytest.raises(QueryBuildError):
            Q.from_("r").nearest(2).build()         # nearest without .to()
        with pytest.raises(QueryBuildError):
            Q.from_("r").pairs_with().build()       # pairs without .within()

    def test_wrong_step_for_family(self):
        with pytest.raises(QueryBuildError):
            Q.from_("r").nearest(2).of("q")         # .of is the range spelling
        with pytest.raises(QueryBuildError):
            Q.from_("r").within(1.0).to("q")        # .to is the nearest spelling
        with pytest.raises(QueryBuildError):
            Q.from_("r").within(1.0).nearest(2)     # family already chosen

    def test_bad_values(self):
        with pytest.raises(QueryBuildError):
            Q.from_("r").nearest(0)
        with pytest.raises(QueryBuildError):
            Q.from_("r").nearest(2.5)               # type: ignore[arg-type]
        with pytest.raises(QueryBuildError):
            Q.from_("r").within(-1.0)
        with pytest.raises(QueryBuildError):
            Q.from_("r").similar_to("q", epsilon=1.0, cost=-2.0)

    def test_sim_rejects_using(self):
        with pytest.raises(QueryBuildError):
            Q.from_("r").under("m").similar_to("q", 1.0)
        with pytest.raises(QueryBuildError):
            Q.from_("r").similar_to("q", 1.0).under("m")

    def test_sim_rejects_raw_query_in_either_order(self):
        with pytest.raises(QueryBuildError):
            Q.from_("r").similar_to("q", 1.0).raw_query()
        with pytest.raises(QueryBuildError):
            Q.from_("r").raw_query().similar_to("q", 1.0)

    def test_identifiers_restricted_to_the_parser_grammar(self):
        # Names the tokenizer cannot re-read must be rejected up front, or
        # parse(node.describe()) == node would break.
        with pytest.raises(QueryBuildError):
            Q.from_("my relation")
        with pytest.raises(QueryBuildError):
            Q.from_("café")
        with pytest.raises(QueryBuildError):
            Q.param("café")
        with pytest.raises(QueryBuildError):
            Q.from_("r").under("moving average")

    def test_pairs_rejects_cross_relation_join(self):
        with pytest.raises(QueryBuildError):
            Q.from_("stocks").pairs_with("bonds")
        # Naming the source relation is allowed — it is the supported self-join.
        node = Q.from_("stocks").pairs_with("stocks").within(1.0).build()
        assert node == parse("SELECT PAIRS FROM stocks WHERE dist < 1.0")

    def test_pairs_rejects_raw_query(self):
        with pytest.raises(QueryBuildError):
            Q.from_("r").pairs_within(1.0).raw_query()
        with pytest.raises(QueryBuildError):
            Q.from_("r").raw_query().pairs_with()

    def test_build_error_is_a_syntax_error(self):
        from repro import QuerySyntaxError
        with pytest.raises(QuerySyntaxError):
            Q.from_("r").build()


class TestEngineIntegration:
    def test_engine_accepts_builders(self):
        from repro import KIndex, SeriesFeatureExtractor, connect, random_walk_collection
        data = random_walk_collection(30, 32, seed=5)
        session = connect()
        session.relation("walks").insert_many(data) \
            .with_index(KIndex(SeriesFeatureExtractor(2)))
        builder = Q.from_("walks").within(2.0).of(Q.param("q"))
        text = "SELECT FROM walks WHERE dist(object, $q) < 2.0"
        built = session.sql(builder, q=data[0])
        textual = session.sql(text, q=data[0])
        assert [s.object_id for s, _ in built.answers] \
            == [s.object_id for s, _ in textual.answers]
        # Same AST -> the textual run hit the caches the builder run warmed.
        assert textual.from_cache

    def test_engine_rejects_foreign_objects(self):
        from repro import QueryPlanningError, connect
        with pytest.raises(QueryPlanningError):
            connect().sql(object())
