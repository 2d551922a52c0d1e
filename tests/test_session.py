"""The session facade: connect, relation handles, prepared statements."""

from __future__ import annotations

import pytest

from repro import (
    CatalogError,
    Database,
    KIndex,
    MetricIndex,
    PreparedQuery,
    Q,
    QueryEngine,
    QueryPlanningError,
    SeriesFeatureExtractor,
    Session,
    SessionClosedError,
    StringObject,
    connect,
    moving_average_spectral,
    random_walk_collection,
)
from repro.core.errors import IndexError_
from repro.strings import edit_distance_provider

LENGTH = 32


@pytest.fixture()
def walk_session():
    data = random_walk_collection(40, LENGTH, seed=11)
    session = connect()
    session.relation("walks").insert_many(data) \
        .with_index(KIndex(SeriesFeatureExtractor(2)))
    session.with_transformation("mavg5", moving_average_spectral(LENGTH, 5))
    return session, data


class TestConnect:
    def test_connect_creates_fresh_catalog(self):
        session = connect()
        assert isinstance(session, Session)
        assert session.database.relations() == []

    def test_connect_wraps_existing_database(self):
        database = Database("mine")
        database.create_relation("r", random_walk_collection(3, LENGTH, seed=1))
        session = connect(database)
        assert session.database is database
        assert len(session.relation("r")) == 3

    def test_engine_is_the_compat_escape_hatch(self):
        session = connect()
        assert isinstance(session.engine, QueryEngine)
        assert session.engine.database is session.database

    def test_cache_sizes_forwarded(self):
        session = connect(plan_cache_size=7, answer_cache_size=0)
        assert session.plan_cache.capacity == 7
        assert session.answer_cache.capacity == 0


class TestRelationHandle:
    def test_relation_creates_then_reuses(self):
        session = connect()
        handle = session.relation("r")
        assert "r" in session.database
        again = session.relation("r")
        assert again.relation is handle.relation

    def test_chained_registration(self):
        data = random_walk_collection(10, LENGTH, seed=3)
        session = connect()
        handle = (session.relation("walks")
                  .insert_many(data)
                  .with_index(KIndex(SeriesFeatureExtractor(2))))
        assert len(handle) == 10
        assert session.database.has_index("walks")
        # The empty index was loaded from the relation's objects.
        assert len(session.database.index("walks")) == 10

    def test_with_index_rejects_partially_loaded_index(self):
        data = random_walk_collection(10, LENGTH, seed=36)
        session = connect()
        half_index = KIndex.bulk_load(data[:5], SeriesFeatureExtractor(2))
        with pytest.raises(CatalogError, match="holds 5"):
            session.relation("walks").insert_many(data).with_index(half_index)
        assert not session.database.has_index("walks")

    @pytest.mark.parametrize("durable", [False, True])
    def test_with_index_rejects_a_non_index(self, durable, tmp_path):
        """The catalog admits a KIndex or a MetricIndex: anything else is
        refused before it is loaded, registered or logged — on the durable
        catalog too, whose reopened directory holds no trace of it."""
        path = str(tmp_path / "db") if durable else None
        session = connect(path=path)
        handle = session.relation("walks",
                                  random_walk_collection(3, LENGTH, seed=37))
        for candidate in (object(), [1, 2, 3]):
            with pytest.raises(CatalogError, match="KIndex or a MetricIndex"):
                handle.with_index(candidate)
            with pytest.raises(CatalogError, match="KIndex or a MetricIndex"):
                session.database.register_index("walks", candidate)
        assert not session.database.has_index("walks")
        if durable:
            session.close()
            with connect(path=path) as reopened:
                assert len(reopened.database.relation("walks")) == 3
                assert not reopened.database.has_index("walks")

    def test_with_index_keeps_preloaded_index(self):
        data = random_walk_collection(10, LENGTH, seed=3)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2))
        session = connect()
        session.relation("walks").insert_many(data).with_index(index)
        assert session.database.index("walks") is index
        assert len(index) == 10  # not double-loaded

    def test_with_distance(self):
        session = connect()
        provider = edit_distance_provider()
        handle = session.relation("words").with_distance(provider)
        row = handle.insert(StringObject("abc"))
        assert row.obj.text == "abc"  # insert returns the stored Row, not the handle
        assert session.database.distance_provider("words") is provider

    def test_insert_many_bumps_version_once(self):
        session = connect()
        handle = session.relation("r")
        before = handle.relation.version
        handle.insert_many(random_walk_collection(25, LENGTH, seed=9))
        assert handle.relation.version == before + 1

    def test_initial_rows(self):
        data = random_walk_collection(4, LENGTH, seed=2)
        session = connect()
        assert len(session.relation("r", data)) == 4

    def test_insert_many_after_with_index_reaches_the_index(self):
        """Regression: index-then-load order used to leave the index empty."""
        data = random_walk_collection(12, LENGTH, seed=31)
        session = connect()
        (session.relation("walks")
            .with_index(KIndex(SeriesFeatureExtractor(2)))
            .insert_many(data))
        assert len(session.database.index("walks")) == 12
        outcome = session.sql("SELECT FROM walks WHERE dist(object, $q) < 1.0",
                              q=data[0])
        assert any(s.object_id == data[0].object_id for s, _ in outcome.answers)

    def test_handle_insert_propagates_to_registered_indexes(self):
        """Regression: post-registration inserts used to miss the index."""
        data = random_walk_collection(12, LENGTH, seed=32)
        session = connect()
        handle = (session.relation("walks")
                  .insert_many(data[:-1])
                  .with_index(KIndex(SeriesFeatureExtractor(2))))
        handle.insert(data[-1])
        assert len(session.database.index("walks")) == 12
        outcome = session.sql("SELECT FROM walks WHERE dist(object, $q) < 1.0",
                              q=data[-1])
        assert any(s.object_id == data[-1].object_id for s, _ in outcome.answers)

    def test_failed_index_insert_leaves_relation_unchanged(self):
        """A handle insert commits the relation only after every registered
        index accepted the object — no silent relation/index divergence."""
        data = random_walk_collection(5, LENGTH, seed=34)
        session = connect()
        handle = session.relation("walks").insert_many(data) \
            .with_index(KIndex(SeriesFeatureExtractor(2)))
        before_version = handle.relation.version
        with pytest.raises(IndexError_, match="is not a time series"):
            handle.insert(StringObject("refused"))
        with pytest.raises(IndexError_, match="is not a time series"):
            handle.insert_many([StringObject("refused")])
        assert len(handle) == 5  # relation did not outrun its index
        assert handle.relation.version == before_version

    def test_failed_batch_leaves_the_index_in_step_with_the_relation(self):
        """Regression: the rows before the offending one used to be indexed
        (relation 40 / index 42, for good) and the error was an
        ``AttributeError``.  The index extracts the whole batch before it
        stores any of it."""
        data = random_walk_collection(42, LENGTH, seed=35)
        session = connect()
        handle = (session.relation("w").insert_many(data[:40])
                  .with_index(KIndex.bulk_load(data[:40], SeriesFeatureExtractor(2))))
        index = session.database.index("w")
        with pytest.raises(IndexError_, match="oops.*is not a time series"):
            handle.insert_many([data[40], data[41], StringObject("oops")])
        with pytest.raises(IndexError_):
            handle.insert(StringObject("oops"))
        assert len(index) == len(index.store) == len(handle) == 40
        handle.insert_many(data[40:])  # the size guards still agree
        assert len(index) == len(handle) == 42 and index.tail_rows == 2
        assert session.database.columnar_store("w") is index.store

    def test_a_row_in_the_tail_is_in_the_very_next_answer(self):
        """With the answer cache on: the insert bumps the relation's version,
        and the probe filters the unindexed tail."""
        data = random_walk_collection(301, LENGTH, seed=36)
        session = connect()
        handle = (session.relation("walks").insert_many(data[:300])
                  .with_index(KIndex.bulk_load(data[:300], SeriesFeatureExtractor(2))))
        newcomer = data[300]
        ranged = "SELECT FROM walks WHERE dist(object, $q) < 1.0"
        nearest = "SELECT FROM walks NEAREST 1 TO $q"
        for text in (ranged, nearest):
            session.sql(text, q=newcomer)
            assert session.sql(text, q=newcomer).from_cache
        assert session.sql(ranged, q=newcomer).answers == []
        handle.insert(newcomer)
        assert session.database.index("walks").tail_rows == 1
        for text in (ranged, nearest):
            outcome = session.sql(text, q=newcomer)
            assert not outcome.from_cache
            assert type(outcome.plan).__name__.startswith("Index")
            assert [(s.object_id, d) for s, d in outcome.answers] == \
                [(newcomer.object_id, 0.0)]

    def test_relation_rows_argument_propagates_to_indexes(self):
        data = random_walk_collection(6, LENGTH, seed=33)
        session = connect()
        session.relation("walks", data[:3]) \
            .with_index(KIndex(SeriesFeatureExtractor(2)))
        session.relation("walks", data[3:])  # existing relation + more rows
        assert len(session.database.index("walks")) == 6

    def test_drop_relation(self, walk_session):
        session, _ = walk_session
        session.drop_relation("walks")
        assert "walks" not in session.database
        with pytest.raises(CatalogError):
            session.database.relation("walks")

    def test_stale_handle_rejects_mutation_after_drop_and_recreate(self):
        data = random_walk_collection(4, LENGTH, seed=35)
        session = connect()
        stale = session.relation("walks").insert_many(data[:2])
        session.drop_relation("walks")
        with pytest.raises(CatalogError, match="stale handle"):
            stale.insert(data[2])
        # Recreating under the same name must not resurrect the old handle:
        # it wraps the orphaned Relation while name-based registration would
        # target the new one.
        fresh = session.relation("walks") \
            .with_index(KIndex(SeriesFeatureExtractor(2)))
        for mutate in (lambda: stale.insert(data[2]),
                       lambda: stale.insert_many(data[2:]),
                       lambda: stale.with_index(KIndex(SeriesFeatureExtractor(2)),
                                                "secondary"),
                       lambda: stale.with_distance(lambda x, y: 0.0)):
            with pytest.raises(CatalogError, match="stale handle"):
                mutate()
        fresh.insert_many(data[2:])
        assert len(fresh) == 2
        assert len(session.database.index("walks")) == 2


class TestSql:
    def test_text_and_keyword_parameters(self, walk_session):
        session, data = walk_session
        outcome = session.sql("SELECT FROM walks WHERE dist(object, $q) < 2.0",
                              q=data[0])
        assert any(s.object_id == data[0].object_id for s, _ in outcome.answers)

    def test_mapping_and_keywords_merge(self, walk_session):
        session, data = walk_session
        outcome = session.sql("SELECT FROM walks NEAREST 3 TO $q",
                              {"q": data[1]})
        keyword = session.sql("SELECT FROM walks NEAREST 3 TO $q", q=data[1])
        assert [s.object_id for s, _ in outcome.answers] \
            == [s.object_id for s, _ in keyword.answers]

    def test_sql_many(self, walk_session):
        session, data = walk_session
        text = "SELECT FROM walks WHERE dist(object, $q) < 2.0"
        outcomes = session.sql_many([text] * 4,
                                    [{"q": series} for series in data[:4]])
        assert len(outcomes) == 4

    def test_sql_many_shares_one_traversal_under_a_transformation(self, walk_session):
        session, data = walk_session
        text = "SELECT FROM walks WHERE dist(object, $q) < 2.0 USING mavg5"
        bindings = [{"q": series} for series in data[:6]]
        singles = [session.sql(text, binding) for binding in bindings]
        session.clear_caches()
        batched = session.sql_many([text] * 6, bindings)
        assert [[(s.object_id, d) for s, d in o.answers] for o in batched] == \
            [[(s.object_id, d) for s, d in o.answers] for o in singles]
        shared = {outcome.statistics.node_accesses for outcome in batched}
        assert len(shared) == 1
        assert shared.pop() < sum(o.statistics.node_accesses for o in singles)

    def test_builder_queries(self, walk_session):
        session, data = walk_session
        outcome = session.sql(
            Q.from_("walks").under("mavg5").within(2.0).of(Q.param("q")),
            q=data[0])
        assert outcome.plan.query.transformation == "mavg5"


class TestPreparedQuery:
    def test_prepare_parses_once_and_keeps_text(self, walk_session):
        session, _ = walk_session
        text = "SELECT FROM walks WHERE dist(object, $q) < 2.0"
        prepared = session.prepare(text)
        assert isinstance(prepared, PreparedQuery)
        assert prepared.text == text
        assert prepared.query.relation == "walks"

    def test_prepare_from_builder_renders_canonical_text(self, walk_session):
        session, _ = walk_session
        prepared = session.prepare(Q.from_("walks").within(2.0).of("q"))
        assert prepared.text == "SELECT FROM walks WHERE DIST(OBJECT, $q) < 2.0"

    def test_run_and_bind_agree(self, walk_session):
        session, data = walk_session
        prepared = session.prepare("SELECT FROM walks NEAREST 2 TO $q")
        direct = prepared.run(q=data[0])
        bound = prepared.bind(q=data[0]).run()
        assert [s.object_id for s, _ in direct.answers] \
            == [s.object_id for s, _ in bound.answers]

    def test_missing_parameter_raises(self, walk_session):
        session, _ = walk_session
        prepared = session.prepare("SELECT FROM walks NEAREST 2 TO $q")
        with pytest.raises(QueryPlanningError):
            prepared.run()

    def test_run_many_rejects_a_bare_mapping(self, walk_session):
        session, data = walk_session
        prepared = session.prepare("SELECT FROM walks NEAREST 2 TO $q")
        with pytest.raises(QueryPlanningError, match="sequence of binding"):
            prepared.run_many({"q": data[0]})

    def test_plans_at_most_once_per_catalog_state_across_1k_bindings(self):
        """Acceptance: 1k run_many bindings -> exactly one planner invocation."""
        data = random_walk_collection(20, LENGTH, seed=21)
        session = connect()
        session.relation("walks").insert_many(data) \
            .with_index(KIndex(SeriesFeatureExtractor(2)))
        prepared = session.prepare(Q.from_("walks").within(2.0).of("q"))
        bindings = [{"q": data[i % len(data)]} for i in range(1000)]
        outcomes = prepared.run_many(bindings)
        assert len(outcomes) == 1000
        assert session.engine.planner.invocations == 1
        # Repeating the batch still does not re-plan...
        prepared.run_many(bindings[:10])
        assert session.engine.planner.invocations == 1
        # ...until the catalog actually changes, which re-plans exactly once.
        session.relation("walks").insert(
            random_walk_collection(1, LENGTH, seed=77)[0])
        prepared.run_many(bindings[:10])
        assert session.engine.planner.invocations == 2

    def test_run_many_joins_execute_many_batching(self, walk_session):
        session, data = walk_session
        prepared = session.prepare("SELECT FROM walks WHERE dist(object, $q) < 2.0")
        bindings = [{"q": series} for series in data[:8]]
        batched = prepared.run_many(bindings)
        looped = [prepared.run(binding) for binding in bindings]
        for one, many in zip(looped, batched):
            assert sorted(s.object_id for s, _ in one.answers) \
                == sorted(s.object_id for s, _ in many.answers)

    def test_prepared_and_text_share_answer_cache(self, walk_session):
        session, data = walk_session
        text = "SELECT FROM walks WHERE dist(object, $q) < 2.0"
        session.prepare(text).run(q=data[0])
        assert session.sql(text, q=data[0]).from_cache

    def test_sql_accepts_a_prepared_query(self, walk_session):
        session, data = walk_session
        prepared = session.prepare("SELECT FROM walks NEAREST 2 TO $q")
        via_sql = session.sql(prepared, q=data[0])
        via_run = prepared.run(q=data[0])
        assert [s.object_id for s, _ in via_sql.answers] \
            == [s.object_id for s, _ in via_run.answers]

    def test_sql_and_explain_accept_a_bound_query(self, walk_session):
        session, data = walk_session
        bound = session.prepare("SELECT FROM walks NEAREST 2 TO $q") \
            .bind(q=data[0])
        assert session.explain(bound) == bound.explain()
        via_sql = session.sql(bound, q=data[0])
        assert [s.object_id for s, _ in via_sql.answers] \
            == [s.object_id for s, _ in bound.run().answers]


class TestExplain:
    def test_explain_prepared_matches_executed_plan(self, walk_session):
        session, data = walk_session
        prepared = session.prepare(
            Q.from_("walks").under("mavg5").within(2.0).of("q"))
        explained = session.explain(prepared)
        outcome = prepared.run(q=data[0])
        # Same plan cache entry: the explained plan IS the executed plan.
        assert outcome.plan is prepared.plan()
        assert type(outcome.plan).__name__ in explained
        assert "walks" in explained and "mavg5" in explained

    def test_explain_accepts_text_and_builders(self, walk_session):
        session, _ = walk_session
        text = session.explain("SELECT FROM walks NEAREST 3 TO $q")
        built = session.explain(Q.from_("walks").nearest(3).to("q"))
        assert text == built


class TestDomainGeneric:
    def test_string_relation_through_the_facade(self):
        session = connect()
        provider = edit_distance_provider()
        (session.relation("words")
            .insert_many(StringObject(w) for w in
                         ["pattern", "patter", "matter", "query"])
            .with_distance(provider)
            .with_index(MetricIndex(provider.distance, leaf_capacity=2)))
        outcome = session.sql(Q.from_("words").within(1.0).of("q"),
                              q=StringObject("patter"))
        texts = sorted(obj.text for obj, _ in outcome.answers)
        assert texts == ["matter", "patter", "pattern"]
        sim = session.sql(
            Q.from_("words").similar_to(Q.param("q"), epsilon=0.5, cost=2.0),
            q=StringObject("pattern"))
        assert any(obj.text == "patter" for obj, _ in sim.answers)


class TestClosedSessionLifecycle:
    """A closed session rejects all use with one typed error — including a
    second close, which means two owners both believe the session is
    theirs."""

    def test_double_close_raises(self):
        session = connect()
        session.close()
        with pytest.raises(SessionClosedError):
            session.close()

    def test_every_entry_point_rejects_after_close(self):
        session = connect()
        session.relation("walks").insert_many(random_walk_collection(4, 16, seed=1))
        session.close()
        with pytest.raises(SessionClosedError):
            session.sql("SELECT FROM walks WHERE dist(object, $q) < 1.0")
        with pytest.raises(SessionClosedError):
            session.relation("walks")
        with pytest.raises(SessionClosedError):
            session.prepare("SELECT FROM walks WHERE dist(object, $q) < 1.0")
        with pytest.raises(SessionClosedError):
            session.explain("SELECT FROM walks WHERE dist(object, $q) < 1.0")
        with pytest.raises(SessionClosedError):
            session.checkpoint()
        with pytest.raises(SessionClosedError):
            session.analyze("walks")

    def test_prepared_statement_dies_with_its_session(self):
        session = connect()
        session.relation("walks").insert_many(random_walk_collection(4, 16, seed=2))
        prepared = session.prepare("SELECT FROM walks WHERE dist(object, $q) < 1.0")
        session.close()
        with pytest.raises(SessionClosedError):
            prepared.run(q=random_walk_collection(1, 16, seed=3)[0])
        with pytest.raises(SessionClosedError):
            prepared.plan()

    def test_relation_handle_dies_with_its_session(self):
        session = connect()
        handle = session.relation("walks")
        session.close()
        with pytest.raises(SessionClosedError):
            handle.insert_many(random_walk_collection(2, 16, seed=4))

    def test_context_manager_still_closes_exactly_once(self):
        with connect() as session:
            session.relation("walks")
        assert session.closed
