"""The statement path: one parse per text per engine, and a parser that
answers exactly as the token-at-a-time parser it replaced.

The replaced tokenizer and recursive descent are kept below as the
reference.  Hypothesis writes texts from the grammar — all four query forms,
``USING``, ``RAW QUERY``, ``COST``, keyword case, the number forms ``1e-3``,
``.5`` and ``2.5E+4`` — and mutates them one character at a time; the parser
must return an equal AST, or raise :class:`QuerySyntaxError` with the same
message and position.  The memo tests pin its scope: per engine, bounded by
``plan_cache_size``, off at 0, shared by ``sql``, ``prepare`` and the server.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import KIndex, random_walk_collection, serve
from repro.core.errors import QuerySyntaxError
from repro.core.query import executor
from repro.core.query.ast import (
    AllPairsQuery,
    NearestNeighborQuery,
    Query,
    RangeQuery,
    SimilarityQuery,
)
from repro.core.query.parser import parse, tokenize

# ---------------------------------------------------------------------------
# the replaced tokenizer and parser (the reference)
# ---------------------------------------------------------------------------
_REFERENCE_PATTERN = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<param>\$[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<symbol>[(),<>]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    position: int


def reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _REFERENCE_PATTERN.match(text, position)
        if match is None or match.end() == position:
            if text[position:].strip() == "":
                break
            raise QuerySyntaxError(f"unexpected character {text[position]!r}", position)
        position = match.end()
        for kind in ("number", "param", "ident", "symbol"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start(kind)))
                break
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: list[_Token], text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.index = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query", len(self.text))
        self.index += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if token.kind != "ident" or token.value.upper() != keyword:
            raise QuerySyntaxError(f"expected {keyword}, found {token.value!r}", token.position)

    def _expect_symbol(self, symbol: str) -> None:
        token = self._advance()
        if token.kind != "symbol" or token.value != symbol:
            raise QuerySyntaxError(f"expected {symbol!r}, found {token.value!r}", token.position)

    def _accept_keyword(self, keyword: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "ident" and token.value.upper() == keyword:
            self.index += 1
            return True
        return False

    def _identifier(self) -> str:
        token = self._advance()
        if token.kind != "ident":
            raise QuerySyntaxError(f"expected an identifier, found {token.value!r}", token.position)
        return token.value

    def _parameter(self) -> str:
        token = self._advance()
        if token.kind != "param":
            raise QuerySyntaxError(f"expected a $parameter, found {token.value!r}", token.position)
        return token.value[1:]

    def _number(self) -> float:
        token = self._advance()
        if token.kind != "number":
            raise QuerySyntaxError(f"expected a number, found {token.value!r}", token.position)
        return float(token.value)

    def _positive_integer(self) -> int:
        token = self._peek()
        value = self._number()
        if not value.is_integer() or value < 1:
            raise QuerySyntaxError(
                f"expected a positive integer, found {token.value!r}", token.position
            )
        return int(value)

    def _object_keyword(self) -> None:
        token = self._advance()
        if token.kind != "ident" or token.value.upper() != "OBJECT":
            raise QuerySyntaxError(f"expected OBJECT, found {token.value!r}", token.position)

    def parse(self) -> Query:
        self._expect_keyword("SELECT")
        if self._accept_keyword("PAIRS"):
            return self._pairs_query()
        self._expect_keyword("FROM")
        relation = self._identifier()
        if self._accept_keyword("WHERE"):
            return self._range_query(relation)
        if self._accept_keyword("NEAREST"):
            return self._nn_query(relation)
        token = self._peek()
        raise QuerySyntaxError(
            "expected WHERE or NEAREST", token.position if token else len(self.text)
        )

    def _range_query(self, relation: str) -> RangeQuery | SimilarityQuery:
        if self._accept_keyword("SIM"):
            return self._sim_query(relation)
        self._expect_keyword("DIST")
        self._expect_symbol("(")
        self._object_keyword()
        self._expect_symbol(",")
        parameter = self._parameter()
        self._expect_symbol(")")
        self._expect_symbol("<")
        epsilon = self._number()
        transformation, transform_query = self._suffix()
        self._end()
        return RangeQuery(
            relation=relation,
            transformation=transformation,
            parameter=parameter,
            epsilon=epsilon,
            transform_query=transform_query,
        )

    def _sim_query(self, relation: str) -> SimilarityQuery:
        self._expect_symbol("(")
        self._object_keyword()
        self._expect_symbol(",")
        parameter = self._parameter()
        self._expect_symbol(")")
        self._expect_symbol("<")
        epsilon = self._number()
        cost_bound = math.inf
        if self._accept_keyword("COST"):
            cost_bound = self._number()
        self._end()
        return SimilarityQuery(
            relation=relation, parameter=parameter, epsilon=epsilon, cost_bound=cost_bound
        )

    def _nn_query(self, relation: str) -> NearestNeighborQuery:
        k = self._positive_integer()
        self._expect_keyword("TO")
        parameter = self._parameter()
        transformation, transform_query = self._suffix()
        self._end()
        return NearestNeighborQuery(
            relation=relation,
            transformation=transformation,
            parameter=parameter,
            k=k,
            transform_query=transform_query,
        )

    def _pairs_query(self) -> AllPairsQuery:
        self._expect_keyword("FROM")
        relation = self._identifier()
        self._expect_keyword("WHERE")
        self._expect_keyword("DIST")
        self._expect_symbol("<")
        epsilon = self._number()
        transformation, _ = self._suffix()
        self._end()
        return AllPairsQuery(relation=relation, transformation=transformation, epsilon=epsilon)

    def _suffix(self) -> tuple[str | None, bool]:
        transformation = None
        transform_query = True
        if self._accept_keyword("USING"):
            transformation = self._identifier()
        if self._accept_keyword("RAW"):
            self._expect_keyword("QUERY")
            transform_query = False
        return transformation, transform_query

    def _end(self) -> None:
        token = self._peek()
        if token is not None:
            raise QuerySyntaxError(f"unexpected trailing input {token.value!r}", token.position)


def reference_parse(text: str) -> Query:
    return _ReferenceParser(reference_tokenize(text), text).parse()


# ---------------------------------------------------------------------------
# texts from the grammar
# ---------------------------------------------------------------------------
def _outcome(function, text: str):
    try:
        return ("ok", function(text))
    except QuerySyntaxError as error:
        return ("error", str(error), error.position)


def _keyword(word: str):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(word, upper))
    )


_SPACE = st.sampled_from([" ", " ", "  ", "\t", "\n ", ""])
_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,5}", fullmatch=True)
_NUMBER = st.one_of(
    st.sampled_from(["1e-3", ".5", "2.5E+4", "0", "3.", "12", "7.25", "1e9", "0.0"]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(repr),
)
_K = st.one_of(st.integers(min_value=0, max_value=60).map(str), st.sampled_from(["2.0", "1e1"]))


@st.composite
def query_texts(draw) -> str:
    def kw(word: str) -> str:
        return draw(_keyword(word))

    def sep() -> str:
        return draw(_SPACE)

    form = draw(st.sampled_from(["range", "sim", "nearest", "pairs"]))
    parts = [kw("SELECT")]
    if form == "pairs":
        parts += [kw("PAIRS"), kw("FROM"), draw(_IDENT), kw("WHERE"), kw("DIST"), "<"]
        parts.append(draw(_NUMBER))
    else:
        parts += [kw("FROM"), draw(_IDENT)]
        if form == "nearest":
            parts += [kw("NEAREST"), draw(_K), kw("TO"), "$" + draw(_IDENT)]
        else:
            head = kw("SIM") if form == "sim" else kw("DIST")
            noun = kw("OBJECT")
            parts += [kw("WHERE"), head, "(", noun, ",", "$" + draw(_IDENT), ")", "<"]
            parts.append(draw(_NUMBER))
    if form == "sim":
        if draw(st.booleans()):
            parts += [kw("COST"), draw(_NUMBER)]
    else:
        if draw(st.booleans()):
            parts += [kw("USING"), draw(_IDENT)]
        if form != "pairs" and draw(st.booleans()):
            parts += [kw("RAW"), kw("QUERY")]
    text = draw(_SPACE)
    for part in parts:
        text += part + sep()
    return text


_MUTATIONS = st.sampled_from(list("SELCTFROMWHEPAIRSdistn$q_(),<>.0123456789eE+- \t~# "))


@st.composite
def mutated_texts(draw) -> str:
    text = draw(query_texts())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        char = draw(_MUTATIONS)
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "replace":
            text = text[:at] + char + text[at + 1 :]
        else:
            text = text[:at] + text[at + 1 :]
    return text


class TestTheParserIsTheReference:
    @settings(max_examples=300, deadline=None)
    @given(query_texts())
    def test_grammar_texts(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @settings(max_examples=700, deadline=None)
    @given(mutated_texts())
    def test_one_character_mutations(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(query_texts(), mutated_texts()))
    def test_tokens(self, text):
        def tokens(function):
            try:
                return [(t.kind, t.value, t.position) for t in function(text)]
            except QuerySyntaxError as error:
                return ("error", str(error), error.position)

        assert tokens(tokenize) == tokens(reference_tokenize)

    def test_the_number_forms(self):
        for text, epsilon in (("1e-3", 0.001), (".5", 0.5), ("2.5E+4", 25000.0)):
            query = parse(f"select from r where DIST(object, $q) < {text} USING m raw QUERY")
            assert query == reference_parse(
                f"select from r where DIST(object, $q) < {text} USING m raw QUERY"
            )
            assert query.epsilon == epsilon and not query.transform_query

    def test_parse_keeps_no_memo(self):
        text = "SELECT FROM r WHERE DIST(OBJECT, $q) < 2.5"
        assert parse(text) == parse(text) and parse(text) is not parse(text)


# ---------------------------------------------------------------------------
# the memo's scope
# ---------------------------------------------------------------------------
TEXT = "SELECT FROM walks WHERE DIST(OBJECT, $q) < 2.0"


def _session(**options):
    data = random_walk_collection(40, 32, seed=3)
    session = repro.connect(**options)
    session.relation("walks").insert_many(data).with_index(KIndex())
    return session, data


def _ids(outcome) -> list[tuple[int, float]]:
    return [(obj.object_id, distance) for obj, distance in outcome.answers]


def _counting_parse(monkeypatch) -> list[str]:
    parsed: list[str] = []
    original = executor.parse

    def counted(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(executor, "parse", counted)
    return parsed


class TestTheMemo:
    def test_sql_prepare_and_explain_share_one_statement(self, monkeypatch):
        session, data = _session()
        parsed = _counting_parse(monkeypatch)
        session.sql(TEXT, q=data[0])
        prepared = session.prepare(TEXT)
        session.explain(TEXT)
        session.sql_many([TEXT, TEXT], [{"q": data[1]}, {"q": data[2]}])
        assert parsed == [TEXT]
        assert prepared._statement is session.engine._statement(TEXT)
        assert session.engine.planner.invocations == 1

    def test_one_memo_per_engine(self, monkeypatch):
        (first, data), (second, _) = _session(), _session()
        parsed = _counting_parse(monkeypatch)
        first.sql(TEXT, q=data[0])
        second.sql(TEXT, q=data[0])
        assert parsed == [TEXT, TEXT]
        assert first.engine._statement(TEXT) is not second.engine._statement(TEXT)

    def test_bounded_by_the_plan_cache_size(self):
        session, data = _session(plan_cache_size=2)
        for epsilon in (1.0, 2.0, 3.0):
            session.sql(f"SELECT FROM walks WHERE DIST(OBJECT, $q) < {epsilon}", q=data[0])
        assert len(session.engine._statements) == 2

    def test_off_at_zero(self, monkeypatch):
        session, data = _session(plan_cache_size=0, answer_cache_size=0)
        parsed = _counting_parse(monkeypatch)
        for _ in range(3):
            session.sql(TEXT, q=data[0])
        assert parsed == [TEXT] * 3
        assert session.engine.planner.invocations == 3
        assert len(session.engine._statements) == 0

    def test_clear_caches_drops_statements_and_their_plans(self):
        session, data = _session()
        prepared = session.prepare(TEXT)
        prepared.run(q=data[0])
        session.clear_caches()
        assert len(session.engine._statements) == 0
        prepared.run(q=data[0])
        assert session.engine.planner.invocations == 2

    def test_threads_sharing_statements_answer_as_one(self, short_gil_turns):
        """Eight threads run the same texts through one session's memo,
        statements and caches (the server's connection threads do), the memo
        smaller than the texts so statements are evicted and parsed again
        mid-run: every outcome is the single-threaded one."""
        session, data = _session(plan_cache_size=3)
        texts = [f"SELECT FROM walks WHERE DIST(OBJECT, $q) < {e}" for e in (1.0, 2.0, 4.0)]
        texts.append("SELECT FROM walks NEAREST 3 TO $q")
        expected = {
            (text, i): _ids(session.sql(text, q=data[i])) for text in texts for i in range(6)
        }
        session.clear_caches()
        invocations = session.engine.planner.invocations
        failures: list[str] = []

        def read(slot: int) -> None:
            for round_ in range(12):
                for offset, text in enumerate(texts):
                    i = (slot + round_ + offset) % 6
                    if _ids(session.sql(text, q=data[i])) != expected[(text, i)]:
                        failures.append(f"{text} q={i}")

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(session.engine._statements) <= 3
        assert session.engine.planner.invocations > invocations

    def test_a_served_sql_and_prepare_share_one_parse(self, monkeypatch):
        session, data = _session()
        parsed = _counting_parse(monkeypatch)
        with serve(session) as handle:
            with repro.client.connect(handle.address, timeout_s=5.0) as client:
                served = client.sql(TEXT, q=data[0])
                statement = client.prepare(TEXT)
                again = statement.run(q=data[0])
        assert parsed == [TEXT]
        token = session.database.state_token("walks")
        assert served.epoch == again.epoch and served.epoch[:2] == list(token[:2])
        session.close()
