"""A small textual surface syntax for the query language.

The grammar (case insensitive keywords, ``$name`` for query-object
parameters)::

    query        := range_query | sim_query | nn_query | pairs_query
    range_query  := "SELECT" "FROM" ident
                    "WHERE" "DIST" "(" object_kw "," param ")" "<" number
                    [ "USING" ident ] [ "RAW" "QUERY" ]
    sim_query    := "SELECT" "FROM" ident
                    "WHERE" "SIM" "(" object_kw "," param ")" "<" number
                    [ "COST" number ]
    nn_query     := "SELECT" "FROM" ident "NEAREST" integer "TO" param
                    [ "USING" ident ] [ "RAW" "QUERY" ]
    pairs_query  := "SELECT" "PAIRS" "FROM" ident "WHERE" "DIST" "<" number
                    [ "USING" ident ]
    object_kw    := "OBJECT"
    param        := "$" ident
    number       := digits [ "." digits ] | "." digits, with an optional
                    exponent suffix ("1e-3", "2.5E+4", ".5")

The parser is one of two front ends over the same AST: the fluent builder
(:mod:`repro.core.query.builder`) compiles ``Q.from_(...)`` chains to nodes
equal to what ``parse`` produces for the textual form, and every AST node
renders back to canonical text via ``describe()`` such that
``parse(node.describe()) == node``.

``OBJECT`` names the stored object whatever the relation holds — the query
language is domain neutral.  ``RAW QUERY`` asks the executor *not* to apply the
transformation to the query object (by default both sides are transformed,
which is how "compare the moving averages of the two series" reads most
naturally).  ``SIM`` is the paper's bounded-cost similarity predicate; its
optional ``COST`` clause bounds the total transformation cost (unbounded when
omitted).

Examples
--------
>>> parse("SELECT FROM prices WHERE dist(object, $q) < 2.5 USING mavg20")
RangeQuery(relation='prices', transformation='mavg20', parameter='q', epsilon=2.5, transform_query=True)
>>> parse("SELECT FROM words WHERE dist(object, $q) < .5")
RangeQuery(relation='words', transformation=None, parameter='q', epsilon=0.5, transform_query=True)
>>> parse("SELECT FROM words WHERE sim(object, $q) < 1e-3 COST 2")
SimilarityQuery(relation='words', transformation=None, parameter='q', epsilon=0.001, cost_bound=2.0)
>>> parse("SELECT FROM prices NEAREST 3 TO $q")
NearestNeighborQuery(relation='prices', transformation=None, parameter='q', k=3, transform_query=True)
>>> parse("SELECT PAIRS FROM prices WHERE dist < 3.0 USING mavg20")
AllPairsQuery(relation='prices', transformation='mavg20', epsilon=3.0)
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from ..errors import QuerySyntaxError
from .ast import AllPairsQuery, NearestNeighborQuery, Query, RangeQuery, SimilarityQuery

__all__ = ["tokenize", "parse"]

_TOKEN_PATTERN = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<param>\$[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<symbol>[(),<>]))"
)


class _Token(NamedTuple):
    kind: str
    value: str
    position: int


def _scan(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, position)`` per token, in one pass of the pattern;
    an unrecognised character is reported at the start of the blank run
    before it, if any."""
    tokens = []
    position = 0
    for match in _TOKEN_PATTERN.finditer(text):
        if match.start() != position:
            break
        kind = match.lastgroup
        value = match[kind]
        position = match.end()
        tokens.append((kind, value, position - len(value)))
    if text[position:].strip():
        raise QuerySyntaxError(f"unexpected character {text[position]!r}", position)
    return tokens


def tokenize(text: str) -> list[_Token]:
    """Split query text into tokens; raises on unrecognised characters."""
    return [_Token(*token) for token in _scan(text)]


# What the parser expects next: (token kind, what the error names, accepted
# upper-cased values — empty for any value of the kind).
def _keyword(word: str) -> tuple:
    return ("ident", word, (word,))


def _symbol(symbol: str) -> tuple:
    return ("symbol", repr(symbol), (symbol,))


_IDENT = ("ident", "an identifier", ())
_PARAM = ("param", "a $parameter", ())
_NUMBER = ("number", "a number", ())
_SELECT, _FROM, _WHERE, _DIST, _TO, _QUERY = map(
    _keyword, ("SELECT", "FROM", "WHERE", "DIST", "TO", "QUERY"))
#: ``( OBJECT , $param ) < number`` after DIST or SIM.
_PREDICATE = (_symbol("("), ("ident", "OBJECT", ("OBJECT",)),
              _symbol(","), _PARAM, _symbol(")"), _symbol("<"), _NUMBER)


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str) -> None:
        self.tokens = _scan(text)
        self.text = text
        self.index = 0

    def _expect(self, *items: tuple) -> list[str]:
        """The next tokens' text, one token per item; the syntax error naming
        what was expected at the first token that does not fit."""
        tokens, index, found = self.tokens, self.index, []
        for kind, expected, values in items:
            if index >= len(tokens):
                raise QuerySyntaxError("unexpected end of query", len(self.text))
            token_kind, value, position = tokens[index]
            if token_kind != kind or (values and value.upper() not in values):
                raise QuerySyntaxError(f"expected {expected}, found {value!r}", position)
            found.append(value)
            index += 1
        self.index = index
        return found

    def _accept(self, keyword: str) -> bool:
        if self.index < len(self.tokens):
            kind, value, _ = self.tokens[self.index]
            if kind == "ident" and value.upper() == keyword:
                self.index += 1
                return True
        return False

    # -- grammar -------------------------------------------------------------
    def parse(self) -> Query:
        self._expect(_SELECT)
        if self._accept("PAIRS"):
            _, relation, _, _, _, epsilon = self._expect(
                _FROM, _IDENT, _WHERE, _DIST, _symbol("<"), _NUMBER)
            transformation, _ = self._suffix()
            return AllPairsQuery(relation=relation, transformation=transformation,
                                 epsilon=float(epsilon))
        _, relation = self._expect(_FROM, _IDENT)
        if self._accept("WHERE"):
            if self._accept("SIM"):
                _, _, _, parameter, _, _, epsilon = self._expect(*_PREDICATE)
                cost_bound = math.inf
                if self._accept("COST"):
                    cost_bound = float(self._expect(_NUMBER)[0])
                self._end()
                return SimilarityQuery(relation=relation, parameter=parameter[1:],
                                       epsilon=float(epsilon), cost_bound=cost_bound)
            _, _, _, _, parameter, _, _, epsilon = self._expect(_DIST, *_PREDICATE)
            transformation, transform_query = self._suffix()
            return RangeQuery(relation=relation, transformation=transformation,
                              parameter=parameter[1:], epsilon=float(epsilon),
                              transform_query=transform_query)
        if self._accept("NEAREST"):
            k = float(self._expect(_NUMBER)[0])
            if not k.is_integer() or k < 1:
                _, value, position = self.tokens[self.index - 1]
                raise QuerySyntaxError(f"expected a positive integer, found {value!r}",
                                       position)
            _, parameter = self._expect(_TO, _PARAM)
            transformation, transform_query = self._suffix()
            return NearestNeighborQuery(relation=relation, transformation=transformation,
                                        parameter=parameter[1:], k=int(k),
                                        transform_query=transform_query)
        self._end("expected WHERE or NEAREST")
        raise QuerySyntaxError("expected WHERE or NEAREST", len(self.text))

    def _suffix(self) -> tuple[str | None, bool]:
        """``[USING ident] [RAW QUERY]``, then the end of the text."""
        transformation = self._expect(_IDENT)[0] if self._accept("USING") else None
        transform_query = not self._accept("RAW")
        if not transform_query:
            self._expect(_QUERY)
        self._end()
        return transformation, transform_query

    def _end(self, message: str = "") -> None:
        """Raise at the next token, if there is one: ``message``, or the
        trailing input named."""
        if self.index < len(self.tokens):
            _, value, position = self.tokens[self.index]
            raise QuerySyntaxError(message or f"unexpected trailing input {value!r}",
                                   position)


def parse(text: str) -> Query:
    """Parse query text into an AST node.  A pure function with no memo of
    its own: a session keeps its parsed statements per engine."""
    return _Parser(text).parse()
