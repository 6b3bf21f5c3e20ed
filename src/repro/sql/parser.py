"""A tiny SQL front end covering the suite's relational-query workloads.

Supports exactly the query shapes the paper's Select / Aggregate / Join
workloads need (Table 4):

    SELECT a, b FROM t WHERE a > 10 AND b <= 3
    SELECT g, SUM(x), COUNT(*) FROM t GROUP BY g
    SELECT o.C, SUM(i.X) FROM orders o JOIN items i ON o.K = i.K
        WHERE i.X > 5 GROUP BY o.C

A predicate's right-hand side is a numeric literal or ``?``.  An inline
literal is read with ``float()``, so it compares as a float64 whatever
the column's type (``K = 9007199254740993`` also matches ``2**53``); a
``?`` becomes a :class:`~repro.sql.operators.Param`, numbered left to
right, whose value is supplied per execution and compared as given.

A bare ``*`` is read only inside ``COUNT(*)``.  Parsing produces a
:class:`Query` logical plan consumed by all three executors through
their shared front end in :mod:`repro.sql.engine`: the columnar
:class:`~repro.sql.engine.SqlEngine`, Hive and Shark.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.sql.operators import Aggregate, Param, Predicate

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>-?\d+(?:\.\d+)?)"
    r"|(?P<id>[A-Za-z_][\w.]*|\*)"
    r"|(?P<sym><=|>=|!=|=|<|>|\(|\)|,|\?))"
)

_AGG_FUNCS = {"count", "sum", "avg", "min", "max"}
_KEYWORDS = {"select", "from", "where", "group", "by", "join", "on", "and", "as"}


def tokenize(sql: str) -> list:
    tokens = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            if sql[pos:].strip():
                raise SqlError(f"cannot tokenize near {sql[pos:pos + 20]!r}")
            break
        tokens.append(match.group(match.lastgroup))
        pos = match.end()
    return tokens


class SqlError(ValueError):
    """Raised for malformed or unsupported SQL."""


def _column(token: str) -> str:
    if token == "*":
        raise SqlError("* is only valid inside COUNT(*)")
    return token


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    left_column: str    # qualified, e.g. "o.ORDER_ID"
    right_column: str


@dataclass
class Query:
    """Logical plan of one supported query."""

    select_columns: list = field(default_factory=list)   # plain column refs
    aggregates: list = field(default_factory=list)       # Aggregate items
    table: TableRef = None
    join: JoinClause = None
    where: list = field(default_factory=list)            # Predicate items
    group_by: list = field(default_factory=list)
    #: Number of ``?`` placeholders; an execution supplies that many values.
    params: int = 0
    #: The statement bound to registered schemas -- owned by the front
    #: end that runs it (``run_plan`` in :mod:`repro.sql.engine`).
    plan: object = field(default=None, repr=False, compare=False)

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.params = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def next(self) -> str:
        token = self.peek()
        if not token:
            raise SqlError("unexpected end of query")
        self.pos += 1
        return token

    def expect(self, keyword: str) -> None:
        token = self.next()
        if token.lower() != keyword:
            raise SqlError(f"expected {keyword.upper()!r}, got {token!r}")

    def accept(self, keyword: str) -> bool:
        if self.peek().lower() == keyword:
            self.pos += 1
            return True
        return False

    # -- grammar ---------------------------------------------------------------

    def parse(self) -> Query:
        query = Query()
        self.expect("select")
        self._select_list(query)
        self.expect("from")
        query.table = self._table_ref()
        if self.accept("join"):
            table = self._table_ref()
            self.expect("on")
            left = _column(self.next())
            self.expect("=")
            right = _column(self.next())
            query.join = JoinClause(table=table, left_column=left, right_column=right)
        if self.accept("where"):
            query.where.append(self._predicate())
            while self.accept("and"):
                query.where.append(self._predicate())
        if self.accept("group"):
            self.expect("by")
            query.group_by.append(_column(self.next()))
            while self.accept(","):
                query.group_by.append(_column(self.next()))
        if self.peek():
            raise SqlError(f"trailing tokens starting at {self.peek()!r}")
        if query.aggregates and query.select_columns and not query.group_by:
            raise SqlError("mixing columns and aggregates requires GROUP BY")
        query.params = self.params
        return query

    def _select_list(self, query: Query) -> None:
        while True:
            item = self.next()
            lowered = item.lower()
            if lowered in _AGG_FUNCS and self.peek() == "(":
                self.next()  # (
                column = self.next()
                self.expect(")")
                if lowered != "count" and column == "*":
                    raise SqlError(f"{item}(*) is only valid for COUNT")
                alias = f"{lowered}({column})"
                if self.accept("as"):
                    alias = self.next()
                query.aggregates.append(Aggregate(lowered, column, alias))
            elif lowered in _KEYWORDS:
                raise SqlError(f"unexpected keyword {item!r} in select list")
            else:
                query.select_columns.append(_column(item))
            if not self.accept(","):
                break

    def _table_ref(self) -> TableRef:
        name = self.next()
        alias = name
        if self.peek() and self.peek().lower() not in _KEYWORDS | {"", ","} \
                and self.peek() not in ("(", ")"):
            alias = self.next()
        return TableRef(name=name, alias=alias)

    def _predicate(self) -> Predicate:
        column = _column(self.next())
        op = self.next()
        literal = self.next()
        if literal == "?":
            value = Param(self.params)
            self.params += 1
        else:
            try:
                value = float(literal)
            except ValueError:
                raise SqlError(
                    f"expected numeric literal or ?, got {literal!r}") from None
        return Predicate(column=column, op=op, literal=value)


def parse(sql: str) -> Query:
    """Parse one query string into a :class:`Query` plan."""
    return _Parser(tokenize(sql)).parse()
