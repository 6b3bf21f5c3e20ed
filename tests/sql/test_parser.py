"""Unit tests for the SQL parser."""

import pytest

from repro.sql import SqlError, parse


class TestSelect:
    def test_simple_select(self):
        query = parse("SELECT a, b FROM t")
        assert query.select_columns == ["a", "b"]
        assert query.table.name == "t"
        assert not query.is_aggregate

    def test_where_conjunction(self):
        query = parse("SELECT a FROM t WHERE a > 10 AND b <= 3.5")
        assert len(query.where) == 2
        assert query.where[0].op == ">"
        assert query.where[0].literal == 10
        assert query.where[1].literal == 3.5

    def test_table_alias(self):
        query = parse("SELECT o.a FROM orders o")
        assert query.table.name == "orders"
        assert query.table.alias == "o"


class TestAggregates:
    def test_group_by(self):
        query = parse("SELECT g, SUM(x), COUNT(*) FROM t GROUP BY g")
        assert query.group_by == ["g"]
        assert [a.func for a in query.aggregates] == ["sum", "count"]
        assert query.aggregates[1].column == "*"

    def test_alias_via_as(self):
        query = parse("SELECT SUM(x) AS total FROM t")
        assert query.aggregates[0].alias == "total"

    def test_global_aggregate(self):
        query = parse("SELECT COUNT(*) FROM t")
        assert query.is_aggregate
        assert query.group_by == []

    def test_star_only_for_count(self):
        with pytest.raises(SqlError):
            parse("SELECT SUM(*) FROM t")

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t",
        "SELECT a, * FROM t",
        "SELECT a FROM t WHERE * > 1",
        "SELECT g, COUNT(*) FROM t GROUP BY *",
        "SELECT o.a, SUM(i.b) FROM o JOIN i ON * = i.k GROUP BY o.a",
    ])
    def test_bare_star_only_inside_count(self, sql):
        with pytest.raises(SqlError, match="COUNT"):
            parse(sql)

    def test_mixed_without_group_by_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT a, SUM(x) FROM t")


class TestJoin:
    def test_join_clause(self):
        query = parse(
            "SELECT o.a, i.b FROM orders o JOIN items i ON o.k = i.k WHERE i.b > 1"
        )
        assert query.join.table.name == "items"
        assert query.join.left_column == "o.k"
        assert query.join.right_column == "i.k"
        assert query.where[0].column == "i.b"


class TestErrors:
    def test_empty(self):
        with pytest.raises(SqlError):
            parse("")

    def test_garbage(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t WHERE a > ;;;")

    def test_trailing_tokens(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t extra junk words")

    def test_non_numeric_literal(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t WHERE a = abc")

    def test_missing_from(self):
        with pytest.raises(SqlError):
            parse("SELECT a WHERE a > 1")
