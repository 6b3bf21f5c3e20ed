"""Prepared statements: ``prepare`` + ``run_plan(params)`` is ``execute``.

An inline statement and its ``?`` form run the same code, so over the
grammar's shapes they must agree on everything a caller can observe:
result columns, ``QueryStats``, the charged phases and -- under a real
``PerfContext`` -- every simulated event.  A bound plan outlives
re-registration with the same schema and is rebound after another one.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recording import STATEMENTS, record_inline, record_prepared
from repro.datagen.table import Table
from repro.obs.metrics import METRICS
from repro.sql import HiveExecutor, SharkExecutor, SqlEngine, SqlError
from repro.uarch import PerfContext, XEON_E5645

COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")

#: Literals as they are formatted inline and handed over as parameters:
#: small integers and quarters, exact as float64 either way.
literals = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-12, max_value=48).map(lambda q: q / 4))


def columns_of(rows, names):
    draws = {
        "K": st.integers(min_value=0, max_value=8),
        "G": st.integers(min_value=0, max_value=3),
        "V": st.integers(min_value=-12, max_value=48).map(lambda q: q / 4),
    }
    return st.tuples(*(
        st.lists(draws[n], min_size=rows, max_size=rows) for n in names
    )).map(lambda cols: {
        n: np.asarray(c, dtype=np.float64 if n == "V" else np.int64)
        for n, c in zip(names, cols)})


def tables(names):
    return st.integers(min_value=0, max_value=30).flatmap(
        lambda rows: columns_of(rows, names))


def predicates(columns):
    return st.lists(
        st.tuples(st.sampled_from(columns), st.sampled_from(COMPARATORS),
                  literals),
        min_size=1, max_size=3)


def where(conjuncts, inline):
    return " AND ".join(
        f"{column} {op} {literal if inline else '?'}"
        for column, op, literal in conjuncts)


def observe(attach, tables_):
    """Everything observable about running one statement twice on a fresh
    engine; ``attach(engine)`` returns the callable that runs it."""
    ctx = PerfContext(XEON_E5645, seed=0)
    engine = SqlEngine(ctx=ctx)
    for name, columns in tables_.items():
        engine.register(name, Table(name, columns), 11 * 3 * 40)
    run = attach(engine)
    seen = []
    for result in (run(), run()):
        # Bytes, not values: an empty group's MIN is NaN on both sides.
        seen.append([(name, str(col.dtype), col.tobytes())
                     for name, col in result.table.columns.items()])
        seen.append(result.stats)
        seen.append(result.cost.phases)
    seen.append(repr(ctx.finalize().events))
    return seen


def assert_same(tables_, template, conjuncts):
    inline = template.format(where=where(conjuncts, inline=True))
    prepared = template.format(where=where(conjuncts, inline=False))
    params = tuple(literal for _, _, literal in conjuncts)

    def bind_once(engine):
        statement = engine.prepare(prepared)
        return lambda: engine.run_plan(statement, params)

    def parse_each_time(engine):
        return lambda: engine.execute(inline)

    assert observe(bind_once, tables_) == observe(parse_each_time, tables_)


@given(tables(("K", "G", "V")), predicates(("K", "G", "V")),
       st.sampled_from(["K, V", "V", "G, K, V"]))
@settings(max_examples=60, deadline=None)
def test_filter_select(columns, conjuncts, select):
    assert_same({"t": columns},
                f"SELECT {select} FROM t WHERE {{where}}", conjuncts)


@given(tables(("K", "G", "V")), predicates(("K", "V")),
       st.sampled_from([
           "SELECT G, SUM(V) AS s, COUNT(*) AS n FROM t WHERE {where} "
           "GROUP BY G",
           "SELECT G, K, MIN(V) AS lo, MAX(V) AS hi FROM t WHERE {where} "
           "GROUP BY G, K",
           "SELECT COUNT(*) AS n, AVG(V) AS m FROM t WHERE {where}",
       ]))
@settings(max_examples=60, deadline=None)
def test_group_by_aggregate(columns, conjuncts, template):
    assert_same({"t": columns}, template, conjuncts)


@given(tables(("K", "G")), tables(("K", "V")),
       predicates(("f.V", "d.G", "f.K")))
@settings(max_examples=60, deadline=None)
def test_join_aggregate(dim, fact, conjuncts):
    assert_same(
        {"dim": dim, "fact": fact},
        "SELECT d.G, SUM(f.V) AS s FROM dim d JOIN fact f ON d.K = f.K "
        "WHERE {where} GROUP BY d.G",
        conjuncts)


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_charges_spans_and_attributes_are_the_recorded_ones(name):
    """Inline and prepared agree with each other above; here both agree
    with the order and values recorded before plans were bound once."""
    inline, prepared, params = STATEMENTS[name]
    recorded = json.loads(
        Path(__file__).with_name("engine_charges.json").read_text())[name]
    for log in (record_inline(inline), record_prepared(prepared, params)):
        assert json.loads(json.dumps(log)) == recorded


def kv(rows, **extra):
    columns = {"K": np.arange(rows, dtype=np.int64),
               "S": np.arange(rows, dtype=np.int64) * 7}
    columns.update(extra)
    return Table("kv", columns)


def plans_bound():
    return METRICS.counter("sql.plans_bound").value


class TestPlanLifetime:
    def test_survives_reregistration_with_more_rows(self):
        engine = SqlEngine()
        engine.register("kv", kv(4), 100)
        statement = engine.prepare("SELECT S FROM kv WHERE K >= ?")
        assert engine.run_plan(statement, (2,)).table.column("S").tolist() \
            == [14, 21]
        plan, bound = statement.plan, plans_bound()
        engine.register("kv", kv(6), 150)
        result = engine.run_plan(statement, (2,))
        assert result.table.column("S").tolist() == [14, 21, 28, 35]
        assert result.stats.rows_scanned == 6
        assert statement.plan is plan
        assert plans_bound() == bound

    def test_rebinds_after_a_schema_change(self):
        engine = SqlEngine()
        engine.register("kv", kv(4), 120)
        statement = engine.prepare("SELECT S FROM kv WHERE K >= ?")
        narrow = engine.run_plan(statement, (2,))
        plan, bound = statement.plan, plans_bound()
        # A third column: the same two scanned columns are now 2/3 of
        # the table's bytes, which only a fresh binding knows.
        engine.register("kv", kv(4, V=np.zeros(4)), 120)
        wide = engine.run_plan(statement, (2,))
        assert statement.plan is not plan
        assert plans_bound() == bound + 1
        assert wide.table.column("S").tolist() == [14, 21]
        assert narrow.stats.input_bytes == 120
        assert wide.stats.input_bytes == 120 * (2 / 3)
        assert wide.stats == engine.execute(
            "SELECT S FROM kv WHERE K >= 2").stats

    def test_schema_change_that_drops_a_column(self):
        engine = SqlEngine()
        engine.register("kv", kv(4), 100)
        statement = engine.prepare("SELECT S FROM kv WHERE K = ?")
        engine.run_plan(statement, (1,))
        engine.register("kv", Table("kv", {"K": np.arange(4)}), 100)
        with pytest.raises(SqlError, match="unknown column"):
            engine.run_plan(statement, (1,))

    def test_one_statement_on_two_engines(self):
        statement = SqlEngine().prepare("SELECT S FROM kv WHERE K = ?")
        for rows in (3, 5):
            engine = SqlEngine()
            engine.register("kv", kv(rows), 100)
            result = engine.run_plan(statement, (rows - 1,))
            assert result.table.column("S").tolist() == [7 * (rows - 1)]
            assert result.stats.rows_scanned == rows


class TestErrors:
    def test_wrong_parameter_count(self):
        engine = SqlEngine()
        engine.register("kv", kv(4), 100)
        statement = engine.prepare("SELECT S FROM kv WHERE K > ? AND S < ?")
        assert statement.params == 2
        for params in ((), (1,), (1, 2, 3)):
            with pytest.raises(SqlError, match="2 parameter"):
                engine.run_plan(statement, params)
        with pytest.raises(SqlError, match="1 parameter"):
            engine.execute("SELECT S FROM kv WHERE K = ?")
        with pytest.raises(SqlError, match="0 parameter"):
            engine.run_plan(engine.prepare("SELECT S FROM kv"), (1,))

    def test_unknown_column_and_table(self):
        engine = SqlEngine()
        engine.register("kv", kv(4), 100)
        with pytest.raises(SqlError, match="unknown column"):
            engine.run_plan(
                engine.prepare("SELECT S FROM kv WHERE nope = ?"), (1,))
        with pytest.raises(SqlError, match="not registered"):
            engine.run_plan(
                engine.prepare("SELECT S FROM other WHERE K = ?"), (1,))


    @pytest.mark.parametrize("executor", [HiveExecutor, SharkExecutor])
    def test_staged_executors_run_no_parameters(self, executor):
        engine = executor()
        engine.register("kv", kv(4), 100)
        statement = engine.prepare("SELECT S FROM kv WHERE K = ?")
        with pytest.raises(SqlError, match="1 parameter"):
            engine.run_plan(statement)
        with pytest.raises(SqlError, match="columnar engine only"):
            engine.run_plan(statement, (1,))


def test_bound_integers_stay_integers():
    # As float64, 2**53 + 1 rounds to 2**53: the inline literal matches
    # both rows, the bound integer exactly its own.
    big = 2 ** 53
    engine = SqlEngine()
    engine.register(
        "t", Table("t", {"K": np.array([big, big + 1], dtype=np.int64)}), 22)
    statement = engine.prepare("SELECT K FROM t WHERE K = ?")
    for key in (big, big + 1):
        assert engine.run_plan(statement, (key,)).table.column("K").tolist() \
            == [key]
    inline = engine.execute(f"SELECT K FROM t WHERE K = {big + 1}")
    assert inline.table.column("K").tolist() == [big, big + 1]
