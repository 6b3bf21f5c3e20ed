"""One result contract for the three SQL executors, and numpy oracles.

The columnar engine, Hive and Shark must answer every statement with the
same table: column names in order, dtypes and values.  The data are
integer-valued (``V`` is int64, or float64 holding integers), so every
sum is exact in whatever order an executor folds and the comparison is
``==``.  The numpy oracles at the end pin every executor's answer.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen.table import Table
from repro.sql import HiveExecutor, SharkExecutor, SqlEngine, SqlError

EXECUTORS = (SqlEngine, HiveExecutor, SharkExecutor)


def make_table(name, keys, values, column="V", dtype=np.float64):
    return Table(name, {"K": np.asarray(keys, dtype=np.int64),
                        column: np.asarray(values, dtype=dtype)})


def answers(sql, *tables):
    """Each executor's result table for ``sql`` over ``tables``."""
    results = []
    for executor in EXECUTORS:
        engine = executor()
        for table in tables:
            engine.register(table.name, table, max(1, table.num_rows * 16))
        results.append(engine.execute(sql).table)
    return results


def one_answer(sql, *tables) -> Table:
    """The columnar answer, after asserting Hive and Shark give it too."""
    columnar, *staged = answers(sql, *tables)
    for table in staged:
        assert list(table.columns) == list(columnar.columns), sql
        for name, expected in columnar.columns.items():
            got = table.columns[name]
            assert got.dtype == expected.dtype, (sql, name)
            assert np.array_equal(got, expected, equal_nan=True), (sql, name)
    return columnar


tables = st.integers(min_value=1, max_value=400).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=20), min_size=n, max_size=n),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n),
    )
)


def predicates(columns=("K", "V")):
    return st.lists(st.builds(
        "{} {} {}".format, st.sampled_from(columns),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(min_value=-60, max_value=60)), max_size=3)


def where(terms) -> str:
    return " WHERE " + " AND ".join(terms) if terms else ""


#: The dtype of the aggregated column: SUM/MIN/MAX answer in it.
value_dtypes = st.sampled_from([np.float64, np.int64])


@given(tables, predicates(),
       st.sampled_from(["K", "V", "K, V", "V, K"]))
@settings(max_examples=25, deadline=None)
def test_select_agrees(data, preds, columns):
    table = make_table("T", *data)
    one_answer(f"SELECT {columns} FROM T{where(preds)}", table)


@given(tables, predicates(), value_dtypes)
@settings(max_examples=25, deadline=None)
def test_group_aggregates_agree(data, preds, dtype):
    table = make_table("T", *data, dtype=dtype)
    one_answer("SELECT K, COUNT(*) AS n, SUM(V) AS s, MIN(V) AS lo, "
               f"MAX(V) AS hi, AVG(V) AS a FROM T{where(preds)} GROUP BY K",
               table)


@given(tables, predicates(), value_dtypes)
@settings(max_examples=25, deadline=None)
@example(data=([1, 2], [3, 4]), preds=["V > 60"], dtype=np.float64)
def test_global_aggregates_agree(data, preds, dtype):
    table = make_table("T", *data, dtype=dtype)
    result = one_answer(
        "SELECT COUNT(*) AS n, SUM(V) AS s, MIN(V) AS lo, MAX(V) AS hi, "
        f"AVG(V) AS a FROM T{where(preds)}", table)
    assert result.num_rows == 1
    if result.column("n")[0] == 0:
        # SQL over an empty relation: COUNT 0, SUM 0, no MIN/MAX/AVG.
        assert result.column("s").tolist() == [0.0]
        assert np.isnan([result.column(c)[0] for c in ("lo", "hi", "a")]).all()


@given(tables, tables, predicates(), predicates(("K", "G")), st.booleans(),
       value_dtypes)
@settings(max_examples=25, deadline=None)
def test_join_sum_agrees(fact_data, dim_data, fact_preds, dim_preds,
                         dim_first, dtype):
    fact = make_table("T", *fact_data, dtype=dtype)
    dim = make_table("U", dim_data[0], np.abs(dim_data[1]) % 9, "G", np.int64)
    source = "U u JOIN T t ON u.K = t.K" if dim_first \
        else "T t JOIN U u ON t.K = u.K"
    terms = [f"t.{p}" for p in fact_preds] + [f"u.{p}" for p in dim_preds]
    result = one_answer(f"SELECT u.G, SUM(t.V) AS s FROM {source}"
                        f"{where(terms)} GROUP BY u.G", fact, dim)
    assert list(result.columns) == ["U.G", "s"]


def test_join_where_filters_each_side():
    fact = make_table("T", [1, 2, 2, 3], [1, 2, 3, 4])
    dim = make_table("U", [1, 2, 5], [7, 8, 9], "G", np.int64)
    result = one_answer("SELECT u.G, SUM(t.V) AS s FROM T t JOIN U u "
                        "ON t.K = u.K WHERE t.V > 1 GROUP BY u.G", fact, dim)
    assert result.column("U.G").tolist() == [8]
    assert result.column("s").tolist() == [5.0]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("sql", [
    "SELECT NOPE FROM T",
    "SELECT K FROM T WHERE NOPE > 1",
    "SELECT * FROM T",
])
def test_bad_input_is_an_sql_error(executor, sql):
    engine = executor()
    engine.register("T", make_table("T", [1, 2], [3, 4]), 32)
    with pytest.raises(SqlError):
        engine.execute(sql)


@pytest.mark.parametrize("executor", (HiveExecutor, SharkExecutor))
@pytest.mark.parametrize("sql", [
    "SELECT V, COUNT(*) AS n FROM T GROUP BY V",
    "SELECT u.G, SUM(t.V) AS s FROM T t JOIN U u ON t.K = u.K GROUP BY u.G",
    "SELECT u.K, SUM(t.K) AS s FROM T t JOIN U u ON t.V = u.K GROUP BY u.K",
])
def test_staged_executors_key_by_integers(executor, sql):
    """Stages shuffle on int64 keys: a float group or join key would
    merge 1.5 with 1.2, so it is refused rather than answered wrongly."""
    engine = executor()
    engine.register("T", make_table("T", [1, 2, 2, 3], [1.5, 1.2, 3, 4]), 64)
    engine.register("U", make_table("U", [1, 2, 5], [7.5, 8, 9], "G"), 48)
    with pytest.raises(SqlError, match="integer"):
        engine.execute(sql)


# -- numpy oracles ------------------------------------------------------------------

@given(tables, st.integers(min_value=-60, max_value=60))
@settings(max_examples=30, deadline=None)
def test_filter_count_matches_numpy(data, threshold):
    table = make_table("T", *data)
    sql = f"SELECT COUNT(*) AS n FROM T WHERE V > {threshold}"
    expected = int((table.column("V") > threshold).sum())
    for result in answers(sql, table):
        assert int(result.column("n")[0]) == expected


@given(tables)
@settings(max_examples=25, deadline=None)
def test_group_sum_matches_numpy(data):
    table = make_table("T", *data)
    k = table.column("K")
    v = table.column("V")
    expected = {int(key): float(v[k == key].sum()) for key in np.unique(k)}
    for result in answers("SELECT K, SUM(V) AS s FROM T GROUP BY K", table):
        assert dict(zip(result.column("K").tolist(),
                        result.column("s").tolist())) == expected


@given(tables)
@settings(max_examples=20, deadline=None)
def test_min_max_match_numpy(data):
    table = make_table("T", *data)
    k = table.column("K")
    v = table.column("V")
    for result in answers(
            "SELECT K, MIN(V) AS lo, MAX(V) AS hi FROM T GROUP BY K", table):
        for key, lo, hi in zip(result.column("K"), result.column("lo"),
                               result.column("hi")):
            subset = v[k == key]
            assert lo == subset.min()
            assert hi == subset.max()


@given(tables, tables)
@settings(max_examples=15, deadline=None)
def test_join_row_count_matches_numpy(left_data, right_data):
    left_keys, left_values = left_data
    right_keys, right_values = right_data
    left = Table("L", {
        "K": np.asarray(left_keys, dtype=np.int64),
        "A": np.asarray(left_values, dtype=np.float64),
    })
    right = Table("R", {
        "K": np.asarray(right_keys, dtype=np.int64),
        "B": np.asarray(right_values, dtype=np.float64),
    })
    engine = SqlEngine()
    engine.register("L", left, 1000)
    engine.register("R", right, 1000)
    result = engine.execute(
        "SELECT l.A, r.B FROM L l JOIN R r ON l.K = r.K"
    )
    left_counts = np.bincount(left.column("K"), minlength=21)
    right_counts = np.bincount(right.column("K"), minlength=21)
    assert result.num_rows == int((left_counts * right_counts).sum())
