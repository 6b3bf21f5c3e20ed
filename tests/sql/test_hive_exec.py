"""Tests for the Hive execution path: what its MapReduce job chains cost.

That Hive answers every statement as the columnar engine does is the
three-executor property in ``test_sql_properties.py``."""

import numpy as np
import pytest

from repro.datagen.table import Table
from repro.sql import HiveExecutor, SqlEngine, SqlError
from repro.uarch import PerfContext, XEON_E5645


def engines(ctx=None):
    rng = np.random.default_rng(0)
    n_orders, n_items = 400, 1600
    orders = Table("ORDERS", {
        "ORDER_ID": np.arange(n_orders, dtype=np.int64),
        "BUYER_ID": rng.integers(0, 40, n_orders).astype(np.int64),
    })
    items = Table("ITEMS", {
        "ITEM_ID": np.arange(n_items, dtype=np.int64),
        "ORDER_ID": rng.integers(0, n_orders, n_items).astype(np.int64),
        "AMOUNT": np.round(rng.random(n_items) * 50, 2),
    })
    hive = HiveExecutor(ctx=ctx)
    columnar = SqlEngine()
    for engine in (hive, columnar):
        engine.register("ORDERS", orders, 40_000)
        engine.register("ITEMS", items, 160_000)
    return hive, columnar


@pytest.fixture(scope="module")
def pair():
    return engines()


class TestHiveSpecifics:
    def test_unregistered_table(self):
        with pytest.raises(SqlError):
            HiveExecutor().execute("SELECT a FROM nope")

    def test_multi_group_by_unsupported(self, pair):
        hive, _ = pair
        with pytest.raises(SqlError):
            hive.execute("SELECT ORDER_ID, SUM(AMOUNT) AS s FROM ITEMS "
                         "GROUP BY ORDER_ID, ITEM_ID")

    def test_cost_includes_multiple_jobs(self, pair):
        hive, _ = pair
        result = hive.execute(
            "SELECT o.BUYER_ID, SUM(i.AMOUNT) AS spend FROM ORDERS o "
            "JOIN ITEMS i ON o.ORDER_ID = i.ORDER_ID GROUP BY o.BUYER_ID"
        )
        setups = [p for p in result.cost.phases if p.name == "job-setup"]
        assert len(setups) == 2  # join job + aggregation job

    def test_hive_costs_more_than_columnar(self):
        """The stack contrast: same query, MR path pays framework costs."""
        from repro.cluster.timemodel import TimeModel

        hive, columnar = engines()
        sql = ("SELECT ORDER_ID, SUM(AMOUNT) AS total FROM ITEMS "
               "GROUP BY ORDER_ID")
        tm = TimeModel(data_scale=8192)
        hive_seconds = tm.job_time(hive.execute(sql).cost)
        columnar_seconds = tm.job_time(columnar.execute(sql).cost)
        assert hive_seconds > 3 * columnar_seconds

    def test_profiled_hive_run(self):
        ctx = PerfContext(XEON_E5645, seed=0)
        hive, _ = engines(ctx)
        hive.execute("SELECT ORDER_ID, SUM(AMOUNT) AS t FROM ITEMS "
                     "GROUP BY ORDER_ID")
        events = ctx.finalize().events
        assert events.instructions > 1e5
        assert events.l1i_misses > 0
