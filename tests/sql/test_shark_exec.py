"""Tests for the Shark (SQL-on-Spark) execution path: its cached tables
and its profile.

That Shark answers every statement as the columnar engine does is the
three-executor property in ``test_sql_properties.py``."""

import numpy as np
import pytest

from repro.datagen.table import Table
from repro.sql import SharkExecutor, SqlError
from repro.uarch import PerfContext, XEON_E5645


def items(rows=1200):
    rng = np.random.default_rng(3)
    return Table("ITEMS", {
        "ITEM_ID": np.arange(rows, dtype=np.int64),
        "ORDER_ID": rng.integers(0, 300, rows).astype(np.int64),
        "AMOUNT": np.round(rng.random(rows) * 40, 2),
    })


def shark(ctx=None):
    engine = SharkExecutor(ctx=ctx)
    engine.register("ITEMS", items(), 120_000)
    return engine


class TestSharkSpecifics:
    def test_cached_tables_make_repeats_cheap(self):
        engine = shark()
        sql = "SELECT COUNT(*) AS n FROM ITEMS"
        engine.execute(sql)
        before = engine.sc.cache_hit_bytes
        engine.execute(sql)
        assert engine.sc.cache_hit_bytes > before

    def test_registering_again_drops_the_cached_rows(self):
        engine = shark()
        sql = "SELECT COUNT(*) AS n FROM ITEMS"
        assert engine.execute(sql).table.column("n").tolist() == [1200]
        engine.register("ITEMS", items(50), 5_000)
        assert engine.execute(sql).table.column("n").tolist() == [50]

    def test_profiled_run(self):
        ctx = PerfContext(XEON_E5645, seed=0)
        shark(ctx).execute("SELECT ORDER_ID, SUM(AMOUNT) AS s FROM ITEMS "
                           "GROUP BY ORDER_ID")
        assert ctx.finalize().events.instructions > 1e5

    def test_unsupported_shapes(self):
        with pytest.raises(SqlError):
            shark().execute(
                "SELECT ORDER_ID, ITEM_ID, SUM(AMOUNT) AS s FROM ITEMS "
                "GROUP BY ORDER_ID, ITEM_ID"
            )

    def test_unregistered_table(self):
        with pytest.raises(SqlError):
            SharkExecutor().execute("SELECT a FROM nope")


class TestWorkloadSharkStack:
    @pytest.mark.parametrize("workload_name", [
        "Select Query", "Aggregate Query", "Join Query",
    ])
    def test_query_workloads_on_shark(self, workload_name):
        from repro.cluster import ClusterSpec
        from repro.core import registry

        workload = registry.create(workload_name)
        prepared = workload.prepare(1)
        result = workload.run(prepared, cluster=ClusterSpec(num_nodes=4),
                              stack="shark")
        assert result.details["correct"] is True, result.details
