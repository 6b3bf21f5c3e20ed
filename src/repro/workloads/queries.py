"""Relational query workloads: Select, Aggregate, Join (Table 4, 8-10).

Realtime analytics over the structured e-commerce transaction data
(Table 3 schema), executed on the Hive/Impala-like SQL engine and
verified against direct numpy references.  The metric is DPS over the
scanned input.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.core.workload import (
    DPS,
    REALTIME,
    Execution,
    Workload,
    WorkloadInfo,
    WorkloadInput,
)
from repro.sql import HiveExecutor, SharkExecutor, SqlEngine
from repro.workloads import inputs

QUERY_STACKS = ("Impala", "MySQL", "Hive", "Shark")

#: The execution family of each stack (Table 4): Hive compiles to
#: MapReduce jobs, Shark to Spark stages, and Impala/MySQL execute on the
#: in-process columnar engine.
ENGINES = {"hive": HiveExecutor, "shark": SharkExecutor,
           "impala": SqlEngine, "mysql": SqlEngine}


class _QueryWorkload(Workload):
    """Shared preparation and body: scaled ORDER/ITEM tables, one query
    repeated on the stack's engine, the DPS over every scanned byte.  A
    subclass gives its ``query`` and the ``check`` of its answer."""

    default_stack = "hive"

    #: Realtime analytics serve a query stream; repeating the query both
    #: reflects that and amortizes cache warm-up out of the measurement.
    REPETITIONS = 8

    def query(self, data) -> str:
        raise NotImplementedError

    def execute(self, prepared, ctx, cluster, stack):
        """Run the query REPETITIONS times; check the last answer."""
        engine = self._engine(prepared.payload, ctx, stack)
        sql = self.query(prepared.payload)
        result = None
        ledger = CostLedger(engine.cluster)
        total_bytes = 0.0
        for _ in range(self.REPETITIONS):
            result = engine.execute(sql)
            ledger.absorb(result.cost)
            total_bytes += result.stats.input_bytes
        return Execution(ledger.job, self.check(prepared, result),
                         input_bytes=total_bytes)

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        data = inputs.ecommerce_input(scale, seed)
        return WorkloadInput(
            payload=data, nbytes=data.nbytes, scale=scale,
            details={"orders": data.orders.num_rows,
                     "items": data.items.num_rows},
        )

    def _engine(self, data, ctx, stack: str):
        engine = ENGINES[stack](ctx=ctx)
        engine.register("ORDERS", data.orders, data.orders.nbytes)
        engine.register("ITEMS", data.items, data.items.nbytes)
        return engine


class SelectQueryWorkload(_QueryWorkload):
    """Workload 8: filtered projection over ORDERS."""

    info = WorkloadInfo(
        name="Select Query", scenario="Relational Query", app_type=REALTIME,
        data_type="structured", data_source="table",
        stacks=QUERY_STACKS, metric=DPS,
        input_description="32 x (1..32) GB data", workload_id=8,
    )

    @staticmethod
    def _threshold(data) -> int:
        return int(np.median(data.orders.column("BUYER_ID")))

    def query(self, data):
        return ("SELECT ORDER_ID, BUYER_ID FROM ORDERS "
                f"WHERE BUYER_ID < {self._threshold(data)}")

    def check(self, prepared, output):
        data = prepared.payload
        expected = int((data.orders.column("BUYER_ID")
                        < self._threshold(data)).sum())
        return {
            "rows": output.num_rows,
            "expected": expected,
            "correct": output.num_rows == expected,
        }


class AggregateQueryWorkload(_QueryWorkload):
    """Workload 9: revenue per goods id (GROUP BY + SUM)."""

    info = WorkloadInfo(
        name="Aggregate Query", scenario="Relational Query",
        app_type=REALTIME, data_type="structured", data_source="table",
        stacks=QUERY_STACKS, metric=DPS,
        input_description="32 x (1..32) GB data", workload_id=9,
    )

    def query(self, data):
        return ("SELECT GOODS_ID, SUM(GOODS_AMOUNT) AS revenue, COUNT(*) AS n "
                "FROM ITEMS GROUP BY GOODS_ID")

    def check(self, prepared, output):
        # Reference: numpy groupby.
        data = prepared.payload
        goods = data.items.column("GOODS_ID")
        amounts = data.items.column("GOODS_AMOUNT")
        expected_total = float(amounts.sum())
        got_total = float(output.table.column("revenue").sum())
        return {
            "groups": output.num_rows,
            "expected_groups": int(len(np.unique(goods))),
            "correct": (
                output.num_rows == len(np.unique(goods))
                and abs(got_total - expected_total) < 1e-6 * max(1.0, expected_total)
            ),
        }


class JoinQueryWorkload(_QueryWorkload):
    """Workload 10: per-buyer spend (JOIN + GROUP BY)."""

    info = WorkloadInfo(
        name="Join Query", scenario="Relational Query", app_type=REALTIME,
        data_type="structured", data_source="table",
        stacks=QUERY_STACKS, metric=DPS,
        input_description="32 x (1..32) GB data", workload_id=10,
    )

    def query(self, data):
        return ("SELECT o.BUYER_ID, SUM(i.GOODS_AMOUNT) AS spend FROM ORDERS o "
                "JOIN ITEMS i ON o.ORDER_ID = i.ORDER_ID GROUP BY o.BUYER_ID")

    def check(self, prepared, output):
        # Reference: map ORDER_ID -> BUYER_ID, then group amounts by buyer.
        data = prepared.payload
        order_ids = data.orders.column("ORDER_ID")
        buyers = data.orders.column("BUYER_ID")
        buyer_of = dict(zip(order_ids.tolist(), buyers.tolist()))
        item_buyers = np.array(
            [buyer_of[o] for o in data.items.column("ORDER_ID").tolist()]
        )
        expected_total = float(data.items.column("GOODS_AMOUNT").sum())
        got_total = float(output.table.column("spend").sum())
        return {
            "buyers": output.num_rows,
            "expected_buyers": int(len(np.unique(item_buyers))),
            "correct": (
                output.num_rows == len(np.unique(item_buyers))
                and abs(got_total - expected_total) < 1e-6 * max(1.0, expected_total)
            ),
        }
