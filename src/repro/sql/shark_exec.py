"""Shark-style execution: compile SQL plans into Spark RDD lineages.

The third execution family of Table 4's query stacks: Shark ran Hive's
query shapes on Spark, trading Hadoop's per-job costs for in-memory
RDDs and low per-action overheads.  Plans here compile to the engine in
:mod:`repro.spark`:

* SELECT/WHERE    -> ``filter_mask`` over row partitions;
* GROUP BY + aggs -> pair RDD + ``reduce_by_key`` (with Spark's map-side
  combining); AVG runs as SUM and COUNT folds combined at the driver;
* JOIN + GROUP BY -> tagged-pair shuffle (as the Hive plan) expressed as
  one ``reduce_by_key`` stage plus a driver-side pairing, then the
  aggregation stage.

Cached table RDDs make repeated queries cheap -- the Shark selling
point; results match the other two executors exactly (tests assert it).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.datagen.table import Table
from repro.keyed import sort_group
from repro.mapreduce.job import OpCost
from repro.spark import SparkContext
from repro.sql.engine import PAPER_TABLE_RATIO, QueryResult, QueryStats
from repro.sql.parser import Query, SqlError, parse
from repro.sql.operators import Predicate


def _sum_reducer(values, starts):
    return np.add.reduceat(values, starts)


def _min_reducer(values, starts):
    return np.minimum.reduceat(values, starts)


def _max_reducer(values, starts):
    return np.maximum.reduceat(values, starts)


_REDUCERS = {"sum": _sum_reducer, "min": _min_reducer, "max": _max_reducer}


class SharkExecutor:
    """Runs the supported query shapes as Spark stages."""

    def __init__(self, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER):
        self.cluster = cluster
        self._ctx = ctx
        self.sc = SparkContext(cluster=cluster, ctx=ctx)
        self._tables: dict = {}
        self._row_rdds: dict = {}

    @property
    def ctx(self):
        return self.sc.ctx

    @ctx.setter
    def ctx(self, value) -> None:
        self.sc = SparkContext(cluster=self.cluster, ctx=value)
        self._row_rdds.clear()

    def register(self, name: str, table: Table, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._tables[name] = (table, nbytes)
        self._row_rdds.pop(name, None)

    def execute(self, sql: str) -> QueryResult:
        return self.run_plan(parse(sql))

    def run_plan(self, query: Query) -> QueryResult:
        stats = QueryStats()
        cost_start = len(self.sc.cost.phases)
        with self.ctx.span("sql:query", category="sql") as sp:
            if query.join is not None:
                result = self._join_aggregate(query, stats)
            elif query.is_aggregate:
                result = self._aggregate(query, stats)
            else:
                result = self._select(query, stats)
            stats.rows_out = result.num_rows
            sp.set("rows_scanned", stats.rows_scanned)
            sp.set("rows_out", stats.rows_out)
        # The driver's ledger charged every action; slice off the phases
        # belonging to this query.
        ledger = CostLedger(self.cluster, ctx=self.ctx)
        ledger.absorb(self.sc.cost.phases[cost_start:])
        return QueryResult(table=result, stats=stats, cost=ledger.job)

    # -- internals ---------------------------------------------------------------

    def _lookup(self, name: str):
        try:
            return self._tables[name]
        except KeyError:
            raise SqlError(f"table {name!r} is not registered") from None

    def _rows_rdd(self, name: str):
        """A cached RDD of row indices for one registered table."""
        if name not in self._row_rdds:
            table, nbytes = self._lookup(name)
            from repro.mapreduce.hdfs import Dfs

            file = Dfs().put(f"shark:{name}",
                             np.arange(table.num_rows, dtype=np.int64), nbytes)
            self.sc.ctx.touch(f"dfs:shark:{name}", nbytes * PAPER_TABLE_RATIO)
            self._row_rdds[name] = self.sc.from_dfs(file).cache()
        return self._row_rdds[name]

    def _mask(self, table: Table, predicates: list) -> np.ndarray:
        mask = np.ones(table.num_rows, dtype=bool)
        for predicate in predicates:
            mask &= Predicate(predicate.column, predicate.op,
                              predicate.literal).mask(table)
        return mask

    def _scan_stats(self, stats: QueryStats, name: str) -> None:
        table, nbytes = self._lookup(name)
        stats.rows_scanned += table.num_rows
        stats.input_bytes += nbytes
        stats.tables.append(name)

    def _select(self, query: Query, stats: QueryStats) -> Table:
        name = query.table.name
        table, _ = self._lookup(name)
        self._scan_stats(stats, name)
        mask = self._mask(table, query.where)
        filtered = self._rows_rdd(name).filter_mask(
            lambda rows, ctx: mask[rows],
            cost=OpCost(int_ops=560, branch_ops=180, fp_ops=8),
        )
        rows = np.sort(np.concatenate(filtered.collect()))
        stats.rows_filtered = len(rows)
        columns = [c.split(".", 1)[-1] for c in query.select_columns] \
            or table.column_names
        return Table("result", {c: table.column(c)[rows] for c in columns})

    def _aggregate(self, query: Query, stats: QueryStats) -> Table:
        name = query.table.name
        table, _ = self._lookup(name)
        self._scan_stats(stats, name)
        if len(query.group_by) > 1:
            raise SqlError("Shark execution supports one GROUP BY column")
        mask = self._mask(table, query.where)
        group_col = query.group_by[0].split(".", 1)[-1] if query.group_by else None
        group_keys = (
            table.column(group_col).astype(np.int64) if group_col
            else np.zeros(table.num_rows, dtype=np.int64)
        )

        out: dict = {}
        group_values = None
        for aggregate in query.aggregates:
            column = aggregate.column.split(".", 1)[-1]
            values = (
                np.ones(table.num_rows) if aggregate.column == "*"
                else table.column(column).astype(np.float64)
            )
            keys, folded = self._fold(name, group_keys, values, mask,
                                      aggregate.func)
            if group_values is None:
                group_values = keys
            out[aggregate.alias] = folded
        columns: dict = {}
        if group_col:
            columns[group_col] = group_values
        columns.update(out)
        return Table("result", columns)

    def _fold(self, name, group_keys, values, mask, func):
        """One reduce_by_key stage; AVG folds SUM and COUNT together."""
        if func == "avg":
            keys, sums = self._fold(name, group_keys, values, mask, "sum")
            _, counts = self._fold(name, group_keys, values, mask, "count")
            return keys, sums / counts
        folded_values = np.ones_like(values) if func == "count" else values
        reducer = _REDUCERS["sum" if func == "count" else func]

        def to_pairs(rows, ctx):
            keep = rows[mask[rows]]
            return group_keys[keep], folded_values[keep]

        pairs = self._rows_rdd(name).map_partitions(
            to_pairs, cost=OpCost(int_ops=620, branch_ops=200, fp_ops=10,
                                  rand_writes=1),
        ).reduce_by_key(reducer)
        keys_list, values_list = [], []
        for part_keys, part_values in pairs.collect():
            keys_list.append(part_keys)
            values_list.append(part_values)
        keys = np.concatenate(keys_list)
        folded = np.concatenate(values_list)
        return sort_group(keys, folded)

    def _join_aggregate(self, query: Query, stats: QueryStats) -> Table:
        if not query.is_aggregate or len(query.group_by) != 1 \
                or len(query.aggregates) != 1 \
                or query.aggregates[0].func != "sum":
            raise SqlError("Shark join plan supports join + single SUM + "
                           "single GROUP BY")
        left_name = query.table.name
        right_name = query.join.table.name
        left_table, _ = self._lookup(left_name)
        right_table, _ = self._lookup(right_name)
        self._scan_stats(stats, left_name)
        self._scan_stats(stats, right_name)

        def side_of(qualified: str):
            alias, column = qualified.split(".", 1)
            if alias in (query.table.alias, query.table.name):
                return left_name, left_table, column
            return right_name, right_table, column

        _, lk_table, lk_col = side_of(query.join.left_column)
        _, rk_table, rk_col = side_of(query.join.right_column)
        group_name, group_table, group_col = side_of(query.group_by[0])
        value_name, value_table, value_col = side_of(query.aggregates[0].column)
        if group_table is value_table:
            raise SqlError("group and value columns must come from "
                           "opposite join sides")

        dim_table = group_table
        fact_table = value_table
        dim_key = (lk_col if lk_table is dim_table else rk_col)
        fact_key = (rk_col if lk_table is dim_table else lk_col)

        # Stage 1: tag and shuffle both sides by the join key.
        dim_name = group_name
        fact_name = value_name
        dim_pairs = self._rows_rdd(dim_name).map_partitions(
            lambda rows, ctx: (
                dim_table.column(dim_key).astype(np.int64)[rows] * 2,
                dim_table.column(group_col).astype(np.float64)[rows],
            ),
            cost=OpCost(int_ops=700, branch_ops=220, fp_ops=10, rand_writes=1),
        )
        fact_pairs = self._rows_rdd(fact_name).map_partitions(
            lambda rows, ctx: (
                fact_table.column(fact_key).astype(np.int64)[rows] * 2 + 1,
                fact_table.column(value_col).astype(np.float64)[rows],
            ),
            cost=OpCost(int_ops=700, branch_ops=220, fp_ops=10, rand_writes=1),
        )
        # Driver-side pairing of the shuffled groups (the join reduce).
        joined_keys, joined_values = self._pair_tagged(dim_pairs, fact_pairs)
        stats.rows_joined = len(joined_keys)

        # Stage 2: aggregate the (group value, fact value) pairs.
        pairs = self.sc.pair_source(
            joined_keys, joined_values,
            nbytes=len(joined_keys) * 16, name="shark:joined",
            from_memory=True,
        ).reduce_by_key(_sum_reducer)
        keys_list, values_list = [], []
        for part_keys, part_values in pairs.collect():
            keys_list.append(part_keys)
            values_list.append(part_values)
        keys = np.concatenate(keys_list)
        sums = np.concatenate(values_list)
        keys, sums = sort_group(keys, sums)
        column_name = query.group_by[0].replace(".", "_", 1)
        return Table("result", {
            column_name: keys,
            query.aggregates[0].alias: sums,
        })

    def _pair_tagged(self, dim_pairs, fact_pairs):
        """Group tagged pairs by join key and emit the cross products."""
        dim_map: dict = {}
        for keys, values in dim_pairs.collect():
            for key, value in zip((keys // 2).tolist(), values.tolist()):
                dim_map.setdefault(key, []).append(value)
        out_keys, out_values = [], []
        for keys, values in fact_pairs.collect():
            join_keys = (keys // 2).astype(np.int64)
            for key, value in zip(join_keys.tolist(), values.tolist()):
                for group_value in dim_map.get(key, ()):
                    out_keys.append(int(group_value))
                    out_values.append(value)
        self.sc.ctx.int_ops(40 * (len(out_keys) + len(dim_map)))
        return (np.asarray(out_keys, dtype=np.int64),
                np.asarray(out_values, dtype=np.float64))
