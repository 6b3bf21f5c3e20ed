"""Hive-style execution: compile SQL plans into MapReduce jobs.

Table 4 lists four relational-query stacks; two execution families
matter architecturally: in-process columnar engines (Impala, Shark,
MySQL -- :mod:`repro.sql.engine`) and SQL-on-MapReduce (Hive), where the
query compiles into chained MapReduce jobs with all the framework
overhead that entails.  This module is the second family:

* SELECT/WHERE     -> one map-oriented job (filter in map, identity
  reduce with range partitioning to keep row order);
* GROUP BY + aggs  -> one job per aggregate expression (map emits
  (group key, value), reduce folds the group);
* JOIN + GROUP BY  -> a two-job plan: a repartition join keyed by the
  join column with tagged records, then the aggregation job.

Results are bit-identical to the columnar engine's (tests assert it);
only the execution costs differ -- which is the point.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.datagen.table import Table
from repro.mapreduce import Dfs, MapReduceJob, MapReduceRuntime, OpCost
from repro.sql.engine import PAPER_TABLE_RATIO, QueryResult, QueryStats
from repro.sql.parser import Query, SqlError, parse
from repro.sql.operators import Predicate

#: Tag multiplier for the repartition join: key = join_key * 2 + side.
_JOIN_TAG = 2


class _FilterJob(MapReduceJob):
    """Map-side filtering; emits (row position, selected column value)."""

    name = "hive-filter"
    group_by_key = False
    partitioner = "range"
    map_cost = OpCost(int_ops=760, branch_ops=250, fp_ops=10)

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        self.values = values
        self.mask = mask

    def map_batch(self, split, ctx):
        rows = split.payload  # row indices
        keep = rows[self.mask[rows]]
        return keep.astype(np.int64), self.values[keep].astype(np.float64)


class _AggregateJob(MapReduceJob):
    """(group key, value) -> one folded value per group."""

    name = "hive-agg"
    use_combiner = True
    map_cost = OpCost(int_ops=820, branch_ops=260, fp_ops=14, rand_writes=1)
    reduce_cost = OpCost(int_ops=300, branch_ops=90, fp_ops=10)

    _FOLDS = {
        "sum": np.add.reduceat,
        "min": np.minimum.reduceat,
        "max": np.maximum.reduceat,
    }

    def __init__(self, keys: np.ndarray, values: np.ndarray, func: str):
        self.keys = keys
        self.func = func
        if func not in ("count", "avg", "sum", "min", "max"):
            raise SqlError(f"unsupported aggregate {func!r}")
        # COUNT folds as a sum of ones so it is combiner-associative;
        # AVG is not associative at all, so its combiner is disabled.
        self.input_values = np.ones_like(values) if func == "count" else values
        if func == "avg":
            self.use_combiner = False

    def map_batch(self, split, ctx):
        rows = split.payload
        return self.keys[rows].astype(np.int64), \
            self.input_values[rows].astype(np.float64)

    def reduce_batch(self, keys, values, starts, ctx):
        if self.func == "avg":
            counts = np.diff(np.append(starts, len(values)))
            return keys, np.add.reduceat(values, starts) / counts
        fold = self._FOLDS["sum" if self.func == "count" else self.func]
        return keys, fold(values, starts)


class _RepartitionJoinJob(MapReduceJob):
    """Classic tagged repartition join.

    Map emits ``key*2 + side``; the reduce groups both sides of each join
    key together (adjacent tags) and emits the cross product as
    (dimension value, fact value) pairs for the downstream aggregation.
    """

    name = "hive-join"
    map_cost = OpCost(int_ops=900, branch_ops=300, fp_ops=12, rand_writes=1)
    reduce_cost = OpCost(int_ops=420, branch_ops=130, fp_ops=8, rand_reads=1)

    def __init__(self, left_keys, left_values, right_keys, right_values):
        self.left_keys = left_keys
        self.left_values = left_values
        self.right_keys = right_keys
        self.right_values = right_values
        self._split_at = len(left_keys)

    def map_batch(self, split, ctx):
        rows = split.payload
        left_rows = rows[rows < self._split_at]
        right_rows = rows[rows >= self._split_at] - self._split_at
        keys = np.concatenate([
            self.left_keys[left_rows] * _JOIN_TAG,
            self.right_keys[right_rows] * _JOIN_TAG + 1,
        ])
        values = np.concatenate([
            self.left_values[left_rows], self.right_values[right_rows],
        ])
        return keys.astype(np.int64), values.astype(np.float64)

    def reduce_batch(self, keys, values, starts, ctx):
        """Pair up tag-0 and tag-1 groups of each join key."""
        stops = np.append(starts[1:], len(values))
        join_keys = keys // _JOIN_TAG
        sides = keys % _JOIN_TAG
        out_keys = []
        out_values = []
        index = 0
        while index < len(keys):
            if (index + 1 < len(keys)
                    and join_keys[index] == join_keys[index + 1]
                    and sides[index] == 0 and sides[index + 1] == 1):
                left = values[starts[index]:stops[index]]
                right = values[starts[index + 1]:stops[index + 1]]
                # Cross product: (dim value, fact value) pairs.
                out_keys.append(np.repeat(left, len(right)).astype(np.int64))
                out_values.append(np.tile(right, len(left)))
                index += 2
            else:
                index += 1  # unmatched side: inner join drops it
        if not out_keys:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.astype(np.float64)
        return np.concatenate(out_keys), np.concatenate(out_values)

    def working_bytes(self, input_nbytes):
        return max(256 << 20, input_nbytes * PAPER_TABLE_RATIO // 8)

    def partition_key(self, keys):
        return keys // _JOIN_TAG


class HiveExecutor:
    """Runs the supported query shapes as MapReduce job chains."""

    def __init__(self, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER):
        from repro.uarch.perfctx import context_or_null

        self.ctx = context_or_null(ctx)
        self.cluster = cluster
        self._tables: dict = {}

    def register(self, name: str, table: Table, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._tables[name] = (table, nbytes)

    def execute(self, sql: str) -> QueryResult:
        return self.run_plan(parse(sql))

    def run_plan(self, query: Query) -> QueryResult:
        stats = QueryStats()
        # The chained MapReduce jobs each charge their own ledger; this
        # one just concatenates their phases into the query's JobCost.
        ledger = CostLedger(self.cluster, ctx=self.ctx)
        with self.ctx.span("sql:query", category="sql") as sp:
            if query.join is not None:
                result = self._join_aggregate(query, stats, ledger)
            elif query.is_aggregate:
                result = self._aggregate(query, stats, ledger)
            else:
                result = self._select(query, stats, ledger)
            stats.rows_out = result.num_rows
            sp.set("rows_scanned", stats.rows_scanned)
            sp.set("rows_out", stats.rows_out)
        return QueryResult(table=result, stats=stats, cost=ledger.job)

    # -- plans -------------------------------------------------------------------

    def _runtime(self) -> MapReduceRuntime:
        return MapReduceRuntime(cluster=self.cluster, ctx=self.ctx)

    def _lookup(self, name: str):
        try:
            return self._tables[name]
        except KeyError:
            raise SqlError(f"table {name!r} is not registered") from None

    def _row_file(self, dfs: Dfs, label: str, num_rows: int, nbytes: int):
        return dfs.put(label, np.arange(num_rows, dtype=np.int64), nbytes)

    def _mask(self, table: Table, predicates: list) -> np.ndarray:
        mask = np.ones(table.num_rows, dtype=bool)
        for predicate in predicates:
            mask &= Predicate(predicate.column, predicate.op,
                              predicate.literal).mask(table)
        return mask

    def _select(self, query: Query, stats: QueryStats,
                ledger: CostLedger) -> Table:
        table, nbytes = self._lookup(query.table.name)
        stats.rows_scanned = table.num_rows
        stats.input_bytes = nbytes
        stats.tables.append(query.table.name)
        columns = [c.split(".", 1)[-1] for c in query.select_columns] \
            or table.column_names
        mask = self._mask(table, query.where)
        stats.rows_filtered = int(mask.sum())

        file = self._row_file(Dfs(), f"hive:{query.table.name}",
                              table.num_rows, nbytes)
        job = _FilterJob(table.column(columns[0]).astype(np.float64), mask)
        result = self._runtime().run(job, file)
        ledger.absorb(result.cost)
        rows = result.output_keys
        return Table("result", {c: table.column(c)[rows] for c in columns})

    def _aggregate(self, query: Query, stats: QueryStats,
                   ledger: CostLedger) -> Table:
        table, nbytes = self._lookup(query.table.name)
        stats.rows_scanned = table.num_rows
        stats.input_bytes = nbytes
        stats.tables.append(query.table.name)
        if len(query.group_by) > 1:
            raise SqlError("Hive execution supports one GROUP BY column")
        mask = self._mask(table, query.where)
        rows = np.nonzero(mask)[0]
        stats.rows_filtered = len(rows)

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
            file = Dfs().put("hive:agg-rows", rows,
                             int(nbytes * mask.mean()) or 1)
            job = _AggregateJob(group_keys, values, aggregate.func)
            result = self._runtime().run(job, file)
            ledger.absorb(result.cost)
            folded = result.output_values
            if group_col is None and len(folded) == 0:
                # Empty relation, global aggregate: COUNT/SUM fold to 0,
                # MIN/MAX to NaN (NULL) -- matching the columnar engine.
                fill = 0.0 if aggregate.func in ("count", "sum") else np.nan
                folded = np.array([fill])
                result_keys = np.array([0], dtype=np.int64)
            else:
                result_keys = result.output_keys
            if group_values is None:
                group_values = result_keys
            out[aggregate.alias] = folded
        columns: dict = {}
        if group_col:
            columns[group_col] = group_values
        columns.update(out)
        return Table("result", columns)

    def _join_aggregate(self, query: Query, stats: QueryStats,
                        ledger: CostLedger) -> Table:
        """JOIN keyed on the ON columns, then the aggregation job.

        Supports the suite's join shape: one aggregate over the fact
        table's value column, grouped by one dimension column.
        """
        if not query.is_aggregate or len(query.group_by) != 1 \
                or len(query.aggregates) != 1:
            raise SqlError(
                "Hive execution supports JOIN only as join + single "
                "aggregate + single GROUP BY"
            )
        left_table, left_bytes = self._lookup(query.table.name)
        right_table, right_bytes = self._lookup(query.join.table.name)
        stats.rows_scanned = left_table.num_rows + right_table.num_rows
        stats.input_bytes = left_bytes + right_bytes
        stats.tables.extend([query.table.name, query.join.table.name])

        def side_of(qualified: str):
            alias, column = qualified.split(".", 1)
            if alias in (query.table.alias, query.table.name):
                return left_table, column
            return right_table, column

        left_side, left_key_col = side_of(query.join.left_column)
        right_side, right_key_col = side_of(query.join.right_column)
        group_table, group_col = side_of(query.group_by[0])
        agg = query.aggregates[0]
        value_table, value_col = side_of(agg.column)
        if agg.func != "sum":
            raise SqlError("Hive join plan supports SUM aggregates")
        if group_table is value_table:
            raise SqlError("group and value columns must come from "
                           "opposite join sides")

        # Job 1: repartition join -> (group value, fact value) pairs.
        dim, fact = (left_side, right_side) if group_table is left_side \
            else (right_side, left_side)
        dim_key = left_key_col if dim is left_side else right_key_col
        fact_key = right_key_col if dim is left_side else left_key_col
        join_job = _RepartitionJoinJob(
            dim.column(dim_key).astype(np.int64),
            dim.column(group_col).astype(np.float64),
            fact.column(fact_key).astype(np.int64),
            fact.column(value_col).astype(np.float64),
        )
        dfs = Dfs()
        total_rows = dim.num_rows + fact.num_rows
        file = dfs.put("hive:join-rows", np.arange(total_rows, dtype=np.int64),
                       left_bytes + right_bytes)
        joined = self._runtime().run(join_job, file)
        ledger.absorb(joined.cost)
        stats.rows_joined = len(joined.output_keys)

        # Job 2: group the joined pairs and fold.
        pair_file = Dfs().put(
            "hive:join-pairs",
            np.arange(len(joined.output_keys), dtype=np.int64),
            len(joined.output_keys) * 16,
        )
        agg_job = _AggregateJob(joined.output_keys, joined.output_values, "sum")
        result = self._runtime().run(agg_job, pair_file)
        ledger.absorb(result.cost)
        group_name = query.group_by[0].replace(".", "_", 1) \
            if "." in query.group_by[0] else query.group_by[0]
        return Table("result", {
            group_name: result.output_keys,
            agg.alias: result.output_values,
        })
