"""Hive-style execution: lower bound SQL plans to MapReduce jobs.

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

The shared front end (:class:`repro.sql.engine._Staged`) parses, binds
and resolves the statement (refusing float group or join keys); the
statements it runs answer as the columnar engine does (a property test
asserts it), only the execution costs differ -- which is the point.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce import Dfs, MapReduceJob, MapReduceRuntime, OpCost
from repro.sql.engine import PAPER_TABLE_RATIO, _Staged
from repro.sql.operators import FOLDS

#: Tag multiplier for the repartition join: key = join_key * 2 + side.
_JOIN_TAG = 2


class _FilterJob(MapReduceJob):
    """Map-side filtering; emits (row position, selected column value)."""

    name = "hive-filter"
    group_by_key = False
    partitioner = "range"
    map_cost = OpCost(int_ops=760, branch_ops=250, fp_ops=10)

    def __init__(self, part):
        self.part = part

    def map_batch(self, split, ctx):
        rows = split.payload  # row indices
        keep = rows[self.part.mask[rows]]
        return keep, self.part.values[keep]


class _AggregateJob(MapReduceJob):
    """(group key, value) -> one folded value per group."""

    name = "hive-agg"
    use_combiner = True
    map_cost = OpCost(int_ops=820, branch_ops=260, fp_ops=14, rand_writes=1)
    reduce_cost = OpCost(int_ops=300, branch_ops=90, fp_ops=10)

    def __init__(self, keys: np.ndarray, values: np.ndarray, func: str):
        self.keys = keys
        self.func = func
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
        return keys, FOLDS["sum" if self.func == "count" else self.func](
            values, starts)


class _RepartitionJoinJob(MapReduceJob):
    """Classic tagged repartition join.

    Map emits ``key*2 + side`` for the rows each side's WHERE keeps; the
    reduce groups both sides of each join key together (adjacent tags)
    and emits the cross product as (dimension value, fact value) pairs
    for the downstream aggregation.
    """

    name = "hive-join"
    map_cost = OpCost(int_ops=900, branch_ops=300, fp_ops=12, rand_writes=1)
    reduce_cost = OpCost(int_ops=420, branch_ops=130, fp_ops=8, rand_reads=1)

    def __init__(self, dim, fact):
        # The dimension side's rows first, then the fact side's.
        self.keys = np.concatenate(
            [dim.keys * _JOIN_TAG, fact.keys * _JOIN_TAG + 1])
        self.values = np.concatenate([dim.values, fact.values])
        self.keep = np.concatenate([dim.mask, fact.mask])

    def map_batch(self, split, ctx):
        rows = split.payload
        rows = rows[self.keep[rows]]
        return self.keys[rows], self.values[rows]

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


class HiveExecutor(_Staged):
    """Runs the supported query shapes as MapReduce job chains, each
    job's phases absorbed into the query's ledger."""

    def _run(self, ledger, job: MapReduceJob, name: str, rows: np.ndarray,
             nbytes: int):
        result = MapReduceRuntime(cluster=self.cluster, ctx=self.ctx).run(
            job, Dfs().put(name, rows, nbytes))
        ledger.absorb(result.cost)
        return result

    def _select(self, ledger, part) -> np.ndarray:
        rows = np.arange(len(part.mask), dtype=np.int64)
        return self._run(ledger, _FilterJob(part), f"hive:{part.name}", rows,
                         part.nbytes).output_keys

    def _fold(self, ledger, part, func: str) -> tuple:
        result = self._run(
            ledger, _AggregateJob(part.keys, part.values, func),
            "hive:agg-rows", np.nonzero(part.mask)[0],
            int(part.nbytes * part.mask.mean()) or 1)
        return result.output_keys, result.output_values

    def _join_sum(self, ledger, dim, fact) -> tuple:
        """Job 1: repartition join -> (group value, fact value) pairs;
        job 2: group the joined pairs and sum."""
        rows = np.arange(len(dim.mask) + len(fact.mask), dtype=np.int64)
        joined = self._run(ledger, _RepartitionJoinJob(dim, fact),
                           "hive:join-rows", rows, dim.nbytes + fact.nbytes)
        pairs = len(joined.output_keys)
        result = self._run(
            ledger,
            _AggregateJob(joined.output_keys, joined.output_values, "sum"),
            "hive:join-pairs", np.arange(pairs, dtype=np.int64), pairs * 16)
        return pairs, result.output_keys, result.output_values
