"""Shark-style execution: lower bound SQL plans to Spark RDD lineages.

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
point.  The shared front end (:class:`repro.sql.engine._Staged`) parses,
binds and resolves the statement (refusing float group or join keys);
the statements it runs answer as the other two executors do (a property
test asserts it).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.mapreduce import Dfs, OpCost
from repro.spark import SparkContext
from repro.sql.engine import PAPER_TABLE_RATIO, _Staged
from repro.sql.operators import FOLDS


def _collect_pairs(rdd) -> tuple:
    """A pair RDD's partitions as one ``(keys, values)``."""
    parts = rdd.collect()
    return (np.concatenate([keys for keys, _ in parts]),
            np.concatenate([values for _, values in parts]))


class SharkExecutor(_Staged):
    """Runs the supported query shapes as Spark stages."""

    def __init__(self, ctx=None, cluster=None):
        super().__init__(ctx, cluster)
        self.sc = SparkContext(cluster=self.cluster, ctx=self.ctx)
        self._row_rdds: dict = {}

    @contextmanager
    def _metered(self, stats):
        """The driver's ledger charged every action; the query's cost is
        the phases charged while it ran."""
        start = len(self.sc.cost.phases)
        ledger = CostLedger(self.cluster, ctx=self.ctx)
        yield ledger
        ledger.absorb(self.sc.cost.phases[start:])

    def _rows_rdd(self, name: str):
        """A cached RDD of row indices for one registered table (built
        again once the name is registered anew)."""
        registered = self._tables[name]
        cached = self._row_rdds.get(name)
        if cached is None or cached[0] is not registered:
            table, nbytes = registered.table, registered.nbytes
            file = Dfs().put(f"shark:{name}",
                             np.arange(table.num_rows, dtype=np.int64), nbytes)
            self.ctx.touch(f"dfs:shark:{name}", nbytes * PAPER_TABLE_RATIO)
            cached = self._row_rdds[name] = (
                registered, self.sc.from_dfs(file).cache())
        return cached[1]

    def _select(self, ledger, part) -> np.ndarray:
        filtered = self._rows_rdd(part.name).filter_mask(
            lambda rows, ctx: part.mask[rows],
            cost=OpCost(int_ops=560, branch_ops=180, fp_ops=8),
        )
        return np.sort(np.concatenate(filtered.collect()))

    def _fold(self, ledger, part, func: str) -> tuple:
        """One reduce_by_key stage; AVG folds SUM and COUNT together."""
        if func == "avg":
            keys, sums = self._fold(ledger, part, "sum")
            return keys, sums / self._fold(ledger, part, "count")[1]
        values = np.ones_like(part.values) if func == "count" else part.values

        def to_pairs(rows, ctx):
            keep = rows[part.mask[rows]]
            return part.keys[keep], values[keep]

        return _collect_pairs(self._rows_rdd(part.name).map_partitions(
            to_pairs, cost=OpCost(int_ops=620, branch_ops=200, fp_ops=10,
                                  rand_writes=1),
        ).reduce_by_key(FOLDS["sum" if func == "count" else func]))

    def _join_sum(self, ledger, dim, fact) -> tuple:
        """Stage 1 tags and shuffles both sides by the join key, the
        driver pairs them (the join reduce); stage 2 sums the pairs."""
        cost = OpCost(int_ops=700, branch_ops=220, fp_ops=10, rand_writes=1)

        def tagged(part, tag: int):
            def to_pairs(rows, ctx):
                keep = rows[part.mask[rows]]
                return part.keys[keep] * 2 + tag, part.values[keep]

            return self._rows_rdd(part.name).map_partitions(to_pairs, cost=cost)

        keys, values = self._pair_tagged(tagged(dim, 0), tagged(fact, 1))
        pairs = self.sc.pair_source(
            keys, values, nbytes=len(keys) * 16, name="shark:joined",
            from_memory=True,
        ).reduce_by_key(np.add.reduceat)
        return (len(keys), *_collect_pairs(pairs))

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
        self.ctx.int_ops(40 * (len(out_keys) + len(dim_map)))
        return (np.asarray(out_keys, dtype=np.int64),
                np.asarray(out_values, dtype=np.float64))
