"""Spark-like resilient distributed datasets: lazy, lineage-based, cached.

The paper includes Spark as the state-of-the-art offline-analytics stack
because "Spark supports in-memory computing, letting it query data faster
than disk-based engines" (Section 4.3).  This engine reproduces the
properties that matter for characterization:

* lazy narrow transformations fused into stages,
* wide (shuffle) boundaries for ``reduce_by_key`` / ``sort_by_key``,
* ``cache()``: recomputation is skipped and re-reads come from memory,
  not disk -- the effect that makes iterative workloads (PageRank,
  K-means) cheap on Spark and expensive on Hadoop.

Partitions hold numpy arrays (or tuples of parallel arrays for pair
RDDs).  Costs are charged to the owning context's profiler and job-cost
accumulator when an *action* materializes a lineage.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.timemodel import PhaseCost
from repro.keyed import group_starts, sort_group
from repro.mapreduce.job import OpCost


class RDD:
    """One dataset in a lineage graph.

    ``parent`` is None for source RDDs.  ``fn(payload, ctx)`` transforms
    one partition payload; ``cost`` is the kernel cost per record charged
    when the partition is computed.
    """

    def __init__(self, sc, parent=None, fn=None, cost: OpCost = None,
                 name: str = "rdd", source_partitions=None, source_nbytes: int = 0,
                 from_memory: bool = False):
        self.sc = sc
        self.parent = parent
        self.fn = fn
        self.cost = cost or OpCost()
        self.name = name
        self._source_partitions = source_partitions
        self._source_nbytes = source_nbytes
        self._from_memory = from_memory
        self._cached = False
        self._materialized = None

    # -- transformations (lazy, narrow) ---------------------------------------

    def map_partitions(self, fn, cost: OpCost = None, name: str = None) -> "RDD":
        """Narrow transformation: ``fn(payload, ctx) -> payload``."""
        return RDD(self.sc, parent=self, fn=fn, cost=cost,
                   name=name or f"{self.name}.map")

    def filter_mask(self, mask_fn, cost: OpCost = None, name: str = None) -> "RDD":
        """Keep records where ``mask_fn(payload, ctx)`` is True.

        Payloads must be arrays or tuples of parallel arrays.
        """

        def apply(payload, ctx):
            mask = mask_fn(payload, ctx)
            if isinstance(payload, tuple):
                return tuple(col[mask] for col in payload)
            return payload[mask]

        return RDD(self.sc, parent=self, fn=apply, cost=cost,
                   name=name or f"{self.name}.filter")

    def cache(self) -> "RDD":
        """Persist this RDD in memory after first materialization."""
        self._cached = True
        return self

    # -- wide transformations (shuffle) ----------------------------------------

    def reduce_by_key(self, reducer, cost: OpCost = None, name: str = None) -> "RDD":
        """Hash-shuffle (key, value) pairs and merge groups per key.

        Partition payloads must be ``(keys, values)`` tuples;
        ``reducer(values, starts)`` merges sorted groups (e.g. a
        ``np.add.reduceat`` wrapper).
        """
        return _ShuffleRDD(self.sc, parent=self, reducer=reducer, cost=cost,
                           name=name or f"{self.name}.reduceByKey", ordered=False)

    def sort_by_key(self, cost: OpCost = None, name: str = None) -> "RDD":
        """Range-shuffle to a total order (keys only or (keys, values))."""
        return _ShuffleRDD(self.sc, parent=self, reducer=None, cost=cost,
                           name=name or f"{self.name}.sortByKey", ordered=True)

    # -- actions ----------------------------------------------------------------

    def collect(self) -> list:
        """Materialize and return the partition payloads."""
        return self.sc._materialize(self)

    def count(self) -> int:
        total = 0
        for payload in self.collect():
            total += _payload_records(payload)
        return total

    # -- internals ---------------------------------------------------------------

    def _compute(self) -> list:
        ctx = self.sc.ctx
        if self._materialized is not None:
            # Cache hit: charge a memory re-scan instead of recompute/disk.
            with ctx.span(f"spark:cachehit:{self.name}", category="spark",
                          cached_bytes=self._cached_bytes):
                ctx.seq_read(f"spark:cache:{self.name}", self._cached_bytes)
                self.sc._note_cache_hit(self._cached_bytes)
            return self._materialized

        if self.parent is None:
            with ctx.span(f"spark:source:{self.name}", category="spark",
                          nbytes=self._source_nbytes):
                partitions = [p for p in self._source_partitions]
                if self._from_memory:
                    ctx.seq_read(f"spark:mem:{self.name}", self._source_nbytes)
                else:
                    ctx.seq_read(f"dfs:{self.name}", self._source_nbytes, elem=64)
                    self.sc._note_disk_read(self._source_nbytes)
        else:
            parent_parts = self.parent._compute()
            with ctx.span(f"spark:stage:{self.name}", category="spark",
                          partitions=len(parent_parts)):
                partitions = []
                for payload in parent_parts:
                    records = _payload_records(payload)
                    self.sc.overhead.charge(ctx, records, records * 8)
                    self.cost.charge(ctx, records, f"spark:{self.name}:working")
                    partitions.append(self.fn(payload, ctx))

        if self._cached:
            self._materialized = partitions
            self._cached_bytes = sum(_payload_bytes(p) for p in partitions)
            ctx.seq_write(f"spark:cache:{self.name}", self._cached_bytes)
        return partitions


class _ShuffleRDD(RDD):
    """A wide dependency: hash or range repartitioning of pair payloads."""

    def __init__(self, sc, parent, reducer, cost, name, ordered):
        super().__init__(sc, parent=parent, fn=None, cost=cost, name=name)
        self.reducer = reducer
        self.ordered = ordered

    def _compute(self) -> list:
        ctx = self.sc.ctx
        if self._materialized is not None:
            with ctx.span(f"spark:cachehit:{self.name}", category="spark",
                          cached_bytes=self._cached_bytes):
                ctx.seq_read(f"spark:cache:{self.name}", self._cached_bytes)
                self.sc._note_cache_hit(self._cached_bytes)
            return self._materialized

        parent_parts = self.parent._compute()
        with ctx.span(f"spark:shuffle:{self.name}", category="spark") as span:
            return self._compute_shuffle(ctx, parent_parts, span)

    def _compute_shuffle(self, ctx, parent_parts, span) -> list:
        keys_list, values_list = [], []
        for payload in parent_parts:
            if isinstance(payload, tuple):
                part_keys, part_values = payload[0], payload[1]
                if self.reducer is not None and len(part_keys) > 1:
                    # Map-side combining (as Spark's reduceByKey does):
                    # shrink each partition before it hits the wire.
                    part_keys, part_values = sort_group(part_keys, part_values)
                    unique_keys, starts = group_starts(part_keys)
                    ctx.int_ops(6 * len(part_keys))
                    ctx.branch_ops(2 * len(part_keys))
                    part_values = self.reducer(part_values, starts)
                    part_keys = unique_keys
                keys_list.append(part_keys)
                values_list.append(part_values)
            else:
                keys_list.append(payload)
                values_list.append(None)
        keys = np.concatenate(keys_list) if keys_list else np.empty(0, dtype=np.int64)
        has_values = values_list and values_list[0] is not None
        values = np.concatenate(values_list) if has_values else None

        records = len(keys)
        record_bytes = 16 if has_values else 8
        shuffle_bytes = records * record_bytes
        span.set("records", records)
        span.set("shuffle_bytes", shuffle_bytes)
        self.sc._note_shuffle(shuffle_bytes)
        ctx.seq_write("spark:shuffle:out", shuffle_bytes)
        ctx.seq_read("spark:shuffle:in", shuffle_bytes)
        self.sc.overhead.charge(ctx, records, shuffle_bytes)
        if self.cost:
            self.cost.charge(ctx, records, f"spark:{self.name}:working")

        # Sort cost: comparisons plus working-buffer traffic.
        if records > 1:
            passes = max(1.0, math.log2(records))
            ctx.int_ops(2.0 * records * passes)
            ctx.branch_ops(records * passes)
            ctx.touch("spark:sortbuf", int(shuffle_bytes))
            ctx.rand_read("spark:sortbuf", records * passes)

        keys, order = sort_group(keys)
        if values is not None:
            values = values[order]

        if self.reducer is not None:
            unique_keys, starts = group_starts(keys)
            reduced = self.reducer(values, starts)
            keys, values = unique_keys, reduced

        num_parts = self.sc.default_parallelism
        if self.ordered:
            chunks = np.array_split(np.arange(len(keys)), num_parts)
        else:
            part_of = keys % num_parts if len(keys) else keys
            chunks = [np.nonzero(part_of == p)[0] for p in range(num_parts)]
        partitions = []
        for idx in chunks:
            if values is None:
                partitions.append(keys[idx])
            else:
                partitions.append((keys[idx], values[idx]))

        if self._cached:
            self._materialized = partitions
            self._cached_bytes = sum(_payload_bytes(p) for p in partitions)
            ctx.seq_write(f"spark:cache:{self.name}", self._cached_bytes)
        return partitions


def _payload_records(payload) -> int:
    if payload is None:
        return 0
    if isinstance(payload, tuple):
        return len(payload[0])
    return len(payload)


def _payload_bytes(payload) -> int:
    if payload is None:
        return 0
    if isinstance(payload, tuple):
        return sum(int(np.asarray(c).nbytes) for c in payload)
    return int(np.asarray(payload).nbytes)
