"""Job definitions: per-record cost declarations and the job interface.

A :class:`MapReduceJob` is both *functional* (its ``map_batch`` /
``reduce_batch`` really transform numpy record batches) and *profiled*
(its declared :class:`OpCost` per record, plus the engine's framework
overhead, drive the simulated perf counters).  Workload kernels therefore
produce correct answers and realistic micro-architectural behavior from
one definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.keyed import group_starts, group_sum, sort_group
from repro.uarch.codemodel import CodeProfile, FRAMEWORK_STACK


@dataclass(frozen=True)
class OpCost:
    """Abstract cost per record of a kernel (on top of framework overhead).

    ``rand_reads``/``rand_writes`` are scattered accesses per record into
    the job's working region (hash tables, centroid arrays, rank
    vectors).  Because big data keys are Zipf-distributed, these accesses
    are *skewed*: ``hot_prob`` of them land in the hottest
    ``hot_fraction`` of the region (popular words, high-degree vertices,
    best-selling goods).  ``seq_bytes`` is additional streaming traffic
    per record.
    """

    int_ops: float = 0.0
    fp_ops: float = 0.0
    branch_ops: float = 0.0
    rand_reads: float = 0.0
    rand_writes: float = 0.0
    seq_bytes: float = 0.0
    hot_fraction: float = 0.005
    hot_prob: float = 0.9

    def charge(self, ctx, count: float, region: str, seq_region: str = None) -> None:
        """Charge this cost for ``count`` records to the profiler."""
        if count <= 0:
            return
        ctx.int_ops(self.int_ops * count)
        ctx.fp_ops(self.fp_ops * count)
        ctx.branch_ops(self.branch_ops * count)
        if self.rand_reads:
            ctx.skewed_read(region, self.rand_reads * count,
                            hot_fraction=self.hot_fraction, hot_prob=self.hot_prob)
        if self.rand_writes:
            ctx.skewed_write(region, self.rand_writes * count,
                             hot_fraction=self.hot_fraction, hot_prob=self.hot_prob)
        if self.seq_bytes:
            ctx.seq_read(seq_region or region, self.seq_bytes * count)


class MapReduceJob:
    """Base class for MapReduce workloads.

    Subclasses implement the functional dataflow over numpy batches and
    declare their kernel costs and working-set geometry.  The runtime in
    :mod:`repro.mapreduce.runtime` supplies splits, shuffling, sorting,
    grouping, and all framework-overhead accounting.
    """

    #: Job name (used for region naming and reports).
    name = "job"

    #: Code working set the job's executor runs under.
    code_profile: CodeProfile = FRAMEWORK_STACK

    #: Kernel cost per map input record / per reduce input record.
    map_cost = OpCost(int_ops=20, branch_ops=6)
    reduce_cost = OpCost(int_ops=12, branch_ops=4)

    #: "hash" partitions by key hash; "range" gives a total order (TeraSort).
    partitioner = "hash"

    #: Whether map outputs are pre-aggregated per split before the shuffle.
    use_combiner = False

    #: When False, the reduce side keeps every record in sorted order
    #: (identity reduce, e.g. Sort) instead of grouping by key.
    group_by_key = True

    #: Average serialized bytes of one intermediate (key, value) record.
    intermediate_record_bytes = 16

    # -- functional dataflow -------------------------------------------------

    def record_count(self, split) -> int:
        """Number of input records in a split payload."""
        raise NotImplementedError

    def map_batch(self, split, ctx) -> "tuple[np.ndarray, np.ndarray]":
        """Map a whole split; return (keys, values) int64/float64 arrays.

        ``values`` may be ``None`` for key-only jobs (e.g. Sort).
        """
        raise NotImplementedError

    def reduce_batch(self, keys, values, starts, ctx):
        """Reduce grouped data.

        ``keys`` are the sorted unique keys; ``starts`` the group start
        offsets into the (sorted) ``values``; returns (out_keys,
        out_values).  Default: count records per key.
        """
        counts = np.diff(np.append(starts, len(values) if values is not None else 0))
        return keys, counts.astype(np.int64)

    def reduce_by_key(self, keys, values, ctx):
        """Group unordered ``(keys, values)`` records by key and reduce
        them: ``(groups, out_keys, out_values)``, ``groups`` being the
        number of distinct keys.  The combiner and the reduce side both
        call this; what the profiler is charged for the sort they model
        is the runtime's business, not this method's.
        """
        keys, order = sort_group(keys)
        values = values[order] if values is not None else None
        unique_keys, starts = group_starts(keys)
        out_keys, out_values = self.reduce_batch(unique_keys, values, starts, ctx)
        return len(unique_keys), out_keys, out_values

    # -- geometry ------------------------------------------------------------

    def working_bytes(self, input_nbytes: int) -> int:
        """Real size of the job's random-access working region."""
        return max(1 << 20, input_nbytes // 8)

    def output_bytes(self, input_nbytes: int, counters) -> int:
        """Real size of the job output written back to the DFS."""
        return int(counters.get("reduce_output_records") * self.intermediate_record_bytes)

    def shuffle_fraction(self) -> float:
        """Fraction of map-output bytes that crosses the network (rest is
        node-local).  All-to-all over N nodes moves (N-1)/N of the data."""
        return 13.0 / 14.0

    def partition_key(self, keys: np.ndarray) -> np.ndarray:
        """Key used by the hash partitioner (secondary-sort/tagged-join
        jobs partition on a prefix of the sort key)."""
        return keys


class SumByKeyJob(MapReduceJob):
    """A job that reduces each key to the integer sum of its values,
    with a ``None`` value column standing for one per record.

    Records that stand for one each need no order to be counted, so the
    host does not sort them (:func:`repro.keyed.group_sum`, exactly the
    sorted ``reduceat``), and a sum may be taken early: every such job
    combines.
    """

    use_combiner = True

    def reduce_batch(self, keys, values, starts, ctx):
        """The sums over a value column already in key order.  A ``None``
        column has no length to count from: that is ``reduce_by_key``'s."""
        if values is None:
            raise TypeError(f"{self.name}: reduce_batch needs a value column")
        return keys, np.add.reduceat(values, starts)

    def reduce_by_key(self, keys, values, ctx):
        out_keys, sums = group_sum(keys, values)
        return len(out_keys), out_keys, sums
