"""The MapReduce engine: splits -> map -> combine -> shuffle -> sort ->
reduce, with full framework-overhead accounting.

The engine is a working (single-process) Hadoop stand-in: it really
partitions, sorts, groups, and reduces numpy record batches, while
charging the profiler for everything the JVM framework would do around
the user code -- per-record bookkeeping, object churn on the heap,
serialization, spills, and the reduce-side sort.  The same measured
byte/record counts feed the :class:`~repro.cluster.timemodel.TimeModel`
via the returned :class:`~repro.cluster.timemodel.JobCost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.cluster.timemodel import JobCost
from repro.keyed import sort_group
from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import DfsFile
from repro.mapreduce.job import MapReduceJob
from repro.uarch.perfctx import context_or_null

MB = 1024 * 1024


@dataclass(frozen=True)
class FrameworkOverhead:
    """Per-record/per-byte costs the software stack adds around user code.

    The defaults model a Hadoop/JVM stack: heavy per-record object churn
    against a small hot allocation window (TLAB-like) inside a larger
    live heap.  The MPI profile is far leaner -- the stack ablation
    (``TestStackAblation`` in the paper-claim tests) measures exactly
    this difference.
    """

    per_record_int: float = 600.0
    per_record_branch: float = 220.0
    per_record_fp: float = 4.0      # stray FP in stats/GC/JIT code
    per_record_loads: float = 160.0
    per_record_stores: float = 100.0
    per_byte_int: float = 0.50
    #: Live heap at *paper* scale (the testbed ran 8-16 GB JVM heaps); the
    #: profiler contracts capacities, so region sizes are declared in the
    #: units of the real deployment (DESIGN.md, substitution 3).
    old_heap_bytes: int = 8 << 30
    #: Allocation (young-gen) region: bigger than L2, inside L3.
    young_bytes: int = 4 * MB
    #: The TLAB-like hot window inside the old heap (L1-resident).
    tlab_fraction: float = 4e-6
    #: Probability a heap load stays in the hot window; the complement
    #: walks the full live heap (missing L3 and the STLB, as on the
    #: paper's testbed where the heap dwarfs both).
    heap_hot_prob: float = 0.984

    def charge(self, ctx, records: float, nbytes: float) -> None:
        if records <= 0:
            return
        ctx.touch("jvm:heap:old", self.old_heap_bytes)
        ctx.int_ops(self.per_record_int * records + self.per_byte_int * nbytes)
        ctx.branch_ops(self.per_record_branch * records)
        ctx.fp_ops(self.per_record_fp * records)
        if self.per_record_loads:
            ctx.skewed_read(
                "jvm:heap:old", self.per_record_loads * records,
                hot_fraction=self.tlab_fraction, hot_prob=self.heap_hot_prob,
            )
        if self.per_record_stores:
            # Object allocation is a sequential sweep through the young
            # generation: misses L1/L2 per line, stays L3-resident.
            ctx.touch("jvm:heap:young", self.young_bytes)
            ctx.seq_write("jvm:heap:young", self.per_record_stores * records * 8,
                          elem=8)


#: Hadoop-like stack (default).
HADOOP_OVERHEAD = FrameworkOverhead()

#: Spark keeps records deserialized in memory: less churn per record.
SPARK_OVERHEAD = FrameworkOverhead(
    per_record_int=380.0, per_record_branch=135.0, per_record_fp=3.0,
    per_record_loads=100.0, per_record_stores=64.0, per_byte_int=0.30,
)

#: MPI/native stack: an order of magnitude leaner per record; native
#: buffers rather than a garbage-collected heap.
MPI_OVERHEAD = FrameworkOverhead(
    per_record_int=60.0, per_record_branch=22.0, per_record_fp=0.5,
    per_record_loads=16.0, per_record_stores=6.0, per_byte_int=0.08,
    old_heap_bytes=1 << 30, young_bytes=1 * MB,
    tlab_fraction=3e-5, heap_hot_prob=0.995,
)


@dataclass
class JobResult:
    """Output and accounting of one job run."""

    output_keys: np.ndarray
    output_values: np.ndarray
    counters: Counters
    cost: JobCost
    input_bytes: int

    @property
    def output_records(self) -> int:
        return len(self.output_keys)


def charge_sort(ctx, records: float, region: str, record_bytes: float = 16.0) -> None:
    """Cost of sorting ``records`` records: a multi-way external merge.

    Comparisons are integer/branch work; the memory traffic is dominated
    by *sequential* merge passes over the buffer (quick-sorted runs, then
    log_F(n/run) F-way merge passes), with a small random component for
    the run-selection heap -- the access pattern of Hadoop's sort/spill
    pipeline, not a uniform-random shuffle.
    """
    if records <= 1:
        return
    comparisons = records * max(1.0, math.log2(records))
    ctx.int_ops(2.0 * comparisons)
    ctx.branch_ops(1.0 * comparisons)
    nbytes = records * record_bytes
    ctx.touch(region, int(nbytes))
    run_records = 65536.0
    fan_in = 32.0
    merge_passes = max(1.0, math.ceil(math.log(max(2.0, records / run_records), fan_in)))
    # Each pass streams the whole buffer in and out.
    ctx.seq_read(region, nbytes * (1.0 + merge_passes), elem=record_bytes)
    ctx.seq_write(region, nbytes * merge_passes, elem=record_bytes)
    # Heap-of-runs bookkeeping touches scattered run heads.
    ctx.skewed_read(region, records * 0.1, hot_fraction=0.02, hot_prob=0.9)


class MapReduceRuntime:
    """Runs :class:`MapReduceJob` instances over DFS files."""

    #: Effective cycles per instruction used for phase CPU-time estimates
    #: (the full CPI model needs whole-run miss counts; phases use a flat
    #: framework-typical CPI).
    EFFECTIVE_CPI = 1.1

    #: Fixed wall-clock overhead per job at paper scale: job submission,
    #: per-node JVM spin-up, scheduling waves, straggler tails.  This is
    #: what makes small inputs score low MIPS/DPS (Figure 3-1's rising
    #: curves amortize exactly this).
    JOB_FIXED_SECONDS = 32.0

    #: A failing task is retried this many times before the job aborts
    #: (Hadoop's mapreduce.map.maxattempts default).
    MAX_ATTEMPTS = 4

    def __init__(
        self,
        cluster: ClusterSpec = PAPER_CLUSTER,
        ctx=None,
        num_reducers: int = None,
        overhead: FrameworkOverhead = HADOOP_OVERHEAD,
        faults=None,
    ):
        """``faults`` attaches a :class:`~repro.faults.inject.FaultInjector`
        explicitly; by default the runtime picks up the injector the
        harness attached to ``ctx`` (chaos runs), falling back to the
        shared null injector.
        """
        from repro.faults.inject import resolve_faults

        self.cluster = cluster
        self.ctx = context_or_null(ctx)
        self.num_reducers = num_reducers or cluster.num_nodes * 2
        self.overhead = overhead
        self.faults = resolve_faults(self.ctx, faults)

    def run(self, job: MapReduceJob, dfs_file: DfsFile, slicer=None) -> JobResult:
        from repro.obs.metrics import METRICS

        ctx = self.ctx
        counters = Counters()
        ledger = CostLedger(self.cluster, ctx=ctx, cpi=self.EFFECTIVE_CPI)
        with ctx.span(f"mr:job:{job.name}", category="mapreduce") as job_span:
            with ctx.span("mr:split", category="mapreduce") as sp:
                splits = dfs_file.splits(slicer)
                sp.set("splits", len(splits))
            working_region = f"{job.name}:working"
            ctx.touch(working_region, job.working_bytes(dfs_file.nbytes))
            ledger.charge("job-setup", fixed_seconds=self.JOB_FIXED_SECONDS)

            with ctx.code(job.code_profile):
                partitions, map_out_records = self._map_phase(
                    job, splits, dfs_file, counters, ledger, working_region
                )
                out_keys, out_values = self._reduce_phase(
                    job, partitions, map_out_records, counters, ledger,
                    working_region, dfs_file.nbytes,
                )
            job_span.set("input_bytes", dfs_file.nbytes)
            job_span.set("output_records", int(len(out_keys)))

        METRICS.counter("mr.jobs").inc()
        METRICS.counter("mr.map_input_records").inc(counters.get("map_input_records"))
        METRICS.counter("mr.map_output_records").inc(counters.get("map_output_records"))
        METRICS.counter("mr.shuffle_bytes").inc(counters.get("shuffle_bytes"))
        METRICS.counter("mr.task_retries").inc(counters.get("task_retries"))
        if counters.get("speculative_tasks"):
            METRICS.counter("mr.speculative_tasks").inc(
                counters.get("speculative_tasks"))
        if counters.get("replica_rereads"):
            METRICS.counter("mr.replica_rereads").inc(
                counters.get("replica_rereads"))
        if counters.get("lost_splits"):
            METRICS.counter("mr.lost_splits").inc(counters.get("lost_splits"))
        return JobResult(
            output_keys=out_keys,
            output_values=out_values,
            counters=counters,
            cost=ledger.job,
            input_bytes=dfs_file.nbytes,
        )

    # -- phases ----------------------------------------------------------------

    def _map_phase(self, job, splits, dfs_file, counters, ledger, working_region):
        ctx = self.ctx
        with ctx.span("mr:map", category="mapreduce", splits=len(splits)) as sp:
            with ledger.measured("map") as pending:
                result = self._map_splits(job, splits, dfs_file, counters,
                                          pending, working_region)
            sp.set("output_records", counters.get("map_output_records"))
        return result

    def _map_splits(self, job, splits, dfs_file, counters, pending,
                    working_region):
        ctx = self.ctx
        partitions = [[] for _ in range(self.num_reducers)]
        boundaries = None
        total_out_records = 0
        total_in_records = 0

        faults = self.faults
        extra_read_bytes = 0.0
        remote_read_bytes = 0.0
        straggle_seconds = 0.0

        for split in splits:
            site = f"mr:{job.name}:split{split.index}"
            records = job.record_count(split)

            # Node loss: the split's primary replica may be on a dead
            # node.  With recovery, HDFS re-reads from a surviving
            # replica (one extra remote read); with every replica down,
            # or without recovery, the split's records are lost.
            if faults.enabled and faults.active_for("node_kill"):
                replicas = split.replicas(self.cluster.num_nodes)
                alive = [n for n in replicas if not faults.node_killed(n)]
                primary_dead = faults.node_killed(replicas[0])
                if primary_dead and (not faults.recovery or not alive):
                    counters.add("lost_splits")
                    faults.lost("split", site, records=records)
                    continue
                if primary_dead:
                    with ctx.span("recovery:replica_reread",
                                  category="faults", bytes=split.nbytes):
                        ctx.seq_read(f"dfs:{dfs_file.name}", split.nbytes,
                                     elem=64)
                    counters.add("replica_rereads")
                    extra_read_bytes += split.nbytes
                    remote_read_bytes += split.nbytes
                    faults.recovered("replica_reread", site,
                                     node=alive[0], bytes=split.nbytes)

            attempts = 1
            # A crashed attempt is re-executed (work and time are charged
            # again), up to MAX_ATTEMPTS; without recovery a single crash
            # kills the task for good.
            if faults.enabled and faults.active_for("task_crash"):
                if faults.recovery:
                    while (attempts < self.MAX_ATTEMPTS
                           and faults.fires("task_crash", site) is not None):
                        attempts += 1
                        counters.add("task_retries")
                        faults.recovered("task_retry", site, attempt=attempts)
                elif faults.fires("task_crash", site) is not None:
                    counters.add("lost_splits")
                    faults.lost("split", site, records=records)
                    continue

            # Stragglers: with recovery the framework launches a backup
            # (speculative) attempt and takes the first finisher -- the
            # duplicated work is charged but the tail latency is hidden.
            # Without recovery the slow attempt stretches the map phase.
            work_units = attempts
            if faults.enabled and faults.active_for("straggler"):
                rule = faults.fires("straggler", site)
                if rule is not None and faults.recovery:
                    work_units += 1
                    counters.add("speculative_tasks")
                    faults.recovered("speculative", site)
                elif rule is not None:
                    disk_bw = self.cluster.node.disk.seq_bandwidth
                    straggle_seconds += (split.nbytes / disk_bw
                                         * (rule.factor - 1.0))
                    counters.add("straggled_tasks")

            for _ in range(work_units):
                # Failed/duplicated attempts re-read and re-process.
                ctx.seq_read(f"dfs:{dfs_file.name}", split.nbytes, elem=64)
            extra_read_bytes += split.nbytes * (work_units - 1)
            total_in_records += records
            self.overhead.charge(ctx, records * work_units,
                                 split.nbytes * work_units)
            job.map_cost.charge(ctx, records * work_units, working_region)

            # Map output may alias the split (token jobs hand back their
            # int64 input with ``astype(copy=False)``): nothing from here
            # to the reduce writes to keys or values in place.
            keys, values = job.map_batch(split, ctx)
            if keys is None or len(keys) == 0:
                continue
            keys = np.asarray(keys)
            if job.use_combiner:
                with ctx.span("mr:combine", category="mapreduce",
                              records=int(len(keys))):
                    keys, values = self._combine(job, keys, values,
                                                 working_region)
            out_records = len(keys)
            total_out_records += out_records
            out_bytes = out_records * job.intermediate_record_bytes
            ctx.int_ops(6.0 * out_records)  # partitioner hash
            ctx.seq_write("mr:spill", out_bytes)

            if job.partitioner == "range":
                if boundaries is None:
                    boundaries = self._range_boundaries(keys)
                part_ids = np.searchsorted(boundaries, keys, side="right")
            else:
                part_ids = job.partition_key(keys).astype(np.int64) % self.num_reducers
            part_sorted, order = sort_group(part_ids)
            keys_sorted = keys[order]
            values_sorted = values[order] if values is not None else None
            cuts = np.searchsorted(part_sorted, np.arange(1, self.num_reducers))
            key_chunks = np.split(keys_sorted, cuts)
            value_chunks = (
                np.split(values_sorted, cuts) if values_sorted is not None
                else [None] * self.num_reducers
            )
            for pid in range(self.num_reducers):
                if len(key_chunks[pid]):
                    partitions[pid].append((key_chunks[pid], value_chunks[pid]))

        counters.add("map_input_records", total_in_records)
        counters.add("map_output_records", total_out_records)
        map_output_bytes = total_out_records * job.intermediate_record_bytes
        counters.add("map_output_bytes", map_output_bytes)

        pending.disk_read_bytes = dfs_file.nbytes + extra_read_bytes
        pending.disk_write_bytes = map_output_bytes
        # Replica re-reads cross the network (non-local map tasks).
        pending.shuffle_bytes = remote_read_bytes
        pending.working_bytes = map_output_bytes
        # Unhedged stragglers stretch the phase tail.
        pending.fixed_seconds = straggle_seconds
        return partitions, total_out_records

    def _reduce_phase(self, job, partitions, map_out_records, counters, ledger,
                      working_region, input_nbytes):
        ctx = self.ctx
        with ctx.span("mr:reduce", category="mapreduce",
                      reducers=self.num_reducers) as sp:
            with ledger.measured("reduce") as pending:
                result = self._reduce_partitions(
                    job, partitions, map_out_records, counters, pending,
                    working_region, input_nbytes)
            sp.set("output_records", counters.get("reduce_output_records"))
        return result

    def _reduce_partitions(self, job, partitions, map_out_records, counters,
                           pending, working_region, input_nbytes):
        ctx = self.ctx
        map_output_bytes = map_out_records * job.intermediate_record_bytes
        shuffle_bytes = map_output_bytes * job.shuffle_fraction()
        counters.add("shuffle_bytes", shuffle_bytes)
        with ctx.span("mr:shuffle", category="mapreduce",
                      shuffle_bytes=shuffle_bytes):
            ctx.seq_read("mr:shuffle", shuffle_bytes)

        all_keys = []
        all_values = []
        total_out = 0
        for chunks in partitions:
            if not chunks:
                continue
            keys = np.concatenate([c[0] for c in chunks])
            has_values = chunks[0][1] is not None
            values = np.concatenate([c[1] for c in chunks]) if has_values else None

            with ctx.span("mr:sort", category="mapreduce",
                          records=int(len(keys))):
                charge_sort(ctx, len(keys), "mr:sortbuf",
                            job.intermediate_record_bytes)
                if not job.group_by_key:
                    keys, order = sort_group(keys)
                    if values is not None:
                        values = values[order]
            self.overhead.charge(ctx, len(keys), len(keys) * job.intermediate_record_bytes)
            job.reduce_cost.charge(ctx, len(keys), working_region)
            if job.group_by_key:
                groups, out_keys, out_values = job.reduce_by_key(
                    keys, values, ctx)
                counters.add("reduce_input_groups", groups)
            else:
                counters.add("reduce_input_groups", len(keys))
                out_keys, out_values = keys, values
            total_out += len(out_keys)
            all_keys.append(out_keys)
            all_values.append(out_values)

        counters.add("reduce_output_records", total_out)
        output_bytes = job.output_bytes(input_nbytes, counters)
        ctx.seq_write(f"dfs:{job.name}:out", output_bytes)

        pending.disk_read_bytes = map_output_bytes
        pending.disk_write_bytes = output_bytes
        pending.shuffle_bytes = shuffle_bytes
        pending.working_bytes = map_output_bytes

        if all_keys:
            keys = np.concatenate(all_keys)
            values = np.concatenate(all_values) if all_values[0] is not None else None
        else:
            keys = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.int64)
        return keys, values

    # -- helpers -----------------------------------------------------------------

    def _combine(self, job, keys, values, working_region):
        ctx = self.ctx
        charge_sort(ctx, len(keys), "mr:combine", job.intermediate_record_bytes)
        _, keys, values = job.reduce_by_key(keys, values, ctx)
        return keys, values

    def _range_boundaries(self, sample_keys: np.ndarray) -> np.ndarray:
        """TeraSort-style total-order partitioner from a key sample."""
        quantiles = np.linspace(0, 1, self.num_reducers + 1)[1:-1]
        return np.quantile(sample_keys, quantiles)
