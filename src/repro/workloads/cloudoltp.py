""""Cloud OLTP" workloads: Read, Write, Scan (Table 4, workloads 5-7).

Basic datastore operations against the LSM store, driven YCSB-style:
the store is preloaded with the resume corpus scaled per Table 6
(32 x (1..32) GB stands at our scale for 2 MB x (1..32)), then a fixed
batch of operations runs under the profiler.  The metric is OPS
(operations per second, Section 6.1.2), modeled from the measured
per-operation service demand.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.cluster.ledger import CostLedger
from repro.core.workload import (
    ONLINE,
    OPS,
    Workload,
    WorkloadInfo,
    WorkloadInput,
    WorkloadResult,
)
from repro.nosql import BTreeStore, LsmStore
from repro.nosql.store import StoreConfig
from repro.uarch.perfctx import context_or_null
from repro.workloads import inputs

#: Operations per measured run.
OPS_PER_RUN = 2000

#: Effective CPI of the store's request path.
STORE_CPI = 1.4

#: Fraction of block reads that miss the OS page cache and hit disk.
BLOCK_MISS_FRACTION = 0.08

OLTP_STACKS = ("HBase", "Cassandra", "MongoDB", "MySQL")


def _record_key(index: int) -> bytes:
    return f"resume:{index:012d}".encode()


class _CloudOltpWorkload(Workload):
    """Shared preparation and OPS math for Read/Write/Scan.

    Table 4 lists four datastore stacks; the ``stack`` argument selects
    the backend family:

    * ``hbase``     -- LSM store, HBase-style defaults;
    * ``cassandra`` -- LSM store tuned Cassandra-style (bigger memtable,
      more runs before a size-tiered merge);
    * ``mongodb`` / ``mysql`` -- B+ tree store (update-in-place pages).
    """

    default_stack = "hbase"

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        resumes = inputs.resumes_input(scale, seed)
        return WorkloadInput(
            payload=resumes, nbytes=resumes.nbytes, scale=scale,
            details={"records": resumes.num_resumes},
        )

    def _preload(self, resumes, stack: str):
        """Load the chosen backend without profiling (ops are measured)."""
        store = self._make_store(stack)
        for index, size in enumerate(resumes.value_sizes.tolist()):
            store.put(_record_key(index), size)
        if isinstance(store, LsmStore):
            store.flush()
        return store

    def _make_store(self, stack: str):
        name = self.info.name.lower()
        if stack == "hbase":
            return LsmStore(name=name)
        if stack == "cassandra":
            return LsmStore(name=name, config=StoreConfig(
                memtable_budget=8 * 1024 * 1024, compaction_trigger=12,
            ))
        # mongodb / mysql: page-organized engines.
        return BTreeStore(name=name)

    def _finish(self, prepared, stack, store, ctx, cluster,
                ops: int, details: dict) -> WorkloadResult:
        instructions = details.pop("_instructions")
        per_op_instr = instructions / max(1, ops)
        if per_op_instr <= 0:
            per_op_instr = 90_000.0  # nominal HBase path, unprofiled runs
        machine = cluster.node.machine
        cpu_seconds = per_op_instr * STORE_CPI / machine.freq_hz
        disk_bytes_per_op = (
            store.stats.block_read_bytes * BLOCK_MISS_FRACTION / max(1, ops)
        )
        io_seconds = disk_bytes_per_op / cluster.node.disk.seq_bandwidth
        service = cpu_seconds + io_seconds
        ops_per_second = cluster.total_cores / service if service > 0 else 0.0
        ledger = CostLedger(cluster, cpi=STORE_CPI)
        ledger.charge(
            "ops",
            cpu_seconds=cpu_seconds * ops,
            disk_read_bytes=store.stats.block_read_bytes * BLOCK_MISS_FRACTION,
            disk_write_bytes=store.stats.wal_bytes + store.stats.compaction_bytes,
            working_bytes=store.total_bytes,
        )
        cost = ledger.job
        details.update({
            "ops": ops,
            "instructions_per_op": per_op_instr,
            "service_seconds": service,
            "backend": type(store).__name__,
        })
        if isinstance(store, LsmStore):
            details["sstables"] = store.num_sstables
        else:
            details["tree_height"] = store.height
        return WorkloadResult(
            workload=self.info.name, stack=stack, scale=prepared.scale,
            input_bytes=prepared.nbytes, cost=cost,
            metric_name=OPS, metric_value=ops_per_second, details=details,
        )


class ReadWorkload(_CloudOltpWorkload):
    """Workload 5: point reads with a Zipfian (hot-key) access pattern."""

    info = WorkloadInfo(
        name="Read", scenario="Basic Datastore Operations", app_type=ONLINE,
        data_type="semi-structured", data_source="table",
        stacks=OLTP_STACKS, metric=OPS,
        input_description="32 x (1..32) GB data", workload_id=5,
    )

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        resumes = prepared.payload
        store = self._preload(resumes, stack)
        store.ctx = ctx
        rng = np.random.default_rng(11)
        n = resumes.num_resumes
        # YCSB-style skew: 90% of reads hit the hottest 10% of keys.
        hot = rng.random(OPS_PER_RUN) < 0.9
        indices = np.where(
            hot,
            rng.integers(0, max(1, n // 10), size=OPS_PER_RUN),
            rng.integers(0, n, size=OPS_PER_RUN),
        )
        instr_before = ctx.events.instructions
        found = 0
        with ctx.span("nosql:ops", category="nosql", ops=OPS_PER_RUN):
            for index in indices.tolist():
                if store.get(_record_key(int(index))) is not None:
                    found += 1
        return self._finish(
            prepared, stack, store, ctx, cluster, OPS_PER_RUN,
            {"found": found, "hit_rate": found / OPS_PER_RUN,
             "_instructions": ctx.events.instructions - instr_before},
        )


class WriteWorkload(_CloudOltpWorkload):
    """Workload 6: inserts/overwrites (WAL + memtable + flush path)."""

    info = WorkloadInfo(
        name="Write", scenario="Basic Datastore Operations", app_type=ONLINE,
        data_type="semi-structured", data_source="table",
        stacks=OLTP_STACKS, metric=OPS,
        input_description="32 x (1..32) GB data", workload_id=6,
    )

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        resumes = prepared.payload
        store = self._preload(resumes, stack)
        store.ctx = ctx
        rng = np.random.default_rng(12)
        n = resumes.num_resumes
        sizes = resumes.value_sizes
        instr_before = ctx.events.instructions
        with ctx.span("nosql:ops", category="nosql", ops=OPS_PER_RUN):
            for op in range(OPS_PER_RUN):
                # Half updates, half inserts.
                index = int(rng.integers(0, 2 * n))
                store.put(_record_key(index), int(sizes[op % n]))
        return self._finish(
            prepared, stack, store, ctx, cluster, OPS_PER_RUN,
            {"flushes": store.stats.flushes,
             "compactions": store.stats.compactions,
             "_instructions": ctx.events.instructions - instr_before},
        )


class ScanWorkload(_CloudOltpWorkload):
    """Workload 7: short range scans from random start keys."""

    info = WorkloadInfo(
        name="Scan", scenario="Basic Datastore Operations", app_type=ONLINE,
        data_type="semi-structured", data_source="table",
        stacks=OLTP_STACKS, metric=OPS,
        input_description="32 x (1..32) GB data", workload_id=7,
    )

    SCAN_LIMIT = 50
    SCANS_PER_RUN = 300

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        resumes = prepared.payload
        store = self._preload(resumes, stack)
        store.ctx = ctx
        rng = np.random.default_rng(13)
        n = resumes.num_resumes
        instr_before = ctx.events.instructions
        rows = 0
        with ctx.span("nosql:ops", category="nosql", ops=self.SCANS_PER_RUN):
            for _ in range(self.SCANS_PER_RUN):
                start = int(rng.integers(0, n))
                rows += len(store.scan(_record_key(start), self.SCAN_LIMIT))
        return self._finish(
            prepared, stack, store, ctx, cluster, self.SCANS_PER_RUN,
            {"rows_returned": rows,
             "_instructions": ctx.events.instructions - instr_before},
        )
