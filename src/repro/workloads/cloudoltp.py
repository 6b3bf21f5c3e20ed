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

from repro.cluster.ledger import CostLedger
from repro.core.workload import (
    ONLINE,
    OPS,
    Execution,
    Workload,
    WorkloadInfo,
    WorkloadInput,
)
from repro.nosql import BTreeStore, LsmStore
from repro.nosql.store import StoreConfig
from repro.workloads import inputs

#: Effective CPI of the store's request path.
STORE_CPI = 1.4

#: Fraction of block reads that miss the OS page cache and hit disk.
BLOCK_MISS_FRACTION = 0.08

OLTP_STACKS = ("HBase", "Cassandra", "MongoDB", "MySQL")

#: Store family and tuning per stack: HBase-style LSM defaults, an LSM
#: tuned Cassandra-style (bigger memtable, more runs before a size-tiered
#: merge), and page-organized B+ tree engines for MongoDB and MySQL.
STORES = {
    "hbase": (LsmStore, None),
    "cassandra": (LsmStore, StoreConfig(memtable_budget=8 * 1024 * 1024,
                                        compaction_trigger=12)),
    "mongodb": (BTreeStore, None),
    "mysql": (BTreeStore, None),
}


def _record_key(index: int) -> bytes:
    return f"resume:{index:012d}".encode()


class _CloudOltpWorkload(Workload):
    """Shared preparation, measurement and OPS math for Read/Write/Scan:
    a subclass gives the ``_operate`` loop over the loaded store.

    Table 4 lists four datastore stacks; the ``stack`` argument selects
    the backend family from :data:`STORES`.
    """

    default_stack = "hbase"

    #: Store operations one run measures.
    ops_per_run = 2000

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        resumes = inputs.resumes_input(scale, seed)
        return WorkloadInput(
            payload=resumes, nbytes=resumes.nbytes, scale=scale,
            details={"records": resumes.num_resumes},
        )

    def _preload(self, resumes, stack: str):
        """Load the chosen backend without profiling (ops are measured)."""
        family, config = STORES[stack]
        store = family(name=self.info.name.lower(), config=config)
        for index, size in enumerate(resumes.value_sizes.tolist()):
            store.put(_record_key(index), size)
        if isinstance(store, LsmStore):
            store.flush()
        return store

    def _operate(self, store, resumes) -> dict:
        """Run the measured operations; return their functional details."""
        raise NotImplementedError

    def execute(self, prepared, ctx, cluster, stack):
        store = self._preload(prepared.payload, stack)
        store.ctx = ctx
        instr_before = ctx.events.instructions
        with ctx.span("nosql:ops", category="nosql", ops=self.ops_per_run):
            details = self._operate(store, prepared.payload)
        instructions = ctx.events.instructions - instr_before
        ops = self.ops_per_run
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
        return Execution(cost, details, metric_value=ops_per_second)


class ReadWorkload(_CloudOltpWorkload):
    """Workload 5: point reads with a Zipfian (hot-key) access pattern."""

    info = WorkloadInfo(
        name="Read", scenario="Basic Datastore Operations", app_type=ONLINE,
        data_type="semi-structured", data_source="table",
        stacks=OLTP_STACKS, metric=OPS,
        input_description="32 x (1..32) GB data", workload_id=5,
    )

    def _operate(self, store, resumes):
        rng = np.random.default_rng(11)
        n = resumes.num_resumes
        # YCSB-style skew: 90% of reads hit the hottest 10% of keys.
        hot = rng.random(self.ops_per_run) < 0.9
        indices = np.where(
            hot,
            rng.integers(0, max(1, n // 10), size=self.ops_per_run),
            rng.integers(0, n, size=self.ops_per_run),
        )
        found = 0
        for index in indices.tolist():
            if store.get(_record_key(int(index))) is not None:
                found += 1
        return {"found": found, "hit_rate": found / self.ops_per_run}


class WriteWorkload(_CloudOltpWorkload):
    """Workload 6: inserts/overwrites (WAL + memtable + flush path)."""

    info = WorkloadInfo(
        name="Write", scenario="Basic Datastore Operations", app_type=ONLINE,
        data_type="semi-structured", data_source="table",
        stacks=OLTP_STACKS, metric=OPS,
        input_description="32 x (1..32) GB data", workload_id=6,
    )

    def _operate(self, store, resumes):
        rng = np.random.default_rng(12)
        n = resumes.num_resumes
        sizes = resumes.value_sizes
        for op in range(self.ops_per_run):
            # Half updates, half inserts.
            index = int(rng.integers(0, 2 * n))
            store.put(_record_key(index), int(sizes[op % n]))
        return {"flushes": store.stats.flushes,
                "compactions": store.stats.compactions}


class ScanWorkload(_CloudOltpWorkload):
    """Workload 7: short range scans from random start keys."""

    info = WorkloadInfo(
        name="Scan", scenario="Basic Datastore Operations", app_type=ONLINE,
        data_type="semi-structured", data_source="table",
        stacks=OLTP_STACKS, metric=OPS,
        input_description="32 x (1..32) GB data", workload_id=7,
    )

    SCAN_LIMIT = 50
    ops_per_run = 300

    def _operate(self, store, resumes):
        rng = np.random.default_rng(13)
        rows = 0
        for _ in range(self.ops_per_run):
            start = int(rng.integers(0, resumes.num_resumes))
            rows += len(store.scan(_record_key(start), self.SCAN_LIMIT))
        return {"rows_returned": rows}
