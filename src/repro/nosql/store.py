"""The LSM key-value store: HBase stand-in for the Cloud OLTP workloads.

Write path: WAL append -> memtable insert -> flush to an SSTable when the
memtable exceeds its budget -> size-tiered compaction when runs pile up.
Read path: memtable, then SSTables newest-first, each gated by its Bloom
filter; a positive probe costs one index search plus one block read.
Scans merge the memtable with all runs, each entered by bisection (the
memtable keeps its keys sorted beside the dict), so a scan costs
O(log N + rows examined) and returns ``limit`` *live* rows: tombstones
mask older versions but never consume a slot.

Every operation charges the profiler (under the NoSQL code profile, one
of the deepest stacks in the suite -- the paper finds online-service/
Cloud OLTP workloads have the highest L1I and L2 MPKI) and updates
operation statistics the serving layer converts into OPS and latency.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from repro.nosql.sstable import BLOCK_SIZE, SSTable, Value
from repro.obs.metrics import METRICS
from repro.sitehash import stamp
from repro.uarch.codemodel import NOSQL_STACK
from repro.uarch.perfctx import context_or_null

MB = 1024 * 1024


@dataclass
class StoreStats:
    """Operation and IO counters for one store.

    Tombstones are counted separately from the live-record traffic:
    ``tombstones_written`` is every delete marker appended, and the scan
    and compaction paths note how many they masked or elided
    (``LsmStore.num_tombstones`` snapshots how many are currently
    buried in the memtable and runs).
    """

    puts: int = 0
    gets: int = 0
    scans: int = 0
    deletes: int = 0
    get_misses: int = 0
    bloom_probes: int = 0
    bloom_skips: int = 0
    sstable_reads: int = 0
    memtable_hits: int = 0
    flushes: int = 0
    compactions: int = 0
    wal_bytes: float = 0.0
    block_read_bytes: float = 0.0
    compaction_bytes: float = 0.0
    crashes: int = 0
    wal_replays: int = 0
    wal_replay_bytes: float = 0.0
    checksum_failures: int = 0
    #: Delete markers written (a delete is not a put; it buries a key).
    tombstones_written: int = 0
    #: Rows a scan dropped because a newer tombstone masked them.
    tombstones_masked: int = 0
    #: Tombstone records a full compaction elided from the merged run.
    tombstones_compacted: int = 0


@dataclass(frozen=True)
class StoreConfig:
    """Tuning knobs of the LSM store.

    The three structural paths -- write-ahead log, Bloom filters, and
    size-tiered compaction -- are knob-controlled rather than
    hard-wired, so storage-backend adapters (:mod:`repro.scenarios`)
    can trade durability and read amplification explicitly:

    * ``wal=False`` skips the log append on every write (faster writes,
      but a crash loses the memtable -- recovery has nothing to replay);
    * ``bloom=False`` consults every SSTable's index directly (each run
      pays an index search plus a block read on point lookups);
    * ``compaction=False`` lets runs accumulate without ever merging
      (no compaction IO, but reads and scans touch every run).
    """

    memtable_budget: int = 4 * MB
    compaction_trigger: int = 8      # flush count before a full merge
    wal: bool = True
    bloom: bool = True
    compaction: bool = True
    # The full HBase request path (RPC, handler threads, MVCC, JVM) runs
    # on the order of 10^5 instructions per operation.
    per_op_int: float = 55_000.0
    per_op_branch: float = 18_000.0
    per_op_fp: float = 700.0
    per_op_loads: float = 12_000.0
    per_op_stores: float = 4_000.0
    #: Our store holds ~1/16384 of the paper's 32 GB; persistent-data
    #: regions are declared at paper scale so cache/TLB pressure matches
    #: the real deployment (DESIGN.md, substitution 3).
    region_scale: int = 16_384
    #: Fraction of block reads served by the block cache (RAM-resident,
    #: so they still traverse the cache hierarchy from L2/L3).
    block_cache_hit: float = 0.9


class LsmStore:
    """A single-node LSM store with profiling hooks."""

    def __init__(self, name: str = "store", ctx=None, config: StoreConfig = None,
                 faults=None):
        self.name = name
        self._explicit_faults = faults
        self.ctx = ctx
        self.config = config or StoreConfig()
        self.stats = StoreStats()
        self._memtable: dict = {}
        #: The memtable's keys in sorted order: the dict answers point
        #: lookups, this list lets a scan bisect to its start key.
        self._memtable_keys: list = []
        self._memtable_bytes = 0
        self._sstables: list = []   # newest last
        #: Replay log of every write since the last flush, in order --
        #: the store's actual WAL.  Crash recovery rebuilds the memtable
        #: from it; flush truncates it (HBase log-roll semantics).
        self._wal: list = []
        self._generation = 0
        self._pending_churn_ops = 0
        # Registry counters are resolved once; incrementing on the op
        # hot paths is then a single attribute addition.
        self._ops_counter = METRICS.counter("nosql.ops")
        self._bloom_probe_counter = METRICS.counter("nosql.bloom_probes")
        self._bloom_skip_counter = METRICS.counter("nosql.bloom_skips")

    @property
    def ctx(self):
        return self._ctx

    @ctx.setter
    def ctx(self, value):
        """Attaching a profiling context also picks up its fault injector.

        Workloads preload their stores without a context and attach one
        for the measured phase (``store.ctx = ctx``), so resolving the
        injector here means preloads stay fault-free while measured
        operations see the chaos plan.
        """
        from repro.faults.inject import resolve_faults

        self._ctx = context_or_null(value)
        self.faults = resolve_faults(self._ctx, self._explicit_faults)

    # -- public API -----------------------------------------------------------

    def put(self, key: bytes, value_size: int) -> Value:
        """Insert/overwrite a record of ``value_size`` real bytes."""
        if value_size < 0:
            raise ValueError("value_size must be non-negative")
        value = Value(size=value_size, stamp=stamp(key, value_size))
        self._write(key, value)
        self.stats.puts += 1
        return value

    def delete(self, key: bytes) -> None:
        self._write(key, Value.tombstone())
        self.stats.deletes += 1
        self.stats.tombstones_written += 1

    def get(self, key: bytes):
        """Point lookup; returns the Value or None."""
        ctx = self.ctx
        self.stats.gets += 1
        with ctx.code(NOSQL_STACK):
            self._charge_op(ctx)
            ctx.rand_read(self._region("memtable"), 3)
            if key in self._memtable:
                self.stats.memtable_hits += 1
                value = self._memtable[key]
                return None if value.is_tombstone else value
            for sstable in reversed(self._sstables):
                if self.config.bloom:
                    self.stats.bloom_probes += 1
                    self._bloom_probe_counter.inc()
                    ctx.skewed_read(self._region("bloom"),
                                    sstable.bloom.num_hashes,
                                    elem=1, hot_fraction=0.01, hot_prob=0.6)
                    ctx.int_ops(12 * sstable.bloom.num_hashes)
                    if not sstable.bloom.might_contain(key):
                        self.stats.bloom_skips += 1
                        self._bloom_skip_counter.inc()
                        continue
                # Index search + one block read.
                probes = max(1, int(math.log2(max(2, len(sstable)))))
                ctx.skewed_read(self._region("index"), probes,
                                hot_fraction=0.01, hot_prob=0.7)
                ctx.int_ops(8 * probes)
                self.stats.sstable_reads += 1
                self.stats.block_read_bytes += BLOCK_SIZE
                # One block = 64 cache lines; hot blocks sit in the block
                # cache (a small fraction of the paper-scale data region).
                ctx.skewed_read(
                    self._region("data"), BLOCK_SIZE / 64, elem=64,
                    hot_fraction=self._block_cache_fraction(),
                    hot_prob=self.config.block_cache_hit,
                )
                if (self.faults.enabled
                        and self.faults.fires("block_corrupt",
                                              self._site("data"))
                        is not None):
                    self.stats.checksum_failures += 1
                    if not self.faults.recovery:
                        # Unverified read: skip the damaged run, possibly
                        # surfacing a stale value or a miss.
                        self.faults.lost("block", self._site("data"))
                        continue
                    # Checksum mismatch: discard the cached block and
                    # re-read it from disk, verified.
                    with ctx.span("recovery:checksum_reread",
                                  category="faults", bytes=BLOCK_SIZE):
                        ctx.skewed_read(
                            self._region("data"), BLOCK_SIZE / 64, elem=64,
                            hot_fraction=self._block_cache_fraction(),
                            hot_prob=0.0,
                        )
                    self.stats.block_read_bytes += BLOCK_SIZE
                    self.faults.recovered("checksum_reread",
                                          self._site("data"),
                                          bytes=BLOCK_SIZE)
                value = sstable.get(key)
                if value is not None:
                    return None if value.is_tombstone else value
            self.stats.get_misses += 1
            return None

    def scan(self, start_key: bytes, limit: int) -> list:
        """Ordered scan of up to ``limit`` live records from ``start_key``.

        Returns ``limit`` records whenever that many live ones exist:
        buried tombstones are examined (and charged) on the way but do
        not count against the limit.
        """
        if limit <= 0:
            return []
        ctx = self.ctx
        self.stats.scans += 1
        with ctx.code(NOSQL_STACK):
            self._charge_op(ctx)
            rows = self._merged_rows(start_key, limit)
            live = [(k, v) for k, v in rows if not v.is_tombstone]
            self.stats.tombstones_masked += len(rows) - len(live)
            scanned_bytes = sum(len(k) + v.size for k, v in live)
            # Scanned blocks are partially block-cache resident.
            ctx.skewed_read(
                self._region("data"),
                max(BLOCK_SIZE, scanned_bytes) / 64, elem=64,
                hot_fraction=self._block_cache_fraction(),
                hot_prob=self.config.block_cache_hit,
            )
            ctx.int_ops(4200 * len(rows))
            ctx.branch_ops(1300 * len(rows))
            ctx.fp_ops(30 * len(rows))
            self.stats.block_read_bytes += max(BLOCK_SIZE, scanned_bytes)
            return live

    def flush(self) -> None:
        """Force the memtable to an SSTable run."""
        if not self._memtable:
            return
        ctx = self.ctx
        with ctx.span("nosql:flush", category="nosql",
                      records=len(self._memtable)) as sp:
            items = [(k, self._memtable[k]) for k in self._memtable_keys]
            run_bytes = sum(len(k) + v.size for k, v in items)
            sp.set("run_bytes", run_bytes)
            ctx.seq_write(self._region("data"), run_bytes)
            ctx.int_ops(30 * len(items))
            self._generation += 1
            self._sstables.append(SSTable(items, generation=self._generation))
            self._memtable = {}
            self._memtable_keys = []
            self._memtable_bytes = 0
            self._wal = []   # log roll: flushed records need no replay
        self.stats.flushes += 1
        METRICS.counter("nosql.flushes").inc()
        if (self.config.compaction
                and len(self._sstables) >= self.config.compaction_trigger):
            self._compact()

    # -- internals --------------------------------------------------------------

    @property
    def num_sstables(self) -> int:
        return len(self._sstables)

    @property
    def num_tombstones(self) -> int:
        """Delete markers currently buried in the memtable and runs."""
        return (sum(1 for v in self._memtable.values() if v.is_tombstone)
                + sum(1 for t in self._sstables
                      for v in t.values if v.is_tombstone))

    @property
    def total_bytes(self) -> int:
        return self._memtable_bytes + sum(t.data_bytes for t in self._sstables)

    def _write(self, key: bytes, value: Value) -> None:
        ctx = self.ctx
        with ctx.code(NOSQL_STACK):
            if (self.faults.enabled
                    and self.faults.fires("crash", self._site("wal"))
                    is not None):
                self._crash()
            self._charge_op(ctx)
            if self.config.wal:
                record_bytes = len(key) + max(value.size, 1)
                ctx.seq_write(self._region("wal"), record_bytes)
                self.stats.wal_bytes += record_bytes
                self._wal.append((key, value))
            self._insert_memtable(key, value, charge=True)
            if self._memtable_bytes >= self.config.memtable_budget:
                self.flush()

    def _merged_rows(self, start_key: bytes, limit: int) -> list:
        """What a scan examines: the merged ``(key, newest value)`` rows
        from ``start_key`` in key order, up to and including the
        ``limit``-th live one (all of them when fewer are live).

        Every source gives its first ``fetch`` keys by bisection.  A key
        of merged rank < ``fetch`` has rank < ``fetch`` in every source
        that holds it, so the first ``fetch`` merged rows are exact --
        and all of them are when no source was cut short.  If tombstones
        leave an exact prefix short of ``limit`` live rows, ``fetch``
        doubles.
        """
        first = bisect.bisect_left(self._memtable_keys, start_key)
        fetch = limit
        while True:
            memtable_keys = self._memtable_keys[first:first + fetch]
            cut = len(memtable_keys) == fetch
            merged: dict = {}
            for sstable in self._sstables:           # oldest first
                chunk = sstable.range_from(start_key, fetch)
                cut = cut or len(chunk) == fetch
                merged.update(chunk)
            for key in memtable_keys:                # memtable wins
                merged[key] = self._memtable[key]
            rows = sorted(merged.items())
            if cut:
                del rows[fetch:]
            live = 0
            for end, (_, value) in enumerate(rows, 1):
                live += not value.is_tombstone
                if live == limit:
                    return rows[:end]
            if not cut:
                return rows
            fetch *= 2

    def _insert_memtable(self, key: bytes, value: Value,
                         charge: bool) -> None:
        if charge:
            self.ctx.rand_write(self._region("memtable"), 3)
        old = self._memtable.get(key)
        if old is None:
            bisect.insort(self._memtable_keys, key)
        else:
            self._memtable_bytes -= len(key) + max(old.size, 1)
        self._memtable[key] = value
        self._memtable_bytes += len(key) + max(value.size, 1)

    def _crash(self) -> None:
        """The store process dies: RAM state is gone; SSTables survive.

        With recovery the WAL (durable by definition: every ``_write``
        appended before inserting) is replayed in order, rebuilding a
        bit-identical memtable; without recovery the un-flushed records
        are simply lost.
        """
        ctx = self.ctx
        site = self._site("wal")
        self.stats.crashes += 1
        lost = len(self._memtable)
        self._memtable = {}
        self._memtable_keys = []
        self._memtable_bytes = 0
        self._pending_churn_ops = 0
        if not self.faults.recovery or not self.config.wal:
            # No recovery -- or durability was knobbed off (wal=False),
            # in which case there is no log to replay even though the
            # recovery machinery is willing.
            self._wal = []
            self.faults.lost("memtable_records", site, records=lost)
            return
        replay_bytes = sum(len(k) + max(v.size, 1) for k, v in self._wal)
        with ctx.span("recovery:wal_replay", category="faults",
                      records=len(self._wal), bytes=replay_bytes):
            ctx.seq_read(self._region("wal"), replay_bytes)
            ctx.rand_write(self._region("memtable"), 3 * len(self._wal))
            ctx.int_ops(400.0 * len(self._wal))
            for key, value in self._wal:
                self._insert_memtable(key, value, charge=False)
        self.stats.wal_replays += 1
        self.stats.wal_replay_bytes += replay_bytes
        self.faults.recovered("wal_replay", site,
                              records=len(self._wal), bytes=replay_bytes)

    def _compact(self) -> None:
        """Size-tiered full merge of all runs into one."""
        ctx = self.ctx
        with ctx.span("nosql:compact", category="nosql",
                      runs=len(self._sstables)) as sp:
            merged: dict = {}
            total = 0
            for sstable in self._sstables:   # oldest first; later wins
                for key, value in sstable.items():
                    merged[key] = value
                total += sstable.data_bytes
            items = sorted((k, v) for k, v in merged.items() if not v.is_tombstone)
            self.stats.tombstones_compacted += len(merged) - len(items)
            ctx.seq_read(self._region("data"), total)
            merged_bytes = sum(len(k) + v.size for k, v in items)
            ctx.seq_write(self._region("data"), merged_bytes)
            ctx.int_ops(25 * len(items))
            sp.set("compaction_bytes", total + merged_bytes)
        self.stats.compaction_bytes += total + merged_bytes
        self._generation += 1
        self._sstables = [SSTable(items, generation=self._generation)] if items else []
        self.stats.compactions += 1
        METRICS.counter("nosql.compactions").inc()

    #: Short-lived allocation per operation (RPC buffers, cell objects).
    OP_CHURN_BYTES = 200 * 1024

    #: Churn is charged in batches (identical traffic, fewer simulated
    #: pattern expansions) to keep profiled runs fast.
    CHURN_BATCH_OPS = 64

    def _charge_op(self, ctx) -> None:
        self._ops_counter.inc()
        config = self.config
        ctx.int_ops(config.per_op_int)
        ctx.branch_ops(config.per_op_branch)
        ctx.fp_ops(config.per_op_fp)
        ctx.touch("nosql:heap", 8 << 30)
        ctx.skewed_read("nosql:heap", config.per_op_loads,
                        hot_fraction=4e-6, hot_prob=0.995)
        self._pending_churn_ops += 1
        if self._pending_churn_ops >= self.CHURN_BATCH_OPS:
            ctx.touch("nosql:young", 6 * MB)
            ctx.seq_write(
                "nosql:young", self.OP_CHURN_BYTES * self._pending_churn_ops,
                elem=16,
            )
            self._pending_churn_ops = 0
        ctx.skewed_write("nosql:heap", config.per_op_stores,
                         hot_fraction=4e-6, hot_prob=0.995)

    def _site(self, part: str) -> str:
        """Injection-site name for one store component (no touch)."""
        return f"nosql:{self.name}:{part}"

    def _region(self, part: str) -> str:
        name = f"nosql:{self.name}:{part}"
        self.ctx.touch(name, self._region_bytes(part))
        return name

    def _region_bytes(self, part: str) -> int:
        """Declared (paper-scale) size of one store component."""
        scale = self.config.region_scale
        if part == "memtable":
            return self.config.memtable_budget
        if part == "bloom":
            return max(1024,
                       sum(t.bloom.nbytes for t in self._sstables) * scale)
        if part == "index":
            return max(1024, sum(len(t) * 24 for t in self._sstables) * scale)
        if part == "data":
            return max(BLOCK_SIZE, self.total_bytes * scale)
        if part == "wal":
            return 64 * MB
        raise KeyError(part)

    def _block_cache_fraction(self) -> float:
        """Block cache (~256 MB) as a fraction of the paper-scale data."""
        return max(1e-7, min(1.0, (256 * MB) / self._region_bytes("data")))
