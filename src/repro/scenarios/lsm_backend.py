"""LsmBackend: the protocol adapter over the LSM store (HBase stand-in).

Maps protocol writes onto ``put``/``delete`` against
:class:`repro.nosql.store.LsmStore` and knobs onto
:class:`~repro.nosql.store.StoreConfig`: ``wal=off`` disables the log
append (and with it crash recovery), and the LSM-specific ``bloom`` /
``compaction`` paths are constructor options since they have no meaning
for the other backends.  This module is the *only* scenario-side code
allowed to import ``repro.nosql`` -- the driver and library stay
engine-blind.
"""

from __future__ import annotations

from repro.nosql.store import LsmStore, StoreConfig
from repro.scenarios.backend import StorageBackend, key_bytes

#: Fraction of block reads missing the OS page cache and hitting disk
#: (same figure the Cloud OLTP workloads use).
BLOCK_MISS_FRACTION = 0.08


def _decode(key: bytes) -> int:
    """Inverse of :func:`~repro.scenarios.backend.key_bytes`."""
    return int(key[4:])


class LsmBackend(StorageBackend):
    """The LSM store behind the unified protocol."""

    name = "lsm"
    CPI = 1.4

    def __init__(self, knobs=None, ctx=None, *, bloom: bool = True,
                 compaction: bool = True, faults=None):
        super().__init__(knobs, ctx)
        self._store = LsmStore(
            name="scenario",
            ctx=ctx,
            config=StoreConfig(wal=self.knobs.wal == "on",
                               bloom=bloom, compaction=compaction),
            faults=faults,
        )
        self._charged = {"block_read_bytes": 0.0, "wal_bytes": 0.0,
                         "compaction_bytes": 0.0}
        self._live: set = set()   # keys with a live (non-tombstone) record

    def _on_attach(self) -> None:
        # Picks up the context's fault injector too, so the store's own
        # crash/block_corrupt sites join the scenario's op-level sites.
        self._store.ctx = self.ctx

    # -- backing-store primitives ----------------------------------------------

    def _apply(self, key: int, size) -> None:
        if size is None:
            self._store.delete(key_bytes(key))
            self._live.discard(key)
        else:
            self._store.put(key_bytes(key), size)
            self._live.add(key)

    def _get(self, key: int):
        value = self._store.get(key_bytes(key))
        return None if value is None else value.stamp

    def _scan(self, start_key: int, limit: int) -> list:
        rows = self._store.scan(key_bytes(start_key), limit)
        return [(_decode(k), v.stamp) for k, v in rows]

    def record_count(self) -> int:
        # Tracked adapter-side: deriving it from the store would need a
        # full merged scan (and would charge the profiler for it).
        return len(self._live)

    # -- cost hooks ------------------------------------------------------------

    def charge_phase(self, pending) -> None:
        """Byte volumes since the previous call, from the store's own
        accounting: block reads (page-cache-missing fraction) as disk
        reads, WAL + compaction traffic as disk writes."""
        stats = self._store.stats
        read_delta = stats.block_read_bytes - self._charged["block_read_bytes"]
        write_delta = (
            (stats.wal_bytes - self._charged["wal_bytes"])
            + (stats.compaction_bytes - self._charged["compaction_bytes"])
        )
        self._charged["block_read_bytes"] = stats.block_read_bytes
        self._charged["wal_bytes"] = stats.wal_bytes
        self._charged["compaction_bytes"] = stats.compaction_bytes
        pending.disk_read_bytes += read_delta * BLOCK_MISS_FRACTION
        pending.disk_write_bytes += write_delta
        pending.working_bytes += self._store.total_bytes

    def work(self) -> dict:
        stats = self._store.stats
        return {
            "flushes": stats.flushes,
            "compactions": stats.compactions,
            "sstables": self._store.num_sstables,
            "bloom_skips": stats.bloom_skips,
            "tombstones": self._store.num_tombstones,
            "wal_bytes": stats.wal_bytes,
            "block_read_bytes": stats.block_read_bytes,
        }
