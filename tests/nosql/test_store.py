"""Unit tests for the LSM store, SSTables, and Bloom filters."""

import pytest

from repro.nosql import BloomFilter, LsmStore, SSTable, StoreConfig, Value
from repro.uarch import PerfContext, XEON_E5645


def key(i: int) -> bytes:
    return f"row:{i:08d}".encode()


class TestBloomFilter:
    def test_added_keys_always_found(self):
        bloom = BloomFilter(expected_items=100)
        for i in range(100):
            bloom.add(key(i))
        assert all(bloom.might_contain(key(i)) for i in range(100))

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(expected_items=1000)
        for i in range(1000):
            bloom.add(key(i))
        false_hits = sum(bloom.might_contain(key(i)) for i in range(1000, 11000))
        assert false_hits / 10000 < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=0)


class TestSSTable:
    def _items(self, n=10):
        return [(key(i), Value(size=100, stamp=i)) for i in range(n)]

    def test_point_get(self):
        table = SSTable(self._items(), generation=1)
        assert table.get(key(3)).stamp == 3
        assert table.get(key(99)) is None

    def test_range_from(self):
        table = SSTable(self._items(), generation=1)
        rows = table.range_from(key(4), limit=3)
        assert [k for k, _ in rows] == [key(4), key(5), key(6)]

    def test_rejects_unsorted(self):
        items = [(key(2), Value(1, 1)), (key(1), Value(1, 1))]
        with pytest.raises(ValueError):
            SSTable(items, generation=1)

    def test_rejects_duplicates(self):
        items = [(key(1), Value(1, 1)), (key(1), Value(1, 2))]
        with pytest.raises(ValueError):
            SSTable(items, generation=1)


class TestLsmStore:
    def test_get_after_put(self):
        store = LsmStore()
        put_value = store.put(key(1), 500)
        got = store.get(key(1))
        assert got == put_value
        assert got.size == 500

    def test_get_missing(self):
        store = LsmStore()
        assert store.get(key(42)) is None
        assert store.stats.get_misses == 1

    def test_overwrite_latest_wins(self):
        store = LsmStore()
        store.put(key(1), 100)
        newer = store.put(key(1), 200)
        assert store.get(key(1)) == newer

    def test_get_after_flush(self):
        store = LsmStore()
        for i in range(50):
            store.put(key(i), 100)
        store.flush()
        assert store.num_sstables >= 1
        assert store.get(key(25)).size == 100

    def test_overwrite_across_flush(self):
        store = LsmStore()
        store.put(key(7), 100)
        store.flush()
        newer = store.put(key(7), 300)
        store.flush()
        assert store.get(key(7)) == newer

    def test_delete_tombstone(self):
        store = LsmStore()
        store.put(key(1), 100)
        store.flush()
        store.delete(key(1))
        assert store.get(key(1)) is None
        store.flush()
        assert store.get(key(1)) is None

    def test_automatic_flush_on_budget(self):
        store = LsmStore(config=StoreConfig(memtable_budget=4096))
        for i in range(100):
            store.put(key(i), 100)
        assert store.stats.flushes > 0

    def test_compaction_merges_runs(self):
        store = LsmStore(config=StoreConfig(memtable_budget=1024, compaction_trigger=4))
        for i in range(200):
            store.put(key(i % 40), 100)
        assert store.stats.compactions > 0
        assert store.num_sstables < 4
        # All live keys still readable after compaction.
        for i in range(40):
            assert store.get(key(i)) is not None

    def test_compaction_drops_tombstones(self):
        store = LsmStore(config=StoreConfig(memtable_budget=512, compaction_trigger=2))
        store.put(key(1), 100)
        store.flush()
        store.delete(key(1))
        store.flush()  # triggers compaction at 2 runs
        assert store.stats.compactions >= 1
        assert store.get(key(1)) is None

    def test_scan_ordered_and_live(self):
        store = LsmStore()
        for i in (5, 3, 9, 1, 7):
            store.put(key(i), 100)
        store.flush()
        store.delete(key(5))
        rows = store.scan(key(0), limit=10)
        keys = [k for k, _ in rows]
        assert keys == sorted(keys)
        assert key(5) not in keys
        assert key(3) in keys

    def test_scan_merges_memtable_over_sstable(self):
        store = LsmStore()
        store.put(key(2), 100)
        store.flush()
        fresh = store.put(key(2), 777)
        rows = dict(store.scan(key(0), limit=10))
        assert rows[key(2)] == fresh

    def test_scan_limit(self):
        store = LsmStore()
        for i in range(20):
            store.put(key(i), 10)
        assert len(store.scan(key(0), limit=5)) == 5
        assert store.scan(key(0), limit=0) == []

    def test_bloom_skips_absent_tables(self):
        store = LsmStore()
        for i in range(100):
            store.put(key(i), 50)
        store.flush()
        for i in range(1000, 1100):
            store.get(key(i))
        assert store.stats.bloom_skips > 80

    def test_stats_and_bytes(self):
        store = LsmStore()
        store.put(key(1), 100)
        assert store.stats.puts == 1
        assert store.stats.wal_bytes > 0
        assert store.total_bytes > 0

    def test_profiled_ops(self):
        ctx = PerfContext(XEON_E5645, seed=0)
        store = LsmStore(ctx=ctx)
        for i in range(200):
            store.put(key(i), 200)
        for i in range(200):
            store.get(key(i))
        events = ctx.finalize().events
        assert events.int_ops > 1e5
        assert events.l1i_misses > 0

    def test_negative_value_size_rejected(self):
        with pytest.raises(ValueError):
            LsmStore().put(key(1), -5)


class TestTombstoneStats:
    """Tombstones are counted separately from live-record traffic."""

    def test_delete_counts_tombstones_written(self):
        store = LsmStore()
        store.put(key(1), 100)
        store.delete(key(1))
        store.delete(key(2))   # deleting a missing key still writes a marker
        assert store.stats.deletes == 2
        assert store.stats.tombstones_written == 2
        assert store.num_tombstones == 2

    def test_scan_counts_masked_tombstones(self):
        store = LsmStore()
        for i in range(6):
            store.put(key(i), 50)
        store.delete(key(2))
        store.delete(key(4))
        live = store.scan(key(0), limit=10)
        assert [k for k, _ in live] == [key(0), key(1), key(3), key(5)]
        assert store.stats.tombstones_masked == 2

    def test_compaction_counts_elided_tombstones(self):
        store = LsmStore(config=StoreConfig(compaction_trigger=2))
        store.put(key(1), 50)
        store.put(key(2), 50)
        store.flush()
        store.delete(key(1))
        store.flush()          # second run triggers the merge
        assert store.stats.compactions == 1
        assert store.stats.tombstones_compacted == 1
        assert store.num_tombstones == 0

    def test_tombstone_masks_older_sstable_version(self):
        """delete -> scan across the memtable/SSTable boundary: a newer
        tombstone must bury the record in an older run."""
        store = LsmStore()
        store.put(key(1), 100)
        store.put(key(2), 100)
        store.flush()                    # live versions in run 1
        store.delete(key(1))             # tombstone in the memtable
        rows = store.scan(key(0), limit=10)
        assert [k for k, _ in rows] == [key(2)]
        store.flush()                    # tombstone now in run 2
        rows = store.scan(key(0), limit=10)
        assert [k for k, _ in rows] == [key(2)]
        assert store.get(key(1)) is None

    def test_reinsert_after_tombstone_resurrects(self):
        store = LsmStore()
        store.put(key(1), 100)
        store.flush()
        store.delete(key(1))
        store.flush()
        store.put(key(1), 77)
        assert store.get(key(1)).size == 77
        assert [k for k, _ in store.scan(key(0), 10)] == [key(1)]


class TestOrderedScan:
    """A scan returns ``limit`` *live* rows and examines O(limit) entries:
    tombstones mask, but never consume a slot."""

    LIMIT = 5
    DEAD = (1, 3, 4)         # buried in front of the LIMIT-th live key

    def _expected(self, n=12):
        return [key(i) for i in range(n) if i not in self.DEAD][:self.LIMIT]

    def _load(self, store, n=12):
        for i in range(n):
            store.put(key(i), 40)

    def test_tombstones_in_the_memtable_do_not_consume_slots(self):
        store = LsmStore()
        self._load(store)
        for i in self.DEAD:
            store.delete(key(i))
        rows = store.scan(key(0), self.LIMIT)
        assert [k for k, _ in rows] == self._expected()

    def test_tombstones_in_an_older_run_do_not_consume_slots(self):
        store = LsmStore(config=StoreConfig(compaction=False))
        self._load(store)
        store.flush()
        for i in self.DEAD:
            store.delete(key(i))
        store.flush()                      # dead rows now in run 2
        store.put(key(20), 40)             # a newer run and a memtable on top
        store.flush()
        store.put(key(21), 40)
        rows = store.scan(key(0), self.LIMIT)
        assert [k for k, _ in rows] == self._expected()

    def test_tombstones_across_the_flush_boundary(self):
        store = LsmStore()
        self._load(store)
        store.flush()                      # live versions in the run
        for i in self.DEAD:
            store.delete(key(i))           # tombstones in the memtable
        rows = store.scan(key(0), self.LIMIT)
        assert [k for k, _ in rows] == self._expected()
        # ... and from a start key that is itself buried.
        assert [k for k, _ in store.scan(key(3), 2)] == [key(5), key(6)]

    def test_more_tombstones_than_any_fixed_over_fetch(self):
        """Dead rows outnumber ``limit`` many times over, split between
        a run and the memtable: the fetch window has to widen."""
        store = LsmStore()
        self._load(store, n=200)
        for i in range(0, 90):
            store.delete(key(i))
        store.flush()
        for i in range(90, 180):
            store.delete(key(i))
        rows = store.scan(key(0), 3)
        assert [k for k, _ in rows] == [key(180), key(181), key(182)]
        assert store.scan(key(0), 50) == store.scan(key(180), 50)
        assert len(store.scan(key(0), 50)) == 20

    def test_masked_counts_only_dead_rows_before_the_last_returned(self):
        store = LsmStore()
        self._load(store)
        for i in self.DEAD + (9, 11):      # 9 and 11 lie past the answer
            store.delete(key(i))
        rows = store.scan(key(0), self.LIMIT)
        assert [k for k, _ in rows][-1] == key(7)
        assert store.stats.tombstones_masked == len(self.DEAD)
        # An exhausted range examines, and counts, every dead row in it.
        store.scan(key(8), self.LIMIT)
        assert store.stats.tombstones_masked == len(self.DEAD) + 2

    def test_charges_follow_the_rows_examined(self):
        """int ops are billed on the merged prefix (dead rows included),
        block bytes on the live rows -- not on a wider fetch window."""
        def charges(dead):
            ctx = PerfContext(XEON_E5645, seed=0)
            store = LsmStore()
            self._load(store)
            for i in dead:
                store.delete(key(i))
            store.ctx = ctx
            before = ctx.events.int_ops
            store.scan(key(0), self.LIMIT)
            return ctx.events.int_ops - before, store.stats.block_read_bytes

        clean_ops, clean_bytes = charges(())
        dead_ops, dead_bytes = charges(self.DEAD)
        assert dead_ops - clean_ops == 4200 * len(self.DEAD)
        assert dead_bytes == clean_bytes

    def test_scan_does_not_walk_the_memtable(self):
        """Structural, not timed: a scan over a 5 000-key memtable never
        iterates the dict, it bisects the sorted key view."""
        class Counting(dict):
            walks = 0

            def items(self):
                Counting.walks += 1
                return super().items()

            def __iter__(self):
                Counting.walks += 1
                return super().__iter__()

        store = LsmStore(config=StoreConfig(memtable_budget=1 << 30))
        for i in range(5000):
            store.put(key(i * 7919 % 5000), 10)
        store.delete(key(2501))
        store._memtable = Counting(store._memtable)
        assert list(store._memtable) and Counting.walks == 1   # it counts
        rows = store.scan(key(2500), 20)
        assert [k for k, _ in rows] == [key(2500)] + [
            key(i) for i in range(2502, 2521)]
        assert Counting.walks == 1
        assert store.stats.flushes == 0

    def test_sorted_view_tracks_the_memtable(self):
        """Overwrites and deletes of missing keys keep one entry per key;
        flush hands the view to the run and starts an empty one."""
        store = LsmStore()
        for i in (5, 2, 8, 2, 5):
            store.put(key(i), 10)
        store.delete(key(6))               # missing: still a new entry
        store.delete(key(6))
        store.put(key(8), 99)
        assert store._memtable_keys == sorted(store._memtable)
        assert store._memtable_keys == [key(2), key(5), key(6), key(8)]
        store.flush()
        assert store._memtable_keys == [] and not store._memtable
        store.put(key(1), 10)
        assert store._memtable_keys == [key(1)]
        assert [k for k, _ in store.scan(key(0), 10)] == [
            key(1), key(2), key(5), key(8)]

    @pytest.mark.parametrize("wal", [True, False])
    def test_sorted_view_survives_a_crash(self, wal):
        from repro.faults import FaultPlan
        from repro.faults.inject import FaultInjector

        store = LsmStore(config=StoreConfig(wal=wal),
                         faults=FaultInjector(FaultPlan.parse("crash:at=6"),
                                              seed=0))
        for i in (9, 4, 7, 1, 8, 3, 6, 2):
            store.put(key(i), 10)
        assert store.stats.crashes == 1
        assert store.stats.wal_replays == (1 if wal else 0)
        assert store._memtable_keys == sorted(store._memtable)
        survivors = [1, 2, 3, 4, 6, 7, 8, 9] if wal else [2, 3, 6]
        assert [k for k, _ in store.scan(key(0), 10)] == [
            key(i) for i in survivors]


class TestStoreKnobs:
    """WAL / bloom / compaction are knob-controlled, not hard-wired."""

    def test_wal_off_skips_log(self):
        store = LsmStore(config=StoreConfig(wal=False))
        store.put(key(1), 100)
        assert store.stats.wal_bytes == 0
        assert store.get(key(1)).size == 100

    def test_wal_off_loses_memtable_on_crash(self):
        from repro.faults import FaultPlan
        from repro.faults.inject import FaultInjector

        plan = FaultPlan.parse("crash:at=3")
        store = LsmStore(config=StoreConfig(wal=False),
                         faults=FaultInjector(plan, seed=0))
        for i in range(5):
            store.put(key(i), 50)
        # Recovery is on, but with wal=False there is nothing to replay.
        assert store.stats.crashes == 1
        assert store.stats.wal_replays == 0
        assert store.get(key(0)) is None

    def test_wal_on_replays_after_crash(self):
        from repro.faults import FaultPlan
        from repro.faults.inject import FaultInjector

        plan = FaultPlan.parse("crash:at=3")
        store = LsmStore(faults=FaultInjector(plan, seed=0))
        for i in range(5):
            store.put(key(i), 50)
        assert store.stats.crashes == 1
        assert store.stats.wal_replays == 1
        assert store.get(key(0)).size == 50

    def test_bloom_off_reads_every_run(self):
        store = LsmStore(config=StoreConfig(bloom=False))
        for i in range(50):
            store.put(key(i), 50)
        store.flush()
        for i in range(500, 550):
            assert store.get(key(i)) is None
        assert store.stats.bloom_probes == 0
        assert store.stats.bloom_skips == 0
        assert store.stats.sstable_reads >= 50

    def test_compaction_off_accumulates_runs(self):
        store = LsmStore(config=StoreConfig(compaction=False,
                                            compaction_trigger=2))
        for i in range(4):
            store.put(key(i), 50)
            store.flush()
        assert store.num_sstables == 4
        assert store.stats.compactions == 0
        # Reads still merge correctly across all runs.
        assert store.get(key(0)).size == 50
