"""B-tree record store: the MongoDB/MySQL-style Cloud OLTP backend.

Table 4 lists four datastore stacks for the Cloud OLTP workloads --
HBase, Cassandra, MongoDB, MySQL.  The first two are log-structured
(:class:`~repro.nosql.store.LsmStore`); the latter two are B-tree
engines with update-in-place pages and a redo log.  This module is that
second family: a real order-``B`` B+ tree over bytes keys, with
page-granular IO accounting (reads walk interior pages that are hot in
the buffer pool; leaf pages follow the key-popularity skew).

The access-pattern contrast with the LSM store is the architectural
point: writes pay random page updates instead of sequential log appends,
reads pay a predictable root-to-leaf walk instead of a multi-run probe.
"""

from __future__ import annotations

import bisect

from repro.nosql.sstable import Value
from repro.nosql.store import StoreConfig, StoreStats
from repro.sitehash import stamp
from repro.uarch.codemodel import NOSQL_STACK
from repro.uarch.perfctx import context_or_null

MB = 1024 * 1024

#: Maximum keys per node before a split.
ORDER = 64

#: Modeled on-disk page size.
PAGE_SIZE = 8192


class _Node:
    """One B+ tree node; leaves link to their right sibling."""

    __slots__ = ("keys", "values", "children", "next_leaf")

    def __init__(self, leaf: bool):
        self.keys: list = []
        self.values: list = [] if leaf else None
        self.children: list = None if leaf else []
        self.next_leaf = None

    @property
    def is_leaf(self) -> bool:
        return self.values is not None


class BTreeStore:
    """A B+ tree key-value store with profiling hooks.

    Mirrors the :class:`~repro.nosql.store.LsmStore` interface (put /
    get / delete / scan) so the Cloud OLTP workloads can swap backends
    per their Table 4 stack choice.
    """

    def __init__(self, name: str = "btree", ctx=None, config: StoreConfig = None):
        self.name = name
        self.ctx = context_or_null(ctx)
        self.config = config or StoreConfig()
        self.stats = StoreStats()
        self._root = _Node(leaf=True)
        self._height = 1
        self._num_records = 0
        self._data_bytes = 0

    # -- public API -----------------------------------------------------------

    def put(self, key: bytes, value_size: int) -> Value:
        if value_size < 0:
            raise ValueError("value_size must be non-negative")
        value = Value(size=value_size, stamp=stamp(key, value_size))
        ctx = self.ctx
        with ctx.code(NOSQL_STACK):
            self._charge_walk(ctx, is_write=True)
            # Redo log append, then the in-place leaf update.
            ctx.seq_write(self._region("redo"), len(key) + value_size)
            self.stats.wal_bytes += len(key) + value_size
            replaced = self._insert(key, value)
            if not replaced:
                self._num_records += 1
                self._data_bytes += len(key) + value_size
        self.stats.puts += 1
        return value

    def get(self, key: bytes):
        ctx = self.ctx
        self.stats.gets += 1
        with ctx.code(NOSQL_STACK):
            self._charge_walk(ctx, is_write=False)
            node = self._descend(key)
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                value = node.values[index]
                self.stats.block_read_bytes += PAGE_SIZE
                return None if value.is_tombstone else value
            self.stats.get_misses += 1
            return None

    def delete(self, key: bytes) -> None:
        """Tombstone the key (lazy deletion, like production engines)."""
        node = self._descend(key)
        index = bisect.bisect_left(node.keys, key)
        with self.ctx.code(NOSQL_STACK):
            self._charge_walk(self.ctx, is_write=True)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = Value.tombstone()
        self.stats.deletes += 1

    def scan(self, start_key: bytes, limit: int) -> list:
        """Ordered scan via the leaf chain: the B-tree's strong suit."""
        if limit <= 0:
            return []
        ctx = self.ctx
        self.stats.scans += 1
        with ctx.code(NOSQL_STACK):
            self._charge_walk(ctx, is_write=False)
            node = self._descend(start_key)
            index = bisect.bisect_left(node.keys, start_key)
            rows = []
            pages = 1
            while node is not None and len(rows) < limit:
                while index < len(node.keys) and len(rows) < limit:
                    value = node.values[index]
                    if not value.is_tombstone:
                        rows.append((node.keys[index], value))
                    index += 1
                node = node.next_leaf
                index = 0
                pages += 1
            # Leaf-chain pages are sequential on disk after a fresh load.
            ctx.seq_read(self._region("pages"), pages * PAGE_SIZE)
            ctx.int_ops(900 * len(rows))
            ctx.branch_ops(280 * len(rows))
            ctx.fp_ops(8 * len(rows))
            self.stats.block_read_bytes += pages * PAGE_SIZE
            return rows

    # -- structure ---------------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def total_bytes(self) -> int:
        return self._data_bytes

    # -- internals ---------------------------------------------------------------

    def _region(self, part: str) -> str:
        name = f"btree:{self.name}:{part}"
        sizes = {
            "pages": max(PAGE_SIZE,
                         self._data_bytes * self.config.region_scale),
            "interior": max(PAGE_SIZE, self._data_bytes // 16 + PAGE_SIZE),
            "redo": 64 * MB,
        }
        self.ctx.touch(name, sizes[part])
        return name

    def _charge_walk(self, ctx, is_write: bool) -> None:
        """Root-to-leaf walk: interior pages buffer-pool hot, leaf skewed."""
        config = self.config
        ctx.int_ops(config.per_op_int)
        ctx.branch_ops(config.per_op_branch)
        ctx.fp_ops(config.per_op_fp)
        ctx.touch("btree:heap", 8 << 30)
        ctx.skewed_read("btree:heap", config.per_op_loads,
                        hot_fraction=4e-6, hot_prob=0.995)
        # Interior nodes: small, pinned in the buffer pool.
        interior_probes = max(1, self._height - 1) * (ORDER // 8)
        ctx.skewed_read(self._region("interior"), interior_probes,
                        hot_fraction=0.5, hot_prob=0.98)
        # One leaf page per operation, following key popularity.
        ctx.skewed_read(self._region("pages"), PAGE_SIZE / 64, elem=64,
                        hot_fraction=self._hot_fraction(),
                        hot_prob=config.block_cache_hit)
        if is_write:
            ctx.skewed_write(self._region("pages"), PAGE_SIZE / 256, elem=64,
                             hot_fraction=self._hot_fraction(),
                             hot_prob=config.block_cache_hit)

    def _hot_fraction(self) -> float:
        declared = max(PAGE_SIZE, self._data_bytes * self.config.region_scale)
        return max(1e-7, min(1.0, (256 * MB) / declared))

    def _descend(self, key: bytes) -> _Node:
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def _insert(self, key: bytes, value: Value) -> bool:
        """Insert; returns True when an existing key was overwritten."""
        path = []
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            path.append((node, index))
            node = node.children[index]

        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            node.values[index] = value
            return True
        node.keys.insert(index, key)
        node.values.insert(index, value)

        # Split upward while nodes overflow.
        while len(node.keys) > ORDER:
            middle = len(node.keys) // 2
            right = _Node(leaf=node.is_leaf)
            if node.is_leaf:
                right.keys = node.keys[middle:]
                right.values = node.values[middle:]
                node.keys = node.keys[:middle]
                node.values = node.values[:middle]
                right.next_leaf = node.next_leaf
                node.next_leaf = right
                separator = right.keys[0]
            else:
                separator = node.keys[middle]
                right.keys = node.keys[middle + 1:]
                right.children = node.children[middle + 1:]
                node.keys = node.keys[:middle]
                node.children = node.children[:middle + 1]

            if path:
                parent, child_index = path.pop()
                parent.keys.insert(child_index, separator)
                parent.children.insert(child_index + 1, right)
                node = parent
            else:
                new_root = _Node(leaf=False)
                new_root.keys = [separator]
                new_root.children = [node, right]
                self._root = new_root
                self._height += 1
                break
        return False
