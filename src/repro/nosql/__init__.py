"""HBase-like NoSQL store: LSM tree with WAL, Bloom filters, compaction."""

from repro.nosql.bloom import BloomFilter
from repro.nosql.btree import BTreeStore
from repro.nosql.sstable import BLOCK_SIZE, SSTable, Value
from repro.nosql.store import LsmStore, StoreConfig, StoreStats

__all__ = [
    "BLOCK_SIZE",
    "BTreeStore",
    "BloomFilter",
    "LsmStore",
    "SSTable",
    "StoreConfig",
    "StoreStats",
    "Value",
]
