"""TLB model: a small fully-associative LRU translation cache.

Drives the ITLB/DTLB MPKI results of the paper's Figure 6-2.  Pages are
fixed-size (4 KB by default, matching the testbed's Linux configuration);
an access translates a byte address to a page number and looks it up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.lru import SetAssocLRU, WeightedCounters, as_runs


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB: entry count and page size."""

    name: str
    entries: int
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"{self.name}: TLB must have at least one entry")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"{self.name}: page size must be a power of two")

    def scaled(self, factor: int) -> "TlbConfig":
        """A proportionally smaller TLB for scaled-down experiments."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return TlbConfig(
            name=self.name,
            entries=max(4, self.entries // factor),
            page_size=self.page_size,
        )


class Tlb(WeightedCounters):
    """Fully-associative LRU TLB: a one-set
    :class:`~repro.uarch.lru.SetAssocLRU` keyed by page number."""

    def __init__(self, config: TlbConfig):
        super().__init__()
        self.config = config
        self._page_bits = config.page_size.bit_length() - 1
        self._lru = SetAssocLRU(1, config.entries)

    def access(self, addr: int, weight: float = 1.0) -> bool:
        """Translate one byte address; return True on TLB hit."""
        return bool(self.access_many([addr], weight)[0])

    def access_many(self, addrs, weights=1.0, ends=None) -> np.ndarray:
        """Translate a batch of byte addresses in order; return a boolean
        hit array.

        An access to the page of the access just before it hits and
        leaves that page most recently used, so such repeats (nine in ten
        data accesses: patterns step a line at a time through 4 KB pages)
        are answered here and only the rest reach the LRU -- across run
        boundaries too: the page a run ends on is the most recently used
        one when the next run starts.  ``weights`` is one scalar for
        every access or, with ``ends``, one weight per run
        (:func:`~repro.uarch.lru.as_runs`).
        """
        pages = np.asarray(addrs, dtype=np.int64) >> self._page_bits
        weights, ends = as_runs(pages.size, weights, ends)
        moved = np.ones(pages.size, dtype=bool)
        np.not_equal(pages[1:], pages[:-1], out=moved[1:])
        moved = np.flatnonzero(moved)
        hits = np.ones(pages.size, dtype=bool)
        hits[moved] = self._lru.touch(pages[moved])
        self._count(hits, weights, ends)
        return hits

    def prime_many(self, addrs) -> None:
        """Install a batch of translations without counting statistics;
        a page already resident keeps its place in the LRU order."""
        self._lru.install(
            np.asarray(addrs, dtype=np.int64) >> self._page_bits)

    def prime(self, addr: int) -> None:
        """Install one translation without counting statistics."""
        self.prime_many([addr])

    def lru_order(self) -> list:
        """Resident pages, least recently used first."""
        return self._lru.order(0)

    def flush(self) -> None:
        self._lru.clear()
        self.reset_stats()
