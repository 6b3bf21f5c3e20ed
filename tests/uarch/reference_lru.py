"""The per-access ``OrderedDict`` LRU loops: the oracle for ``SetAssocLRU``.

These are the cache and TLB models as they stood before the array-state
kernel replaced them in ``src/``: one dict operation per simulated line
or page, obviously right and slow.  Tests compare the production classes
against them element for element -- hit vector, statistics, and the LRU
*order* of every set.
"""

from collections import OrderedDict

import numpy as np


def _runs(size: int, weights, ends) -> list:
    """``(weight, start, end)`` of every run of a batch: one scalar
    weight is one run, else ``weights[i]`` covers ``ends[i-1]:ends[i]``."""
    if ends is None:
        return [(float(weights), 0, size)]
    ends = [int(end) for end in ends]
    assert len(weights) == len(ends) and (ends[-1] if ends else 0) == size
    return list(zip(weights, [0] + ends[:-1], ends))


class _Counted:
    """Weighted access / miss counters, accumulated as the models did:
    one multiplication per run and counter."""

    def __init__(self):
        self.accesses = 0.0
        self.misses = 0.0

    def _count(self, hits: np.ndarray, weight: float) -> None:
        self.accesses += float(weight) * hits.size
        self.misses += float(weight) * int((~hits).sum())


class ReferenceCache(_Counted):
    """Set-associative true-LRU cache, one ``OrderedDict`` per set."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self._sets = [OrderedDict() for _ in range(config.num_sets)]

    def access(self, line_addr: int, weight: float = 1.0) -> bool:
        cache_set = self._sets[line_addr % self.config.num_sets]
        self.accesses += weight
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            return True
        self.misses += weight
        self._install(cache_set, line_addr)
        return False

    def access_many(self, line_addrs, weights=1.0, ends=None) -> np.ndarray:
        lines = np.asarray(line_addrs).tolist()
        hits = np.zeros(len(lines), dtype=bool)
        num_sets = self.config.num_sets
        for weight, start, end in _runs(len(lines), weights, ends):
            for i in range(start, end):
                line = lines[i]
                cache_set = self._sets[line % num_sets]
                if line in cache_set:
                    cache_set.move_to_end(line)
                    hits[i] = True
                else:
                    self._install(cache_set, line)
            self._count(hits[start:end], weight)
        return hits

    def prime(self, line_addr: int) -> None:
        """Install without statistics; a resident line keeps its place."""
        self._install(self._sets[line_addr % self.config.num_sets], line_addr)

    def prime_many(self, line_addrs) -> None:
        for line in np.asarray(line_addrs).tolist():
            self.prime(line)

    def _install(self, cache_set, line: int) -> None:
        cache_set[line] = True
        if len(cache_set) > self.config.ways:
            cache_set.popitem(last=False)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.config.num_sets]

    def lru_order(self, set_index: int) -> list:
        """Resident lines of one set, least recently used first."""
        return list(self._sets[set_index])

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


class ReferenceTlb(_Counted):
    """Fully-associative LRU TLB over one ``OrderedDict``."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self._page_bits = config.page_size.bit_length() - 1
        self._entries = OrderedDict()

    def access(self, addr: int, weight: float = 1.0) -> bool:
        page = addr >> self._page_bits
        self.accesses += weight
        if page in self._entries:
            self._entries.move_to_end(page)
            return True
        self.misses += weight
        self._install(page)
        return False

    def access_many(self, addrs, weights=1.0, ends=None) -> np.ndarray:
        addrs = np.asarray(addrs).tolist()
        hits = np.zeros(len(addrs), dtype=bool)
        for weight, start, end in _runs(len(addrs), weights, ends):
            for i in range(start, end):
                page = addrs[i] >> self._page_bits
                if page in self._entries:
                    self._entries.move_to_end(page)
                    hits[i] = True
                else:
                    self._install(page)
            self._count(hits[start:end], weight)
        return hits

    def prime(self, addr: int) -> None:
        self._install(addr >> self._page_bits)

    def prime_many(self, addrs) -> None:
        for addr in np.asarray(addrs).tolist():
            self.prime(addr)

    def _install(self, page: int) -> None:
        self._entries[page] = True
        if len(self._entries) > self.config.entries:
            self._entries.popitem(last=False)

    def lru_order(self) -> list:
        """Resident pages, least recently used first."""
        return list(self._entries)
