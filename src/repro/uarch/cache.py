"""Set-associative cache model with LRU replacement.

This is the building block of the simulated memory hierarchy that stands
in for the Xeon E5645 / E5310 hardware counters in the paper's
characterization study.  The model is deliberately simple -- physical
indexing, true LRU, no prefetching -- because the reproduction targets the
paper's *qualitative* cache-behavior findings (relative MPKI orderings and
working-set effects), not cycle accuracy.

Accesses carry a ``weight``: bulk access patterns are expanded with stride
sampling (:mod:`repro.uarch.sampling`), so one simulated access may stand
for many real ones.  Weights affect the statistics only; the replacement
state is updated once per simulated access.  A batch may concatenate
several patterns' *runs*, each with its own weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.lru import SetAssocLRU, WeightedCounters, as_runs


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size_bytes`` must be a multiple of ``ways * line_size``; the
    quotient is the number of sets.  It need not be a power of two (the
    E5645's 12 MB L3 has 12 288 sets, 1 536 contracted): a line maps to
    set ``line_number % num_sets``.
    """

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_size <= 0:
            raise ValueError(f"{self.name}: sizes and ways must be positive")
        if not _is_power_of_two(self.line_size):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.ways * self.line_size) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"ways*line_size = {self.ways * self.line_size}"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    def scaled(self, factor: int) -> "CacheConfig":
        """A proportionally smaller cache for scaled-down experiments.

        Capacity shrinks by ``factor`` while associativity and line size
        stay fixed, so working-set-versus-capacity crossovers occur at the
        same relative data sizes as on the real machine.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        min_size = self.ways * self.line_size
        new_size = max(min_size, self.size_bytes // factor)
        sets = max(1, new_size // min_size)
        return CacheConfig(
            name=self.name,
            size_bytes=sets * min_size,
            ways=self.ways,
            line_size=self.line_size,
        )


class Cache(WeightedCounters):
    """One level of set-associative cache with true-LRU replacement.

    The replacement state is a :class:`~repro.uarch.lru.SetAssocLRU`
    keyed by line number; the statistics are the weighted counters.
    """

    def __init__(self, config: CacheConfig):
        super().__init__()
        self.config = config
        self._lru = SetAssocLRU(config.num_sets, config.ways)

    def access(self, line_addr: int, weight: float = 1.0) -> bool:
        """Touch one cache line; return True on hit, False on miss.

        ``line_addr`` is the address already shifted down by the line
        size (a line number, not a byte address).
        """
        return bool(self.access_many([line_addr], weight)[0])

    def access_many(self, line_addrs, weights=1.0, ends=None) -> np.ndarray:
        """Touch a batch of cache lines in order; return a boolean hit
        array.

        ``weights`` is one scalar applied to every access, or -- with
        ``ends`` -- one weight per run of the batch
        (:func:`~repro.uarch.lru.as_runs`); it moves the statistics only.
        """
        lines = np.asarray(line_addrs, dtype=np.int64)
        weights, ends = as_runs(lines.size, weights, ends)
        hits = self._lru.touch(lines)
        self._count(hits, weights, ends)
        return hits

    def prime_many(self, line_addrs) -> None:
        """Install a batch of lines without counting statistics (warm-up
        priming, mirroring the paper's post-ramp-up measurement window).
        A line already resident keeps its place in the LRU order."""
        self._lru.install(np.asarray(line_addrs, dtype=np.int64))

    def prime(self, line_addr: int) -> None:
        """Install one line without counting statistics."""
        self.prime_many([line_addr])

    def contains(self, line_addr: int) -> bool:
        """True if the line is currently resident (no state change)."""
        return self._lru.contains(line_addr)

    def lru_order(self, set_index: int) -> list:
        """Resident lines of one set, least recently used first."""
        return self._lru.order(set_index)

    def state(self) -> tuple:
        """``(accesses, misses, tags)``: everything the level's later
        accesses and statistics depend on (the tags by reference)."""
        return self.accesses, self.misses, self._lru.tags

    def restore(self, state: tuple) -> None:
        """Take over a :meth:`state` of a cache of the same geometry."""
        self.accesses, self.misses, tags = state
        self._lru.tags[...] = tags

    def flush(self) -> None:
        """Invalidate all lines and clear statistics."""
        self._lru.clear()
        self.reset_stats()

    @property
    def resident_lines(self) -> int:
        return self._lru.resident()
