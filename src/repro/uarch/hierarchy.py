"""Machine configurations and the simulated memory hierarchy.

Provides the two testbed processors of the paper -- the Intel Xeon E5645
(three cache levels, Table 5) and the Xeon E5310 (two cache levels,
Table 7) -- and the :class:`MemorySystem` that plays the role of the
hardware: it routes simulated data accesses and instruction fetches
through TLBs and the cache hierarchy and accumulates the perf events the
characterization study reports.

Machines are *contracted* before simulation (see
:mod:`repro.uarch.sampling`): every capacity (cache bytes, TLB entries) is
divided by the global contraction factor while line size, page size,
associativity, latencies, and clock rate stay fixed.  Miss *counts* then
come out in real units because each simulated access carries the
contraction as its weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.uarch.cache import Cache, CacheConfig
from repro.uarch.events import PerfEvents
from repro.uarch.lru import as_runs, miss_ends
from repro.uarch.tlb import Tlb, TlbConfig

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class MachineConfig:
    """A processor model: core geometry, cache hierarchy, and latencies.

    Latencies are cycles added per miss at each boundary; they feed the
    CPI model in :mod:`repro.uarch.cpu`.
    """

    name: str
    freq_hz: float
    cores: int
    sockets: int
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    l3: Optional[CacheConfig]
    itlb: TlbConfig
    dtlb: TlbConfig
    base_cpi: float = 0.45
    l2_latency: int = 10
    l3_latency: int = 38
    mem_latency: int = 210
    tlb_walk_latency: int = 30

    @property
    def total_cores(self) -> int:
        return self.cores * self.sockets

    def contracted(self, factor: int) -> "MachineConfig":
        """Scale all capacities down by ``factor`` for simulation."""
        if factor <= 0:
            raise ValueError("contraction factor must be positive")
        if factor == 1:
            return self
        return replace(
            self,
            l1i=self.l1i.scaled(factor),
            l1d=self.l1d.scaled(factor),
            l2=self.l2.scaled(factor),
            l3=self.l3.scaled(factor) if self.l3 is not None else None,
            itlb=self.itlb.scaled(factor),
            dtlb=self.dtlb.scaled(factor),
        )

    def summary(self) -> dict:
        """Human-readable configuration rows (paper Tables 5 and 7)."""

        def fmt(config: Optional[CacheConfig]) -> str:
            if config is None:
                return "None"
            size = config.size_bytes
            if size >= MB:
                return f"{size // MB}MB"
            return f"{size // KB}KB"

        return {
            "CPU Type": self.name,
            "Cores": f"{self.cores} cores@{self.freq_hz / 1e9:.2f}G",
            "L1 DCache": fmt(self.l1d),
            "L1 ICache": fmt(self.l1i),
            "L2 Cache": fmt(self.l2),
            "L3 Cache": fmt(self.l3),
        }


#: Intel Xeon E5645 (paper Table 5): 6 cores @ 2.40 GHz, 32 KB L1I/L1D,
#: 256 KB private L2, 12 MB shared L3, three cache levels.
XEON_E5645 = MachineConfig(
    name="Intel Xeon E5645",
    freq_hz=2.40e9,
    cores=6,
    sockets=2,
    l1i=CacheConfig("L1I", 32 * KB, ways=4),
    l1d=CacheConfig("L1D", 32 * KB, ways=8),
    l2=CacheConfig("L2", 256 * KB, ways=8),
    l3=CacheConfig("L3", 12 * MB, ways=16),
    itlb=TlbConfig("ITLB", entries=128),
    # perf's DTLB miss events count completed page walks, i.e. misses
    # behind the 512-entry second-level TLB -- model that reach directly.
    dtlb=TlbConfig("DTLB", entries=512),
)

#: Intel Xeon E5310 (paper Table 7): 4 cores @ 1.60 GHz, two cache levels
#: only -- the L2 is the last-level cache (4 MB visible per core pair).
XEON_E5310 = MachineConfig(
    name="Intel Xeon E5310",
    freq_hz=1.60e9,
    cores=4,
    sockets=2,
    l1i=CacheConfig("L1I", 32 * KB, ways=4),
    l1d=CacheConfig("L1D", 32 * KB, ways=8),
    l2=CacheConfig("L2", 4 * MB, ways=16),
    l3=None,
    itlb=TlbConfig("ITLB", entries=128),
    dtlb=TlbConfig("DTLB", entries=256),
    base_cpi=0.55,
    l2_latency=14,
    mem_latency=240,
)

MACHINES = {m.name: m for m in (XEON_E5645, XEON_E5310)}


class MemorySystem:
    """The simulated cache/TLB hierarchy for one profiled run.

    Data accesses walk DTLB -> L1D -> L2 -> (L3) -> memory; instruction
    fetches walk ITLB -> L1I -> L2 -> (L3) -> memory.  Bytes fetched from
    memory (last-level misses times the real line size) are
    ``events.mem_bytes`` -- the operation-intensity denominator, which is
    why intensity differs between the E5310 and the E5645 in Figure 5.
    Both entry points return them per run and
    :class:`~repro.uarch.perfctx.PerfContext` adds them up.
    """

    REAL_LINE_SIZE = 64

    #: DRAM traffic per demand LLC miss: hardware prefetchers, dirty
    #: writebacks, and device DMA roughly triple the demand-fill bytes --
    #: the operation-intensity denominator counts all of it.
    MEM_TRAFFIC_AMPLIFICATION = 3.0

    #: Steady-state code residency: instruction lines that miss L1I are
    #: almost always L2/L3 resident (code working sets persist while data
    #: streams through).  Instruction fetches are heavily subsampled, so
    #: their lower-level reuse cannot be replayed through the stateful
    #: caches; these statistical miss rates stand in for it.
    CODE_L2_MISS_RATE = 0.08
    CODE_L3_MISS_RATE = 0.10

    def __init__(self, machine: MachineConfig, events: PerfEvents):
        self.machine = machine
        self.events = events
        self.l1i = Cache(machine.l1i)
        self.l1d = Cache(machine.l1d)
        self.l2 = Cache(machine.l2)
        self.l3 = Cache(machine.l3) if machine.l3 is not None else None
        self.itlb = Tlb(machine.itlb)
        self.dtlb = Tlb(machine.dtlb)
        self._line_bits = machine.l1d.line_size.bit_length() - 1
        self._code_l2_accesses = 0.0
        self._code_l2_misses = 0.0
        self._code_l3_accesses = 0.0
        self._code_l3_misses = 0.0

    def data_access(self, addresses, weights, ends=None) -> list:
        """Route a batch of simulated data accesses through the hierarchy.

        The batch is a concatenation of runs (``weights`` and ``ends`` as
        in :func:`~repro.uarch.lru.as_runs`; a scalar weight is one run).
        Levels are processed batch-at-a-time: the DTLB translates every
        address, L1D filters the batch, and only the L1 misses (in their
        original order, with the run ends of that subsequence) proceed
        to L2, then L3.  Because each level's state depends only on the
        sequence of accesses *it* sees, this is bit-identical to walking
        the levels one address at a time.

        Returns the memory bytes of every run, for the caller to add to
        ``events.mem_bytes``: data and code runs interleave in program
        order, and a float sum depends on its order.

        The two parts are :meth:`translate` (the DTLB) and
        :func:`cache_chain` over :attr:`data_caches`; an untraced
        :class:`~repro.uarch.perfctx.PerfContext` runs the second in
        :mod:`repro.uarch.sidecar`.
        """
        addresses, weights, ends = self.translate(addresses, weights, ends)
        return cache_chain(self.data_caches, addresses >> self._line_bits,
                           weights, ends)

    @property
    def data_caches(self) -> list:
        """L1D, L2 and the L3 if there is one: what data misses walk."""
        return [cache for cache in (self.l1d, self.l2, self.l3)
                if cache is not None]

    def translate(self, addresses, weights, ends=None) -> tuple:
        """The DTLB part of :meth:`data_access`: translate the batch and
        return it in run form, ``(addresses, weights, ends)``."""
        addresses = np.asarray(addresses, dtype=np.int64)
        weights, ends = as_runs(addresses.size, weights, ends)
        self.dtlb.access_many(addresses, weights, ends)
        return addresses, weights, ends

    def inst_fetch(self, addresses, weights, ends=None) -> list:
        """Route a batch of simulated instruction fetches, in the run
        form of :meth:`data_access`; returns every run's memory bytes.

        ITLB and L1I are simulated statefully; below L1I the statistical
        code-residency model applies (see CODE_L2_MISS_RATE).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        weights, ends = as_runs(addresses.size, weights, ends)
        self.itlb.access_many(addresses, weights, ends)
        l1_hits = self.l1i.access_many(
            addresses >> self._line_bits, weights, ends)
        l1_misses = np.diff(miss_ends(l1_hits, ends), prepend=0).tolist()
        return [self._code_fill(misses * weight) if misses else 0.0
                for misses, weight in zip(l1_misses, weights)]

    def _code_fill(self, l2_in: float) -> float:
        """Memory bytes of ``l2_in`` weighted L1I misses."""
        l2_miss = l2_in * self.CODE_L2_MISS_RATE
        self._code_l2_accesses += l2_in
        self._code_l2_misses += l2_miss
        if self.l3 is not None:
            l3_miss = l2_miss * self.CODE_L3_MISS_RATE
            self._code_l3_accesses += l2_miss
            self._code_l3_misses += l3_miss
        else:
            l3_miss = l2_miss
        return l3_miss * self.REAL_LINE_SIZE * self.MEM_TRAFFIC_AMPLIFICATION

    def harvest(self) -> None:
        """Copy cache/TLB statistics into the shared event record."""
        ev = self.events
        ev.l1i_accesses = self.l1i.accesses
        ev.l1i_misses = self.l1i.misses
        ev.l1d_accesses = self.l1d.accesses
        ev.l1d_misses = self.l1d.misses
        ev.l2_accesses = self.l2.accesses + self._code_l2_accesses
        ev.l2_misses = self.l2.misses + self._code_l2_misses
        if self.l3 is not None:
            ev.l3_accesses = self.l3.accesses + self._code_l3_accesses
            ev.l3_misses = self.l3.misses + self._code_l3_misses
        ev.itlb_accesses = self.itlb.accesses
        ev.itlb_misses = self.itlb.misses
        ev.dtlb_accesses = self.dtlb.accesses
        ev.dtlb_misses = self.dtlb.misses


def cache_chain(caches, lines, weights, ends) -> list:
    """Walk a batch of runs of line numbers down the data caches
    (L1D, L2 and L3 when there is one, in that order; ``weights`` and
    ``ends`` as in :func:`~repro.uarch.lru.as_runs`) and return the
    memory bytes of every run.

    Each level sees only the misses of the level above, in their
    original order, with the run ends of that subsequence.  The one
    implementation of the data-side chain: :meth:`MemorySystem.data_access`
    calls it in process and :mod:`repro.uarch.sidecar` beside it.
    """
    for cache in caches:
        if not lines.size:
            break
        hits = cache.access_many(lines, weights, ends)
        lines, ends = lines[~hits], miss_ends(hits, ends)
    llc_misses = np.diff(ends, prepend=0).tolist()
    return [(misses * weight * MemorySystem.REAL_LINE_SIZE
             * MemorySystem.MEM_TRAFFIC_AMPLIFICATION) if misses else 0.0
            for misses, weight in zip(llc_misses, weights)]
