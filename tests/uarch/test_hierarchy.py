"""Unit tests for machine configs, the memory system, and the CPI model."""

import numpy as np
import pytest

from repro.uarch import cpu
from repro.uarch.events import PerfEvents
from repro.uarch.hierarchy import (
    MACHINES,
    MemorySystem,
    XEON_E5310,
    XEON_E5645,
)


class TestMachineConfigs:
    def test_e5645_matches_table5(self):
        summary = XEON_E5645.summary()
        assert summary["L1 DCache"] == "32KB"
        assert summary["L1 ICache"] == "32KB"
        assert summary["L2 Cache"] == "256KB"
        assert summary["L3 Cache"] == "12MB"
        assert "2.40G" in summary["Cores"]
        assert XEON_E5645.cores == 6

    def test_e5310_matches_table7(self):
        summary = XEON_E5310.summary()
        assert summary["L2 Cache"] == "4MB"
        assert summary["L3 Cache"] == "None"
        assert "1.60G" in summary["Cores"]
        assert XEON_E5310.cores == 4

    def test_machines_registry(self):
        assert "Intel Xeon E5645" in MACHINES
        assert "Intel Xeon E5310" in MACHINES

    def test_contracted_scales_capacities(self):
        small = XEON_E5645.contracted(8)
        assert small.l3.size_bytes == XEON_E5645.l3.size_bytes // 8
        assert small.l1i.ways == XEON_E5645.l1i.ways
        assert small.dtlb.entries == XEON_E5645.dtlb.entries // 8
        assert small.freq_hz == XEON_E5645.freq_hz

    def test_contracted_identity(self):
        assert XEON_E5645.contracted(1) is XEON_E5645

    def test_contracted_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            XEON_E5645.contracted(-1)

    def test_total_cores(self):
        assert XEON_E5645.total_cores == 12


class TestMemorySystem:
    def _system(self, machine=XEON_E5645):
        events = PerfEvents()
        return MemorySystem(machine.contracted(8), events), events

    def test_data_access_populates_all_levels(self):
        system, events = self._system()
        addrs = np.arange(0, 1 << 22, 64, dtype=np.int64)
        system.data_access(addrs, 1.0)
        system.harvest()
        assert events.l1d_accesses == len(addrs)
        assert events.l1d_misses > 0
        assert events.l2_accesses == events.l1d_misses
        assert events.l3_accesses == events.l2_misses
        assert events.dtlb_accesses == len(addrs)

    def test_inst_fetch_goes_to_icache(self):
        system, events = self._system()
        addrs = np.arange(0, 1 << 18, 64, dtype=np.int64)
        system.inst_fetch(addrs, 2.0)
        system.harvest()
        assert events.l1i_accesses == 2.0 * len(addrs)
        assert events.itlb_accesses == 2.0 * len(addrs)
        assert events.l1d_accesses == 0

    def test_mem_bytes_accumulates_on_llc_miss(self):
        system, events = self._system()
        addrs = np.arange(0, 1 << 24, 64, dtype=np.int64)  # >> contracted L3
        (mem_bytes,) = system.data_access(addrs, 1.0)
        assert mem_bytes > 0
        # Every DRAM fill transfers one real 64-byte line per weighted miss.
        assert mem_bytes % 64 == 0

    def test_no_l3_machine_spills_l2_misses_to_memory(self):
        system, events = self._system(XEON_E5310)
        addrs = np.arange(0, 1 << 22, 64, dtype=np.int64)
        (mem_bytes,) = system.data_access(addrs, 1.0)
        system.harvest()
        assert system.l3 is None
        assert events.l3_accesses == 0
        assert mem_bytes > 0

    def test_empty_batch_is_noop(self):
        system, events = self._system()
        assert system.data_access(np.empty(0, dtype=np.int64), 1.0) == [0.0]
        system.harvest()
        assert events.l1d_accesses == 0 and events.dtlb_accesses == 0


class TestCpiModel:
    def test_more_misses_more_cycles(self):
        lean = PerfEvents(int_ops=1e6)
        heavy = PerfEvents(int_ops=1e6, l3_misses=1e4, l2_misses=1e4, l1d_misses=1e4)
        lean_report = cpu.finalize(lean, XEON_E5645)
        heavy_report = cpu.finalize(heavy, XEON_E5645)
        assert heavy_report.cycles > lean_report.cycles
        assert heavy_report.mips < lean_report.mips

    def test_ideal_cpi_bound(self):
        events = PerfEvents(int_ops=1e6)
        report = cpu.finalize(events, XEON_E5645)
        assert report.cycles == pytest.approx(1e6 * XEON_E5645.base_cpi)

    def test_e5310_l2_miss_goes_to_memory_latency(self):
        events = PerfEvents(int_ops=1e6, l2_misses=1e5)
        on_e5310 = cpu.stall_cycles(events, XEON_E5310)
        on_e5645 = cpu.stall_cycles(events, XEON_E5645)
        # Without an L3, an L2 miss pays full memory latency.
        assert on_e5310 > on_e5645
