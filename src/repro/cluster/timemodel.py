"""Analytic job-time model: operation counts -> modeled runtime.

The paper's Figure 3-2 normalizes *user-perceivable performance* (DPS for
analytics, OPS for Cloud OLTP, RPS for services) against the baseline
input as data volume grows, and explains Sort's degradation by memory
pressure, extra shuffle I/O, and network congestion.  This module models
exactly those mechanisms:

* CPU time from the CPI model's cycle count, spread over the cluster's
  cores with an efficiency factor;
* disk time from sequential read/write byte volumes over the aggregate
  disk bandwidth;
* shuffle time from all-to-all traffic over the aggregate NIC bandwidth,
  inflated by a congestion factor that grows with over-subscription;
* a spill penalty when a job's working bytes exceed cluster memory,
  charging extra disk passes for the excess (Hadoop-style spill to disk).

Phases overlap imperfectly: the phase time is the max of its resource
times plus a fraction of the non-dominant times.

The efficiency/overlap/spill/congestion knobs are :class:`TimeModel`
fields (module-level constants remain as their defaults), so sweeps and
tests can vary them per model instance without monkeypatching.  The
flat-cluster analytics here are the ``mode="analytic"`` leg of the
execution plane; ``mode="event"`` delegates to the event-driven per-node
simulator (:mod:`repro.cluster.sim`), where waves, stragglers, disk
contention, and shuffle congestion *emerge* from per-node FIFO resources
instead of being fudge constants.  The two must agree within tolerance
on homogeneous clusters (tested in ``tests/cluster/test_sim.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.node import ClusterSpec, PAPER_CLUSTER

#: Fraction of non-dominant resource time that is NOT hidden by overlap.
OVERLAP_RESIDUE = 0.25

#: Cores never run perfectly parallel on a framework (stragglers, skew).
CPU_EFFICIENCY = 0.75

#: Extra disk passes charged per byte of spilled working set.
SPILL_PASSES = 2.0

#: Shuffle congestion: effective network bandwidth shrinks as all-to-all
#: traffic exceeds what the fabric moves in one "round".
CONGESTION_COEFF = 0.35


@dataclass
class PhaseCost:
    """Resource demands of one job phase.

    ``fixed_seconds`` is wall-clock overhead that does not scale with
    data (job scheduling, JVM spin-up, stragglers at the tail of a task
    wave) -- the term that makes small-input MIPS low in Figure 3-1.
    """

    name: str = "phase"
    cpu_seconds: float = 0.0        # single-core seconds of computation
    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    shuffle_bytes: float = 0.0      # all-to-all network volume
    working_bytes: float = 0.0      # peak in-memory working set
    fixed_seconds: float = 0.0      # scale-independent overhead

    def scaled(self, factor: float) -> "PhaseCost":
        """Scale the data-dependent terms (fixed overhead stays fixed)."""
        return PhaseCost(
            name=self.name,
            cpu_seconds=self.cpu_seconds * factor,
            disk_read_bytes=self.disk_read_bytes * factor,
            disk_write_bytes=self.disk_write_bytes * factor,
            shuffle_bytes=self.shuffle_bytes * factor,
            working_bytes=self.working_bytes * factor,
            fixed_seconds=self.fixed_seconds,
        )


@dataclass
class JobCost:
    """A job is a sequence of phases executed back to back."""

    phases: list = field(default_factory=list)

    def add(self, phase: PhaseCost) -> "JobCost":
        self.phases.append(phase)
        return self

    @property
    def total_shuffle_bytes(self) -> float:
        return sum(p.shuffle_bytes for p in self.phases)


@dataclass(frozen=True)
class PhaseTime:
    """Modeled time of one phase, with its resource decomposition."""

    name: str
    cpu: float
    disk: float
    network: float
    spill: float
    fixed: float = 0.0
    #: Fraction of the non-dominant resource times left unhidden (set by
    #: the owning :class:`TimeModel`).
    overlap_residue: float = OVERLAP_RESIDUE

    @property
    def total(self) -> float:
        times = sorted((self.cpu, self.disk, self.network + self.spill))
        # Dominant resource plus a residue of the others (imperfect
        # overlap); fixed overhead cannot be hidden.
        return times[2] + self.overlap_residue * (times[0] + times[1]) + self.fixed


class TimeModel:
    """Converts :class:`JobCost` into modeled wall-clock seconds.

    ``data_scale`` maps the reproduction's shrunken byte/instruction
    volumes back to paper scale before the model's nonlinear terms
    (memory-capacity spill, shuffle congestion) apply, so those effects
    trigger at the same *relative* data sizes as on the real testbed.

    ``mode`` selects the execution plane: ``"analytic"`` (default) is
    the flat aggregate-bandwidth model below; ``"event"`` replays the
    job on the event-driven per-node simulator
    (:class:`repro.cluster.sim.ClusterSim`), which is also the only mode
    that understands heterogeneous clusters and per-node fault
    modifiers.  The efficiency/overlap/spill/congestion knobs are
    per-instance fields defaulting to the module-level constants.
    """

    def __init__(self, cluster: ClusterSpec = PAPER_CLUSTER,
                 data_scale: float = 1.0, mode: str = "analytic",
                 seed: int = 0,
                 cpu_efficiency: float = CPU_EFFICIENCY,
                 overlap_residue: float = OVERLAP_RESIDUE,
                 spill_passes: float = SPILL_PASSES,
                 congestion_coeff: float = CONGESTION_COEFF):
        if data_scale <= 0:
            raise ValueError("data_scale must be positive")
        if mode not in ("analytic", "event"):
            raise ValueError(f"mode must be 'analytic' or 'event', got {mode!r}")
        if not 0.0 < cpu_efficiency <= 1.0:
            raise ValueError("cpu_efficiency must be in (0, 1]")
        if overlap_residue < 0.0 or spill_passes < 0.0 or congestion_coeff < 0.0:
            raise ValueError("model coefficients must be non-negative")
        self.cluster = cluster
        self.data_scale = data_scale
        self.mode = mode
        self.seed = seed
        self.cpu_efficiency = cpu_efficiency
        self.overlap_residue = overlap_residue
        self.spill_passes = spill_passes
        self.congestion_coeff = congestion_coeff

    def phase_time(self, phase: PhaseCost) -> PhaseTime:
        cluster = self.cluster
        phase = phase.scaled(self.data_scale)
        cpu = phase.cpu_seconds / (cluster.total_cores * self.cpu_efficiency)

        spill_bytes = self._spill_bytes(phase)
        disk_bytes = phase.disk_read_bytes + phase.disk_write_bytes
        disk = disk_bytes / cluster.aggregate_disk_bandwidth
        spill = spill_bytes * self.spill_passes / cluster.aggregate_disk_bandwidth

        network = self._shuffle_time(phase.shuffle_bytes)
        return PhaseTime(name=phase.name, cpu=cpu, disk=disk, network=network,
                         spill=spill, fixed=phase.fixed_seconds,
                         overlap_residue=self.overlap_residue)

    def job_time(self, job: JobCost) -> float:
        """Total modeled seconds (at paper scale) for a multi-phase job."""
        if self.mode == "event":
            return self._simulator().run(job).seconds
        return sum(self.phase_time(p).total for p in job.phases)

    def simulate(self, job: JobCost):
        """Replay ``job`` on the event-driven plane and return the full
        :class:`~repro.cluster.sim.SimResult` (phase decomposition plus
        per-node utilization) regardless of :attr:`mode`."""
        return self._simulator().run(job)

    def dps(self, input_bytes: float, job: JobCost) -> float:
        """Data processed per second (the analytics metric, Section 6.1.2).

        ``input_bytes`` are the reproduction's bytes; they are mapped to
        paper scale with the same ``data_scale`` as the time terms, so
        DPS comes out in paper-scale bytes/second.
        """
        seconds = self.job_time(job)
        if seconds <= 0:
            return 0.0
        return input_bytes * self.data_scale / seconds

    # -- internals -----------------------------------------------------------

    def _simulator(self):
        from repro.cluster.sim import ClusterSim

        return ClusterSim(self.cluster, data_scale=self.data_scale,
                          seed=self.seed, spill_passes=self.spill_passes)

    def _spill_bytes(self, phase: PhaseCost) -> float:
        """Bytes of working set that do not fit in cluster memory.

        Frameworks only get a fraction of physical memory for shuffle
        buffers and caches; the rest goes to the OS, daemons, and heap
        overhead.
        """
        usable = 0.6 * self.cluster.total_memory_bytes
        return max(0.0, phase.working_bytes - usable)

    def _shuffle_time(self, shuffle_bytes: float) -> float:
        if shuffle_bytes <= 0:
            return 0.0
        bandwidth = self.cluster.aggregate_network_bandwidth
        base = shuffle_bytes / bandwidth
        # Congestion: all-to-all traffic collides in the fabric; the more
        # rounds of full-bisection traffic, the worse the interference.
        rounds = shuffle_bytes / (bandwidth * 10.0)  # ~10 s of traffic per round
        congestion = 1.0 + self.congestion_coeff * math.log2(1.0 + rounds)
        return base * congestion
