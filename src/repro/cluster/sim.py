"""Event-driven per-node cluster simulator.

The analytic :class:`~repro.cluster.timemodel.TimeModel` flattens the
cluster into aggregate bandwidths and patches the error with fudge
constants (``CPU_EFFICIENCY``, ``CONGESTION_COEFF``,
``OVERLAP_RESIDUE``).  This module replays the same
:class:`~repro.cluster.timemodel.JobCost` against *individual nodes*:

* every node owns FIFO resources -- one availability time per core
  slot, one for the disk, and full-duplex NIC in/out times;
* each phase splits into task waves (``TASK_WAVES`` x alive core
  slots); tasks are placed locality-aware against the HDFS round-robin
  replica map, preferring the least-loaded alive replica holder;
* each task streams its input off the node's disk (FIFO -- disk
  contention and read/compute pipelining across waves are emergent),
  computes on the earliest-free core slot at the *node's own* clock
  (heterogeneous E5645+E5310 clusters diverge here), then writes back
  through a write-behind queue (page-cache flushing: output bytes pay
  full disk time but do not block the next task's input read);
* a seeded deterministic straggler tail (blake2b of seed x task site,
  the same scheme as :class:`~repro.faults.inject.FaultInjector`)
  stretches a few tasks per wave -- the analytic model's efficiency
  factor, emerging instead of assumed;
* per-node memory pressure spills (working bytes beyond the usable
  fraction of *that node's* memory pay extra disk passes);
* shuffle runs as pairwise node-to-node flows over the endpoints' NIC
  in/out queues -- congestion emerges from queueing instead of a global
  ``CONGESTION_COEFF``.

Faults route through per-node resource modifiers: ``node_kill`` removes
a node from placement entirely, ``slow_disk`` / ``slow_nic`` divide the
victim node's bandwidths by the rule's factor (see
:mod:`repro.faults.plan`).

Determinism: every decision is a pure function of (cluster, job, seed,
fault plan).  No RNG is consumed, no dict iteration order is observable,
and ties break on node index -- serial and ``jobs=N`` runs are
bit-identical (tested in ``tests/cluster/test_sim.py``).

The replay runs on the numpy engine in :mod:`repro.cluster.vector`,
which also records a structured-array event log exposed via
:attr:`SimResult.events`.  The per-task loop that states these
semantics one task at a time is the test oracle
``tests/cluster/reference_sim.py``; the engine matches it bit for bit
-- same ``SimResult.seconds``, phases, and node usage (gated in
``tests/cluster/test_sim_vectorized.py``).

The simulator emits ``cluster.sim.*`` metrics and, when given a
profiling context, ``sim:phase:*`` spans as a side effect of running.
Per-node ``cluster.node.<i>.*_util`` gauges are emitted only up to
:data:`NODE_GAUGE_LIMIT` total nodes; the always-on
``cluster.sim.node_util.*`` histograms keep utilization observable with
O(1) metric cardinality at any scale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.node import ClusterSpec, NodeSpec, PAPER_CLUSTER
from repro.cluster.timemodel import JobCost, PhaseCost, SPILL_PASSES

#: Task waves per phase: each alive core slot runs this many tasks.
TASK_WAVES = 2

#: Fraction of a node's physical memory usable for working sets (the
#: rest feeds the OS, daemons, and heap overhead) -- the per-node analog
#: of the analytic model's cluster-wide spill threshold.
USABLE_MEMORY_FRACTION = 0.6

#: Upper bound of the straggler slowdown (a task runs 1..1+TAIL times
#: its fair share).  The eighth-power shaping keeps the *mean* inflation
#: small (~5%) while giving every wave a genuine slow tail.
STRAGGLER_TAIL = 0.5

#: HDFS block replication factor (mirrors repro.mapreduce.hdfs).
REPLICATION = 3

#: Above this many total nodes, per-node ``cluster.node.<i>.*_util``
#: gauges are suppressed (3xN series pollute ``repro metrics`` at sweep
#: scale); the ``cluster.sim.node_util.*`` histograms always record the
#: same utilizations in bounded form.
NODE_GAUGE_LIMIT = 32


def unit_hash(seed: int, site: str) -> float:
    """Deterministic uniform [0, 1) variate -- same scheme as the fault
    injector: a pure blake2b hash, no shared RNG consumed.

    Shared across the execution planes: the event simulator's straggler
    shaping and the serving request plane's retry jitter both derive
    their reproducible randomness from this.
    """
    digest = hashlib.blake2b(f"{seed}|{site}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


def _eighth_power(units) -> np.ndarray:
    """The straggler shaping ``u ** 8`` of an array of unit variates.

    ``np.float_power`` is libm ``pow`` -- bit for bit the Python
    ``u ** 8`` of the per-task oracles (``np.power`` and ``units ** 8``
    are repeated squaring and are not); pinned over 10^5 hashed units in
    ``tests/cluster/test_sim_vectorized.py``.
    """
    return np.float_power(np.asarray(units), 8)


@dataclass(frozen=True)
class SimPhase:
    """One simulated phase: its window plus scheduling facts."""

    name: str
    start: float
    end: float
    tasks: int
    straggled: int = 0
    remote_tasks: int = 0
    spill_bytes: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class NodeUsage:
    """Per-node utilization over the whole simulated run."""

    index: int
    name: str
    cores: int
    busy_cpu_seconds: float
    busy_disk_seconds: float
    busy_net_seconds: float
    cpu_utilization: float
    disk_utilization: float
    net_utilization: float


@dataclass(frozen=True)
class SimResult:
    """Outcome of one event-driven replay.

    ``arena`` is the engine's event log: one record per simulated task,
    packed lazily into a structured numpy array by :attr:`events` /
    :meth:`phase_events`.
    """

    seconds: float
    phases: tuple
    nodes: tuple
    killed: tuple = ()
    arena: object = field(default=None, repr=False, compare=False)

    def phase(self, name: str) -> SimPhase:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"no simulated phase named {name!r}")

    @property
    def events(self):
        """The whole run's task events as one structured array
        (fields: node, slot, read/compute/write start+end, straggle,
        straggled, remote)."""
        return self.arena.pack()

    def phase_events(self, name: str):
        """Event records of the phase named ``name``."""
        return self.arena.phase_events(name)


def node_usage(index: int, spec: NodeSpec, busy_cpu: float, busy_disk: float,
               busy_net: float, makespan: float) -> NodeUsage:
    """Fold one node's busy seconds into a :class:`NodeUsage` record."""
    span = max(makespan, 1e-12)
    return NodeUsage(
        index=index, name=spec.name, cores=spec.cores,
        busy_cpu_seconds=busy_cpu,
        busy_disk_seconds=busy_disk,
        busy_net_seconds=busy_net,
        cpu_utilization=busy_cpu / (span * spec.cores),
        disk_utilization=busy_disk / span,
        net_utilization=busy_net / (2.0 * span),
    )


class ClusterSim:
    """Replays a :class:`JobCost` on per-node FIFO resources.

    ``seed`` drives the straggler tail and flow-ordering tie-breaks;
    ``faults`` (a :class:`~repro.faults.inject.FaultInjector` or None)
    supplies node kills and per-node ``slow_disk``/``slow_nic`` resource
    modifiers; ``ctx`` (optional profiling context) receives
    ``sim:phase:*`` spans.
    """

    def __init__(self, cluster: ClusterSpec = PAPER_CLUSTER,
                 data_scale: float = 1.0, seed: int = 0,
                 spill_passes: float = SPILL_PASSES, faults=None, ctx=None):
        from repro.faults.inject import NULL_FAULTS
        from repro.uarch.perfctx import context_or_null

        if data_scale <= 0:
            raise ValueError("data_scale must be positive")
        self.cluster = cluster
        self.data_scale = data_scale
        self.seed = int(seed)
        self.spill_passes = spill_passes
        self.faults = faults if faults is not None else NULL_FAULTS
        self.ctx = context_or_null(ctx)

    def run(self, job: JobCost) -> SimResult:
        from repro.cluster.vector import VectorEngine
        from repro.obs.metrics import METRICS

        specs = self.cluster.nodes
        killed = tuple(
            index for index in range(len(specs))
            if self.faults.enabled and self.faults.node_killed(index))
        result = VectorEngine(self, killed).run(job)

        METRICS.counter("cluster.sim.runs").inc()
        METRICS.histogram("cluster.sim.seconds").observe(result.seconds)
        emit_gauges = len(specs) <= NODE_GAUGE_LIMIT
        cpu = METRICS.histogram("cluster.sim.node_util.cpu")
        disk = METRICS.histogram("cluster.sim.node_util.disk")
        net = METRICS.histogram("cluster.sim.node_util.net")
        for record in result.nodes:
            cpu.observe(record.cpu_utilization)
            disk.observe(record.disk_utilization)
            net.observe(record.net_utilization)
            if emit_gauges:
                prefix = f"cluster.node.{record.index}"
                METRICS.gauge(f"{prefix}.cpu_util").set(record.cpu_utilization)
                METRICS.gauge(f"{prefix}.disk_util").set(
                    record.disk_utilization)
                METRICS.gauge(f"{prefix}.net_util").set(record.net_utilization)
        return result

    def _modifier(self, kind: str, index: int) -> float:
        """Combined slowdown factor of standing ``slow_disk``/``slow_nic``
        rules naming this node."""
        faults = self.faults
        if not faults.enabled:
            return 1.0
        factor = 1.0
        for rule in faults.plan.for_kind(kind):
            if rule.node == index:
                faults.standing(kind, f"cluster:node{index}")
                factor *= rule.factor
        return factor


def sample_job(cluster: ClusterSpec) -> JobCost:
    """A representative MapReduce-shaped cost sized to ``cluster``.

    Per-node shares are held fixed (about the paper Sort point per rack
    node) so the replay keeps comparable utilization from 1 to 1000
    nodes -- this is what ``repro cluster show`` replays for its
    utilization table.
    """
    per_node = 20 * 1024 ** 3  # input bytes per node
    scale = cluster.total_nodes * per_node
    return JobCost().add(
        PhaseCost(name="setup", fixed_seconds=10.0),
    ).add(
        PhaseCost(name="map", cpu_seconds=280.0 * cluster.total_nodes,
                  disk_read_bytes=scale, disk_write_bytes=scale // 2,
                  shuffle_bytes=scale // 3, working_bytes=scale // 2),
    ).add(
        PhaseCost(name="reduce", cpu_seconds=110.0 * cluster.total_nodes,
                  disk_read_bytes=scale // 2, disk_write_bytes=scale,
                  working_bytes=scale // 4),
    )
