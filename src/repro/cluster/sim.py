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

Two interchangeable engines replay these semantics.  The per-task loop
in this module is the *scalar reference*; the default ``"vector"``
engine (:mod:`repro.cluster.vector`) batches the same arithmetic with
numpy kernels and is bit-identical to it -- same ``SimResult.seconds``,
phases, and node usage (gated in ``tests/cluster/test_sim_vectorized``).
``REPRO_SCALAR_SIM=1`` (or ``engine="scalar"``) selects the reference;
the vector engine additionally records a structured-array event log
exposed via :attr:`SimResult.events`.

The simulator emits ``cluster.sim.*`` metrics and, when given a
profiling context, ``sim:phase:*`` spans as a side effect of running.
Per-node ``cluster.node.<i>.*_util`` gauges are emitted only up to
:data:`NODE_GAUGE_LIMIT` total nodes; the always-on
``cluster.sim.node_util.*`` histograms keep utilization observable with
O(1) metric cardinality at any scale.
"""

from __future__ import annotations

import hashlib
import os
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
#: same utilizations in bounded form.  Override: REPRO_NODE_GAUGE_LIMIT.
NODE_GAUGE_LIMIT = int(os.environ.get("REPRO_NODE_GAUGE_LIMIT", "32"))


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


#: Backwards-compatible private alias (pre-serving-plane name).
_unit = unit_hash


def _eighth_power(units) -> np.ndarray:
    """The straggler shaping ``u ** 8`` of an array of unit variates.

    ``np.float_power`` is libm ``pow`` -- bit for bit the Python
    ``u ** 8`` of the scalar loops (``np.power`` and ``units ** 8`` are
    repeated squaring and are not); pinned over 10^5 hashed units in
    ``tests/cluster/test_sim_vectorized.py``.
    """
    return np.float_power(np.asarray(units), 8)


class _SimNode:
    """Mutable per-node resource state during one simulation."""

    __slots__ = ("index", "spec", "disk_factor", "nic_factor", "cores",
                 "disk_free", "write_free", "nic_in_free", "nic_out_free",
                 "compute_end", "working_bytes", "busy_cpu", "busy_disk",
                 "busy_net")

    def __init__(self, index: int, spec: NodeSpec,
                 disk_factor: float = 1.0, nic_factor: float = 1.0):
        self.index = index
        self.spec = spec
        self.disk_factor = disk_factor
        self.nic_factor = nic_factor
        self.cores = [0.0] * spec.cores
        self.disk_free = 0.0
        self.write_free = 0.0
        self.nic_in_free = 0.0
        self.nic_out_free = 0.0
        self.compute_end = 0.0
        self.working_bytes = 0.0
        self.busy_cpu = 0.0
        self.busy_disk = 0.0
        self.busy_net = 0.0

    @property
    def disk_bandwidth(self) -> float:
        return self.spec.disk.seq_bandwidth / self.disk_factor

    @property
    def nic_bandwidth(self) -> float:
        return self.spec.nic.bandwidth / self.nic_factor

    def earliest_core(self) -> int:
        """Index of the earliest-free core slot (lowest slot on ties)."""
        best = 0
        best_time = self.cores[0]
        for slot in range(1, len(self.cores)):
            if self.cores[slot] < best_time:
                best, best_time = slot, self.cores[slot]
        return best

    def clamp(self, now: float) -> None:
        """Phase barrier: no resource is free before ``now``."""
        for slot in range(len(self.cores)):
            if self.cores[slot] < now:
                self.cores[slot] = now
        self.disk_free = max(self.disk_free, now)
        self.write_free = max(self.write_free, now)
        self.nic_in_free = max(self.nic_in_free, now)
        self.nic_out_free = max(self.nic_out_free, now)


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

    ``arena`` is the vector engine's event log (None on the scalar
    reference path): one record per simulated task, packed lazily into
    a structured numpy array by :attr:`events` / :meth:`phase_events`.
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
        straggled, remote) -- vector engine only."""
        if self.arena is None:
            raise RuntimeError(
                "no event arena: the scalar reference engine does not "
                "record events (rerun without REPRO_SCALAR_SIM)")
        return self.arena.pack()

    def phase_events(self, name: str):
        """Event records of the phase named ``name``."""
        if self.arena is None:
            raise RuntimeError(
                "no event arena: the scalar reference engine does not "
                "record events (rerun without REPRO_SCALAR_SIM)")
        return self.arena.phase_events(name)


def node_usage(index: int, spec: NodeSpec, busy_cpu: float, busy_disk: float,
               busy_net: float, makespan: float) -> NodeUsage:
    """Fold one node's busy seconds into a :class:`NodeUsage` record
    (shared by the scalar and vector engines)."""
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
    ``sim:phase:*`` spans; ``engine`` picks the replay implementation --
    ``"vector"`` (numpy batch kernels, the default) or ``"scalar"`` (the
    per-task reference loop in this module), both bit-identical.  The
    ``REPRO_SCALAR_SIM=1`` environment variable flips the default to the
    scalar reference.
    """

    def __init__(self, cluster: ClusterSpec = PAPER_CLUSTER,
                 data_scale: float = 1.0, seed: int = 0,
                 spill_passes: float = SPILL_PASSES, faults=None, ctx=None,
                 engine: str = None):
        from repro.faults.inject import NULL_FAULTS
        from repro.uarch.perfctx import context_or_null

        if data_scale <= 0:
            raise ValueError("data_scale must be positive")
        if engine is None:
            scalar = os.environ.get("REPRO_SCALAR_SIM", "") not in ("", "0")
            engine = "scalar" if scalar else "vector"
        if engine not in ("scalar", "vector"):
            raise ValueError(f"unknown sim engine {engine!r}: "
                             f"expected 'scalar' or 'vector'")
        self.cluster = cluster
        self.data_scale = data_scale
        self.seed = int(seed)
        self.spill_passes = spill_passes
        self.faults = faults if faults is not None else NULL_FAULTS
        self.ctx = context_or_null(ctx)
        self.engine = engine

    def run(self, job: JobCost) -> SimResult:
        from repro.obs.metrics import METRICS

        specs = self.cluster.nodes
        killed = tuple(
            index for index in range(len(specs))
            if self.faults.enabled and self.faults.node_killed(index))
        if self.engine == "vector":
            from repro.cluster.vector import VectorEngine

            result = VectorEngine(self, killed).run(job)
        else:
            result = self._run_scalar(job, killed)

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

    def _run_scalar(self, job: JobCost, killed: tuple) -> SimResult:
        """The per-task reference loop (``REPRO_SCALAR_SIM=1``)."""
        specs = self.cluster.nodes
        nodes = [
            _SimNode(index, spec,
                     disk_factor=self._modifier("slow_disk", index),
                     nic_factor=self._modifier("slow_nic", index))
            for index, spec in enumerate(specs)
        ]
        alive = [node for node in nodes if node.index not in killed]
        if not alive:
            raise RuntimeError("cluster simulation has no alive nodes")

        now = 0.0
        phases = []
        for phase in job.phases:
            scaled = phase.scaled(self.data_scale)
            with self.ctx.span(f"sim:phase:{scaled.name}",
                               category="cluster") as span:
                record = self._run_phase(scaled, nodes, alive, now)
                span.set("tasks", record.tasks)
                span.set("seconds", record.seconds)
            phases.append(record)
            now = record.end
            for node in alive:
                node.clamp(now)

        makespan = now
        usage = tuple(self._usage(node, makespan) for node in nodes)
        return SimResult(seconds=makespan, phases=tuple(phases), nodes=usage,
                         killed=killed)

    # -- one phase -----------------------------------------------------------

    def _run_phase(self, phase: PhaseCost, nodes, alive, now: float) -> SimPhase:
        end = now
        num_tasks = 0
        straggled = 0
        remote_tasks = 0
        spill_total = 0.0
        has_tasks = (phase.cpu_seconds > 0 or phase.disk_read_bytes > 0
                     or phase.disk_write_bytes > 0 or phase.working_bytes > 0)

        if has_tasks:
            slots = sum(len(node.cores) for node in alive)
            num_tasks = max(1, TASK_WAVES * slots)
            cpu_share = phase.cpu_seconds / num_tasks
            read_share = phase.disk_read_bytes / num_tasks
            write_share = phase.disk_write_bytes / num_tasks
            work_share = phase.working_bytes / num_tasks
            ref_freq = self.cluster.node.machine.freq_hz
            for node in alive:
                node.working_bytes = 0.0

            for task in range(num_tasks):
                node, remote = self._place(task, nodes, alive)
                remote_tasks += remote
                # Input streams off the node's disk in FIFO order; the
                # next wave's reads overlap this wave's compute because
                # the disk queue advances independently of the cores.
                read_end = now
                if read_share > 0:
                    read_time = read_share / node.disk_bandwidth
                    read_start = max(node.disk_free, now)
                    read_end = read_start + read_time
                    node.disk_free = read_end
                    node.busy_disk += read_time
                # Compute at the node's own clock: the per-node
                # CPI-derived CPU seconds heterogeneous clusters need.
                slot = node.earliest_core()
                tail = _unit(self.seed, f"{phase.name}:task{task}") ** 8
                factor = 1.0 + STRAGGLER_TAIL * tail
                if tail > 0.5:
                    straggled += 1
                cpu_time = (cpu_share * factor
                            * (ref_freq / node.spec.machine.freq_hz))
                start = max(node.cores[slot], read_end, now)
                compute_end = start + cpu_time
                node.cores[slot] = compute_end
                node.busy_cpu += cpu_time
                node.compute_end = max(node.compute_end, compute_end)
                task_end = compute_end
                if write_share > 0:
                    # Write-back drains through a write-behind queue (the
                    # page cache flushes during read idle gaps) instead
                    # of the read FIFO -- otherwise one task's output
                    # would block the *next* task's input on an idle
                    # disk, serializing the node.
                    write_time = write_share / node.disk_bandwidth
                    write_start = max(node.write_free, compute_end)
                    node.write_free = write_start + write_time
                    node.busy_disk += write_time
                    task_end = node.write_free
                node.working_bytes += work_share
                end = max(end, task_end)

            # Per-node memory pressure: working bytes beyond the usable
            # fraction of *this node's* memory spill to its own disk.
            for node in alive:
                budget = USABLE_MEMORY_FRACTION * node.spec.memory_bytes
                excess = node.working_bytes - budget
                if excess > 0:
                    spill_time = (excess * self.spill_passes
                                  / node.disk_bandwidth)
                    spill_start = max(node.write_free, node.compute_end)
                    node.write_free = spill_start + spill_time
                    node.busy_disk += spill_time
                    spill_total += excess
                    end = max(end, node.write_free)

        if phase.shuffle_bytes > 0 and len(alive) > 1:
            end = max(end, self._shuffle(phase, alive, now))

        return SimPhase(name=phase.name, start=now,
                        end=end + phase.fixed_seconds, tasks=num_tasks,
                        straggled=straggled, remote_tasks=remote_tasks,
                        spill_bytes=spill_total)

    def _place(self, task: int, nodes, alive):
        """Locality-aware placement: the least-loaded alive holder of the
        task's HDFS replica set; any alive node (a remote read) when the
        whole replica set is dead.  Ties break on node index."""
        count = min(REPLICATION, len(nodes))
        alive_ids = {node.index for node in alive}
        replicas = tuple((task + k) % len(nodes) for k in range(count))
        candidates = [nodes[r] for r in replicas if r in alive_ids]
        remote = 0
        if not candidates:
            candidates = alive
            remote = 1
        best = min(candidates,
                   key=lambda n: (max(n.disk_free, n.cores[n.earliest_core()]),
                                  n.index))
        return best, remote

    def _shuffle(self, phase: PhaseCost, alive, now: float) -> float:
        """All-to-all shuffle as pairwise flows over full-duplex NICs.

        Flow bytes split uniformly over ordered (src, dst) pairs; flows
        start when the source finished computing and both endpoint
        queues are free.  Service order is seed-hashed so congestion
        patterns are deterministic but not index-biased."""
        n = len(alive)
        per_flow = phase.shuffle_bytes / (n * (n - 1))
        flows = [(src, dst) for src in alive for dst in alive if src is not dst]
        flows.sort(key=lambda pair: (
            _unit(self.seed,
                  f"{phase.name}:flow:{pair[0].index}->{pair[1].index}"),
            pair[0].index, pair[1].index))
        end = now
        for src, dst in flows:
            rate = min(src.nic_bandwidth, dst.nic_bandwidth)
            duration = per_flow / rate
            start = max(src.compute_end, src.nic_out_free, dst.nic_in_free,
                        now)
            finish = start + duration
            src.nic_out_free = finish
            dst.nic_in_free = finish
            src.busy_net += duration
            dst.busy_net += duration
            end = max(end, finish)
        return end

    # -- helpers -------------------------------------------------------------

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

    def _usage(self, node: _SimNode, makespan: float) -> NodeUsage:
        return node_usage(node.index, node.spec, node.busy_cpu,
                          node.busy_disk, node.busy_net, makespan)


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
