"""The per-task cluster replay loop: the oracle for the numpy engine.

:class:`repro.cluster.sim.ClusterSim`'s replay semantics stated one
Python step per task and per shuffle flow, every resource clock a float
on a per-node object -- obviously right and slow.  Tests compare
``ClusterSim(...).run`` against :func:`run` fingerprint for fingerprint
and fault event for fault event.

``run`` takes the production :class:`ClusterSim` for its configuration
(cluster, data scale, seed, spill passes, fault injector, profiling
context) and drives the injector through ``sim._modifier`` exactly as
the engine does, so both consume standing-fault events in one order.
"""

from repro.cluster.node import NodeSpec
from repro.cluster.sim import (
    REPLICATION,
    STRAGGLER_TAIL,
    SimPhase,
    SimResult,
    TASK_WAVES,
    USABLE_MEMORY_FRACTION,
    node_usage,
)
from repro.cluster.timemodel import JobCost, PhaseCost
from repro.sitehash import unit


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


def run(sim, job: JobCost) -> SimResult:
    """Replay ``job`` on ``sim``'s configuration, one task at a time.

    Kills are read from ``sim.faults`` as ``ClusterSim.run`` reads them;
    the result carries no event arena.
    """
    specs = sim.cluster.nodes
    killed = tuple(
        index for index in range(len(specs))
        if sim.faults.enabled and sim.faults.node_killed(index))
    return _run_scalar(sim, job, killed)


def _run_scalar(sim, job: JobCost, killed: tuple) -> SimResult:
    """The per-task reference loop."""
    specs = sim.cluster.nodes
    nodes = [
        _SimNode(index, spec,
                 disk_factor=sim._modifier("slow_disk", index),
                 nic_factor=sim._modifier("slow_nic", index))
        for index, spec in enumerate(specs)
    ]
    alive = [node for node in nodes if node.index not in killed]
    if not alive:
        raise RuntimeError("cluster simulation has no alive nodes")

    now = 0.0
    phases = []
    for phase in job.phases:
        scaled = phase.scaled(sim.data_scale)
        with sim.ctx.span(f"sim:phase:{scaled.name}",
                          category="cluster") as span:
            record = _run_phase(sim, scaled, nodes, alive, now)
            span.set("tasks", record.tasks)
            span.set("seconds", record.seconds)
        phases.append(record)
        now = record.end
        for node in alive:
            node.clamp(now)

    makespan = now
    usage = tuple(
        node_usage(node.index, node.spec, node.busy_cpu, node.busy_disk,
                   node.busy_net, makespan)
        for node in nodes)
    return SimResult(seconds=makespan, phases=tuple(phases), nodes=usage,
                     killed=killed)


# -- one phase ---------------------------------------------------------------

def _run_phase(sim, phase: PhaseCost, nodes, alive, now: float) -> SimPhase:
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
        ref_freq = sim.cluster.node.machine.freq_hz
        for node in alive:
            node.working_bytes = 0.0

        for task in range(num_tasks):
            node, remote = _place(task, nodes, alive)
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
            tail = unit(sim.seed, f"{phase.name}:task{task}") ** 8
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
                spill_time = (excess * sim.spill_passes
                              / node.disk_bandwidth)
                spill_start = max(node.write_free, node.compute_end)
                node.write_free = spill_start + spill_time
                node.busy_disk += spill_time
                spill_total += excess
                end = max(end, node.write_free)

    if phase.shuffle_bytes > 0 and len(alive) > 1:
        end = max(end, _shuffle(sim, phase, alive, now))

    return SimPhase(name=phase.name, start=now,
                    end=end + phase.fixed_seconds, tasks=num_tasks,
                    straggled=straggled, remote_tasks=remote_tasks,
                    spill_bytes=spill_total)


def _place(task: int, nodes, alive):
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


def _shuffle(sim, phase: PhaseCost, alive, now: float) -> float:
    """All-to-all shuffle as pairwise flows over full-duplex NICs.

    Flow bytes split uniformly over ordered (src, dst) pairs; flows
    start when the source finished computing and both endpoint
    queues are free.  Service order is seed-hashed so congestion
    patterns are deterministic but not index-biased."""
    n = len(alive)
    per_flow = phase.shuffle_bytes / (n * (n - 1))
    flows = [(src, dst) for src in alive for dst in alive if src is not dst]
    flows.sort(key=lambda pair: (
        unit(sim.seed, f"{phase.name}:flow:{pair[0].index}->{pair[1].index}"),
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
