"""Hardware specification of cluster nodes.

Models the paper's testbed (Section 6.1): 14 nodes, each with two Xeon
E5645 processors, 16 GB of memory, 8 TB of disk, and gigabit Ethernet --
plus the second Xeon E5310 machine of Table 7.  The specs feed both the
analytic job-time model in :mod:`repro.cluster.timemodel` and the
event-driven per-node simulator in :mod:`repro.cluster.sim`, which
convert measured operation and byte counts into modeled runtimes for the
user-perceivable metrics (DPS/OPS/RPS, Section 6.1.2).

A :class:`ClusterSpec` is homogeneous by default (``node`` repeated
``num_nodes`` times); heterogeneous clusters append ``extra_nodes`` --
e.g. :data:`MIXED_CLUSTER` models the paper's testbed with the E5310
machine joined to the E5645 rack.  Named presets live in
:data:`CLUSTERS` for the CLI's ``repro cluster {ls,show}`` and the
``--cluster`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InputError
from repro.uarch.hierarchy import MachineConfig, XEON_E5310, XEON_E5645

GB = 1024 ** 3
TB = 1024 ** 4
MB = 1024 ** 2


@dataclass(frozen=True)
class DiskSpec:
    """A spinning disk: sequential bandwidth plus a random-IO budget."""

    capacity_bytes: int = 8 * TB
    seq_bandwidth: float = 130 * MB     # bytes/second, sustained sequential
    random_iops: float = 180.0          # 4K random operations per second
    seek_seconds: float = 0.008

    def __post_init__(self) -> None:
        if self.seq_bandwidth <= 0 or self.random_iops <= 0:
            raise ValueError("disk rates must be positive")


@dataclass(frozen=True)
class NicSpec:
    """A network interface: bandwidth and per-message latency."""

    bandwidth: float = 125 * MB         # 1 GbE in bytes/second
    latency_seconds: float = 100e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("NIC bandwidth must be positive")


@dataclass(frozen=True)
class NodeSpec:
    """One cluster node: processor(s), memory, disk, NIC."""

    name: str = "testbed-node"
    machine: MachineConfig = XEON_E5645
    memory_bytes: int = 16 * GB
    disk: DiskSpec = DiskSpec()
    nic: NicSpec = NicSpec()

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError("memory must be positive")

    @property
    def cores(self) -> int:
        return self.machine.total_cores


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of ``num_nodes`` identical nodes (paper: 14) plus any
    ``extra_nodes`` -- heterogeneous members appended after the base
    rack, each with its own machine, memory, disk, and NIC."""

    node: NodeSpec = NodeSpec()
    num_nodes: int = 14
    extra_nodes: tuple = ()

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("cluster needs at least one node")
        object.__setattr__(self, "extra_nodes", tuple(self.extra_nodes))
        for extra in self.extra_nodes:
            if not isinstance(extra, NodeSpec):
                raise ValueError(f"extra_nodes takes NodeSpec, got {extra!r}")

    @property
    def nodes(self) -> tuple:
        """Every node in the cluster, indexed by node id (base rack
        first, then the heterogeneous extras)."""
        return (self.node,) * self.num_nodes + self.extra_nodes

    @property
    def total_nodes(self) -> int:
        return self.num_nodes + len(self.extra_nodes)

    @property
    def is_heterogeneous(self) -> bool:
        return bool(self.extra_nodes)

    @property
    def total_cores(self) -> int:
        return sum(node.cores for node in self.nodes)

    @property
    def total_memory_bytes(self) -> int:
        return sum(node.memory_bytes for node in self.nodes)

    @property
    def aggregate_disk_bandwidth(self) -> float:
        return sum(node.disk.seq_bandwidth for node in self.nodes)

    @property
    def aggregate_network_bandwidth(self) -> float:
        return sum(node.nic.bandwidth for node in self.nodes)

    def scaled(self, num_nodes: int) -> "ClusterSpec":
        """The same node hardware resized to ``num_nodes`` rack nodes.

        Autoscaling sweeps (10 -> 1000 nodes) vary cluster *size* while
        holding the node model fixed, so scaling targets the homogeneous
        base rack: heterogeneous ``extra_nodes`` are dropped.
        """
        num_nodes = int(num_nodes)
        if num_nodes <= 0:
            raise ValueError("scaled() needs a positive node count")
        return ClusterSpec(node=self.node, num_nodes=num_nodes)


#: The paper's testbed: 14 dual-E5645 nodes (Section 6.1).
PAPER_CLUSTER = ClusterSpec(node=NodeSpec(), num_nodes=14)

#: A single node, for service workloads pinned to one machine.
SINGLE_NODE = ClusterSpec(node=NodeSpec(), num_nodes=1)

#: The paper's second machine (Table 7): dual Xeon E5310, two cache
#: levels, a smaller memory budget, the same disk/NIC class.
E5310_NODE = NodeSpec(name="e5310-node", machine=XEON_E5310,
                      memory_bytes=8 * GB)

#: The full Section 6 testbed: the 14-node E5645 rack with the E5310
#: machine joined -- the first heterogeneous cluster the reproduction
#: can express (per-node CPU seconds diverge with core count and clock).
MIXED_CLUSTER = ClusterSpec(node=NodeSpec(), num_nodes=14,
                            extra_nodes=(E5310_NODE,))

#: Named presets for the CLI (``repro cluster ls`` / ``--cluster``).
CLUSTERS = {
    "paper": PAPER_CLUSTER,
    "single": SINGLE_NODE,
    "mixed": MIXED_CLUSTER,
}


def resolve_cluster(name) -> ClusterSpec:
    """Map a preset name (or a ready ClusterSpec) to a ClusterSpec.

    A ``:N`` suffix overrides the node count via :meth:`ClusterSpec.scaled`
    -- ``"paper:100"`` is the paper's node hardware in a 100-node rack, so
    autoscaling sweeps are expressible from any ``--cluster`` flag.
    """
    if isinstance(name, ClusterSpec):
        return name
    text = str(name).lower()
    base, sep, count = text.partition(":")
    try:
        spec = CLUSTERS[base]
    except KeyError:
        known = ", ".join(sorted(CLUSTERS))
        raise InputError(f"unknown cluster {name!r}; known presets: {known} "
                         f"(append ':N' to override the node count)")
    if not sep:
        return spec
    try:
        nodes = int(count)
        if nodes <= 0:
            raise ValueError
    except ValueError:
        raise InputError(f"bad node-count override in {name!r}: "
                         f"expected '<preset>:<positive int>'")
    return spec.scaled(nodes)
