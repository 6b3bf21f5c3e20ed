"""Workload framework: the interface every BigDataBench workload implements.

A workload bundles (1) its Table 4 metadata -- application scenario,
application type, data type/source, software stacks; (2) its Table 6
input geometry -- what the baseline input is and how it scales; (3) a
``prepare`` step that synthesizes its input with BDGS; and (4) a body
that executes it on one of its software stacks under a profiling
context.  :meth:`Workload.run` is the one entry point for every
workload: it checks the stack, calls the body and builds the
:class:`WorkloadResult` -- its metric named by ``info.metric``.

A workload states its body in one of two ways.  A workload whose stacks
share one body (the datastore, query, serving, streaming and scenario
families) overrides :meth:`Workload.execute`.  An analytics workload
gives one method per stack, named after it (``hadoop``, ``spark``,
``mpi``), each returning ``(output, cost)``, and one
:meth:`Workload.check` that turns the output into result details -- so
the algorithm's correctness is stated once, whatever stack ran it.

Scaled-down input sizes: the paper's baselines (32 GB, 10^6 pages,
2^15 vertices, 100 req/s) are shrunk ~1000-8000x so a full sweep runs in
seconds; the 1x/4x/8x/16x/32x scale geometry of Table 6 is preserved
exactly (see DESIGN.md, substitution 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.cluster.timemodel import JobCost, TimeModel
from repro.errors import InputError
from repro.uarch.perfctx import context_or_null

#: The data-scale multipliers of the paper's sweep (Table 6, Section 6.2).
SCALE_FACTORS = (1, 4, 8, 16, 32)

#: Global shrink factor of the reproduction's inputs versus the paper's
#: (4 MB baseline stands for 32 GB).  The time model maps byte volumes
#: back through this factor so memory-pressure and congestion effects
#: occur at the same relative points (DESIGN.md, substitution 3).
DATA_SCALE = 8192.0

#: Application types (Section 4.1).
OFFLINE = "Offline Analytics"
ONLINE = "Online Service"
REALTIME = "Realtime Analytics"

#: User-perceivable metrics (Section 6.1.2).
DPS = "DPS"   # data processed per second (analytics)
OPS = "OPS"   # operations per second (Cloud OLTP)
RPS = "RPS"   # requests per second (online services)


@dataclass(frozen=True)
class WorkloadInfo:
    """One row of the paper's Table 4 plus its Table 6 input geometry."""

    name: str
    scenario: str          # e.g. "Micro Benchmarks", "Search Engine"
    app_type: str          # OFFLINE / ONLINE / REALTIME
    data_type: str         # structured / semi-structured / unstructured
    data_source: str       # text / graph / table
    stacks: tuple          # software stacks (Table 4)
    metric: str            # DPS / OPS / RPS
    input_description: str # Table 6 input column, paper units
    workload_id: int       # Table 6 row number


@dataclass
class WorkloadInput:
    """Prepared input: payload(s), real byte size, and scale metadata."""

    payload: object
    nbytes: int
    scale: int
    details: dict = field(default_factory=dict)


@dataclass
class WorkloadResult:
    """Functional output and accounting of one workload run."""

    workload: str
    stack: str
    scale: int
    input_bytes: float
    cost: JobCost
    metric_name: str
    metric_value: float
    details: dict = field(default_factory=dict)


@dataclass
class Execution:
    """What a workload body hands back to :meth:`Workload.run`.

    ``metric_value`` is set by bodies that measure their own rate (OPS,
    RPS); otherwise the metric is the DPS over ``input_bytes``, which
    defaults to the prepared input's size.
    """

    cost: JobCost
    details: dict
    metric_value: float = None
    input_bytes: float = None


class Workload:
    """Base class; subclasses define ``info``, ``prepare`` and either
    ``execute`` or one method per stack plus ``check``."""

    info: WorkloadInfo = None

    #: The stack used when none is requested (Table 4's first stack).
    default_stack = "hadoop"

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        """Synthesize the input for ``scale`` x the baseline via BDGS."""
        raise NotImplementedError

    def run(self, prepared: WorkloadInput, ctx=None,
            cluster: ClusterSpec = PAPER_CLUSTER, stack: str = None) -> WorkloadResult:
        """Execute the workload and return results plus cost accounting."""
        stack = self.check_stack(stack)
        done = self.execute(prepared, context_or_null(ctx), cluster, stack)
        input_bytes = (prepared.nbytes if done.input_bytes is None
                       else done.input_bytes)
        metric_value = done.metric_value
        if metric_value is None:
            metric_value = self.dps(input_bytes, done.cost, cluster)
        return WorkloadResult(
            workload=self.info.name, stack=stack, scale=prepared.scale,
            input_bytes=input_bytes, cost=done.cost,
            metric_name=self.info.metric, metric_value=metric_value,
            details=done.details,
        )

    def execute(self, prepared: WorkloadInput, ctx, cluster: ClusterSpec,
                stack: str) -> Execution:
        """The body: by default the method named after ``stack``, whose
        output :meth:`check` turns into details."""
        output, cost = getattr(self, stack)(prepared, ctx, cluster)
        return Execution(cost, self.check(prepared, output))

    def check(self, prepared: WorkloadInput, output) -> dict:
        """Result details of one stack's output.  Never charges a context."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    def check_scale(self, scale: int) -> None:
        if scale < 1:
            raise InputError(f"scale must be >= 1, got {scale}")

    def check_stack(self, stack: str) -> str:
        stack = (stack or self.default_stack).lower()
        supported = {s.lower() for s in self.info.stacks}
        if stack not in supported:
            raise InputError(
                f"{self.info.name} supports stacks {sorted(supported)}, got {stack!r}"
            )
        return stack

    def dps(self, input_bytes: float, cost: JobCost,
            cluster: ClusterSpec) -> float:
        """Data processed per second under the cluster time model."""
        return TimeModel(cluster, data_scale=DATA_SCALE).dps(input_bytes, cost)

    def modeled_seconds(self, cost: JobCost, cluster: ClusterSpec) -> float:
        """Modeled wall-clock seconds of the run at paper scale."""
        return TimeModel(cluster, data_scale=DATA_SCALE).job_time(cost)
