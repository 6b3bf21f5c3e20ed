"""The unified serving entrypoint: SLO study over the replayed stream.

One frozen :class:`ServingRun` value object describes a study, and one
entrypoint -- :func:`run_serving` -- executes it:

1. **demand** -- sample the server's request path under the profiler to
   measure mean per-request service demand (instructions -> seconds on
   the cluster's reference machine), recorded as a ``serving:sample:*``
   span and charged as the ledger's ``serve`` phase;
2. **arrivals** -- materialize the profile's deterministic timestamped
   request stream (:func:`repro.serving.load.generate_stream`);
3. **replay** -- drive the stream through the cluster's per-node
   core/NIC queues (:func:`repro.serving.vector.replay`) under the
   selected recovery policies and any armed fault rules;
4. **slo** -- aggregate the observed latencies into the tail-latency
   report (p50/p99/p999, goodput, shed/hedged/retried fractions) and
   attach the analytic ``mm_c`` point as the validation baseline.

:func:`autoscale_sweep` repeats the replay across cluster sizes (the
10 -> 1000-node autoscaling question) reusing one measured demand, so a
warm sweep is pure event replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.cluster.node import ClusterSpec, SINGLE_NODE
from repro.cluster.timemodel import JobCost
from repro.errors import InputError
from repro.faults.inject import resolve_faults
from repro.serving.load import (
    ArrivalStream,
    LoadProfile,
    REQUEST_WIRE_BYTES,
    RESPONSE_WIRE_BYTES,
    ReplayOutcome,
    STRAGGLER_MEAN_FACTOR,
    canonical_policy,
    generate_stream,
)
from repro.serving.queueing import QueueingResult, mm_c
from repro.serving.server import Server
from repro.serving.vector import replay
from repro.uarch.perfctx import context_or_null

#: Default node counts of the autoscaling sweep: ~even decade coverage
#: of 10 -> 1000 (half-decade log steps).
AUTOSCALE_NODES = (10, 18, 32, 56, 100, 178, 316, 562, 1000)


@dataclass(frozen=True)
class ServingRun:
    """Everything one serving study needs, as a frozen value object.

    The profile carries the load curve (shape + rate + loop), the policy
    the recovery paths, and the whole spec is hashable/picklable so it can
    ride a :class:`~repro.core.runspec.RunSpec` into memo and disk-cache
    keys and across process pools.
    """

    server: Server = field(compare=False)
    profile: LoadProfile = LoadProfile()
    policy: str = "none"
    cluster: ClusterSpec = SINGLE_NODE
    seed: int = 0
    sample_requests: int = 500
    slo_seconds: float = 0.5

    def __post_init__(self):
        if not isinstance(self.profile, LoadProfile):
            object.__setattr__(self, "profile",
                               LoadProfile.parse(self.profile))
        object.__setattr__(self, "policy", canonical_policy(self.policy))
        if self.sample_requests <= 0:
            raise InputError("sample_requests must be positive")
        if self.slo_seconds <= 0:
            raise InputError("slo_seconds must be positive")


@dataclass(frozen=True)
class ServiceDemand:
    """Measured mean per-request demand of one server on one machine."""

    instructions_per_request: float
    service_seconds: float
    requests_sampled: int
    cost: JobCost = None


@dataclass(frozen=True)
class SLOReport:
    """The serving study's outcome: throughput, tail latency, SLO hits.

    All latency fields are client-observed seconds over *completed*
    requests; the fractions are over *issued* requests.  ``queueing``
    is the analytic M/M/c point at the same offered load -- kept as the
    validation baseline (:meth:`analytic_ratio`), no longer the source
    of the reported numbers.
    """

    server: str
    profile: str
    policy: str
    requests: int
    completed: int
    offered_rps: float
    achieved_rps: float
    goodput_rps: float
    mean_latency: float
    p50_latency: float
    p99_latency: float
    p999_latency: float
    max_latency: float
    shed_fraction: float
    hedged_fraction: float
    retried_fraction: float
    failed_fraction: float
    utilization: float
    duration: float
    makespan: float
    slo_seconds: float
    wire_seconds: float
    instructions_per_request: float
    request_mix: dict = field(default_factory=dict)
    queueing: QueueingResult = None
    cost: JobCost = None

    @property
    def slo_attainment(self) -> float:
        """Fraction of issued requests answered within ``slo_seconds``."""
        if self.requests <= 0:
            return 0.0
        return self.goodput_rps * self.makespan / self.requests

    @property
    def mips(self) -> float:
        """Aggregate MIPS at the achieved throughput (Figure 3-1 metric
        for service workloads)."""
        return self.instructions_per_request * self.achieved_rps / 1e6

    def analytic_ratio(self) -> float:
        """Replay mean latency vs the analytic ``mm_c`` baseline.

        The replay adds two effects the memoryless model does not see --
        the NIC wire time on both legs and the deterministic ``u**8``
        straggler shaping of service times -- so both are normalized out
        before the ratio.  Below saturation, a constant open-loop
        profile must keep this near 1.0 (the validation gate).
        """
        if self.queueing is None or self.queueing.mean_latency <= 0:
            return float("nan")
        shaped = (self.mean_latency - self.wire_seconds) / STRAGGLER_MEAN_FACTOR
        return shaped / self.queueing.mean_latency


def measure_demand(server: Server, cluster: ClusterSpec = SINGLE_NODE,
                   ctx=None, sample_requests: int = 500,
                   seed: int = 0) -> ServiceDemand:
    """Sample the request path to measure mean per-request demand.

    The profiled sample is the only place the server's ``handle`` runs
    (the replay consumes the *measured* demand); it is recorded as a
    ``serving:sample:<name>`` span, and the sample's aggregate demand is
    charged through the shared cluster ledger as one ``serve`` phase.
    """
    ctx = context_or_null(ctx)
    rng = np.random.default_rng(seed)
    churn_batch = 32
    instr_before = ctx.events.instructions
    with ctx.span(f"serving:sample:{server.name}", category="serving",
                  requests=sample_requests):
        with ctx.code(server.code_profile):
            for i in range(sample_requests):
                server.handle(rng, ctx)
                if (i + 1) % churn_batch == 0:
                    server.charge_request_churn(ctx, churn_batch)
            server.charge_request_churn(ctx, sample_requests % churn_batch)
    instructions = ctx.events.instructions - instr_before
    per_request = (instructions / sample_requests if ctx.profiling
                   else 2_000_000.0)
    service_seconds = (per_request * server.effective_cpi
                       / cluster.node.machine.freq_hz)
    ledger = CostLedger(cluster, ctx=ctx, cpi=server.effective_cpi)
    ledger.charge("serve", cpu_seconds=service_seconds * sample_requests)
    return ServiceDemand(
        instructions_per_request=per_request,
        service_seconds=service_seconds,
        requests_sampled=sample_requests,
        cost=ledger.job,
    )


def _percentiles(latencies: np.ndarray,
                 qs: tuple = (0.50, 0.99, 0.999)) -> tuple:
    """All report percentiles from one ``np.partition`` pass.

    Float-equal to ``np.quantile(latencies, q)`` per quantile (linear
    interpolation replicated, including numpy's ``t >= 0.5`` lerp
    branch) without sorting the full array once per quantile -- at
    day-scale streams the three full sorts dominated ``_build_report``.

    Conventions: an **empty** latency array (nothing completed -- an
    all-shed overload or an empty stream) reports 0.0 for every
    percentile; a **single**
    completion reports that latency for every percentile.  NaN never
    appears here: incomplete requests carry NaN ``finish`` times in the
    :class:`~repro.serving.vector.RequestArena`, but the latency array
    holds completed requests only.
    """
    n = len(latencies)
    if n == 0:
        return tuple(0.0 for _ in qs)
    top = n - 1
    virtual = [q * top for q in qs]
    lo = [min(int(v), top) for v in virtual]
    hi = [min(k + 1, top) for k in lo]
    kth = np.unique(np.asarray(lo + hi))
    part = np.partition(np.asarray(latencies), kth)
    out = []
    for v, a_i, b_i in zip(virtual, lo, hi):
        a = part[a_i]
        b = part[b_i]
        t = v - float(int(v))
        diff = b - a
        # numpy's _lerp: the b-anchored form past the midpoint keeps
        # the interpolation monotone at the cost of a different (and
        # here faithfully replicated) rounding.
        value = b - diff * (1.0 - t) if t >= 0.5 else a + diff * t
        out.append(float(value))
    return tuple(out)


def run_serving(spec: ServingRun, ctx=None,
                demand: Optional[ServiceDemand] = None) -> SLOReport:
    """Execute one serving study: demand -> arrivals -> replay -> SLO.

    ``demand`` short-circuits the profiled sample with a pre-measured
    :class:`ServiceDemand` -- autoscale sweeps measure once and replay
    many times.  Faults attached to ``ctx`` by the harness (the chaos
    layer) arm the timeout/straggler/overload rules inside the replay.
    """
    from repro.obs.metrics import METRICS

    ctx = context_or_null(ctx)
    faults = resolve_faults(ctx, None)
    server = spec.server
    profile = spec.profile
    if profile.rps <= 0 and not (profile.loop == "closed" and profile.users):
        raise ValueError(
            f"ServingRun for {server.name!r} has no request rate: give the "
            "profile an rps= (or users= for closed loop), or fill it from "
            "the workload default with profile.with_rate(...)")
    site = f"serving:{server.name}"
    if demand is None:
        demand = measure_demand(server, spec.cluster, ctx,
                                sample_requests=spec.sample_requests,
                                seed=spec.seed)
    mix = getattr(server, "MIX", (("request", 1.0),))

    with ctx.span(f"load:arrivals:{server.name}", category="serving",
                  profile=str(profile)) as sp:
        stream = generate_stream(profile, mix, seed=spec.seed)
        sp.set("requests", stream.size)
        sp.set("duration_s", stream.duration)
    with ctx.span(f"load:replay:{server.name}", category="serving",
                  policy=spec.policy, nodes=spec.cluster.total_nodes):
        outcome = replay(
            stream, spec.cluster, demand.service_seconds,
            policy=spec.policy, faults=faults, site=site,
            slo_seconds=spec.slo_seconds, ctx=ctx)

    with ctx.span(f"load:slo:{server.name}", category="serving") as sp:
        report = _build_report(spec, demand, stream, outcome)
        sp.set("p99_s", report.p99_latency)
        sp.set("goodput_rps", report.goodput_rps)

    METRICS.counter("serving.load.requests").inc(outcome.requests)
    METRICS.counter("serving.load.completed").inc(outcome.completed)
    for name, count in (("shed", outcome.shed), ("hedged", outcome.hedged),
                        ("retries", outcome.retries),
                        ("failed", outcome.failed)):
        if count:
            METRICS.counter(f"serving.load.{name}").inc(count)
    METRICS.histogram("serving.slo.p50_seconds").observe(report.p50_latency)
    METRICS.histogram("serving.slo.p99_seconds").observe(report.p99_latency)
    METRICS.histogram("serving.slo.p999_seconds").observe(report.p999_latency)
    METRICS.histogram("serving.slo.goodput_rps").observe(report.goodput_rps)
    METRICS.histogram("serving.slo.utilization").observe(report.utilization)
    return report


def _build_report(spec: ServingRun, demand: ServiceDemand,
                  stream: ArrivalStream,
                  outcome: ReplayOutcome) -> SLOReport:
    latencies = outcome.latencies
    requests = max(1, outcome.requests)
    within = int((latencies <= spec.slo_seconds).sum()) if len(latencies) else 0
    goodput = within / outcome.makespan if outcome.makespan > 0 else 0.0
    node = spec.cluster.node
    wire = 2.0 * node.nic.latency_seconds + (
        (REQUEST_WIRE_BYTES + RESPONSE_WIRE_BYTES) / node.nic.bandwidth)
    total_cores = spec.cluster.total_cores
    utilization = (outcome.busy_cpu_seconds / (outcome.makespan * total_cores)
                   if outcome.makespan > 0 else 0.0)
    queueing = mm_c(outcome.offered_rps, demand.service_seconds, total_cores)
    p50, p99, p999 = _percentiles(latencies)
    return SLOReport(
        server=spec.server.name,
        profile=str(spec.profile),
        policy=spec.policy,
        requests=outcome.requests,
        completed=outcome.completed,
        offered_rps=outcome.offered_rps,
        achieved_rps=outcome.achieved_rps,
        goodput_rps=goodput,
        mean_latency=float(latencies.mean()) if len(latencies) else 0.0,
        p50_latency=p50,
        p99_latency=p99,
        p999_latency=p999,
        max_latency=float(latencies.max()) if len(latencies) else 0.0,
        shed_fraction=outcome.shed / requests,
        hedged_fraction=outcome.hedged / requests,
        retried_fraction=outcome.retries / requests,
        failed_fraction=outcome.failed / requests,
        utilization=utilization,
        duration=outcome.duration,
        makespan=outcome.makespan,
        slo_seconds=spec.slo_seconds,
        wire_seconds=wire,
        instructions_per_request=demand.instructions_per_request,
        request_mix=outcome.mix,
        queueing=queueing,
        cost=demand.cost,
    )


def autoscale_sweep(spec: ServingRun, node_counts=AUTOSCALE_NODES,
                    ctx=None, demand: Optional[ServiceDemand] = None) -> list:
    """Replay the same load across cluster sizes (10 -> 1000 nodes).

    The service demand is measured once on the base spec and reused at
    every size (the node hardware is held fixed by
    :meth:`ClusterSpec.scaled`), so a warm sweep is pure event replay --
    the property that keeps 1000-node sweeps interactive.  Returns
    ``[(num_nodes, SLOReport), ...]`` in sweep order.
    """
    ctx = context_or_null(ctx)
    if demand is None:
        demand = measure_demand(spec.server, spec.cluster, ctx,
                                sample_requests=spec.sample_requests,
                                seed=spec.seed)
    reports = []
    for count in node_counts:
        sized = replace(spec, cluster=spec.cluster.scaled(count))
        reports.append((int(count), run_serving(sized, ctx, demand=demand)))
    return reports
