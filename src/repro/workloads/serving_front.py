"""Shared glue between the online-service workloads and the serving API.

The three online services (Nutch/Olio/Rubis) present identical fronts:
one single-node service tier driven at the workload's swept request rate
(the paper's 100 x (1..32) req/s geometry), reported with the same SLO
detail keys.  This module holds that shape once -- each workload's
``run()`` builds its :class:`~repro.serving.ServingRun` here and
flattens the :class:`~repro.serving.SLOReport` into result details.

The harness-attached :class:`~repro.serving.ServingOptions`
(``ctx.serving``, set by the ``--profile`` / ``--policy`` flags) select
the load curve and recovery policy; the workload's default rate fills a
profile that does not pin its own ``rps``.
"""

from __future__ import annotations

from repro.cluster.node import SINGLE_NODE
from repro.serving import ServingOptions, ServingRun, SLOReport


def serving_spec(prepared, ctx, sample_requests: int = 500) -> ServingRun:
    """The workload's serving study: its server at its swept rate.

    The service tier is one front-end node (load sweeps must be able to
    saturate it, as in the paper's 100..3200 req/s geometry).  The run
    seed comes from the harness-attached ``ctx.seed`` so the arrival
    stream is bit-identical for identical run specs, serial or pooled.
    """
    options = getattr(ctx, "serving", None) or ServingOptions()
    return ServingRun(
        server=prepared.payload,
        profile=options.profile.with_rate(prepared.details["rate_rps"]),
        policy=options.policy,
        cluster=SINGLE_NODE,
        seed=int(getattr(ctx, "seed", 0)),
        sample_requests=sample_requests,
    )


def serving_details(report: SLOReport) -> dict:
    """Flatten an SLO report into workload result details.

    ``latency_s`` / ``utilization`` / ``mips`` / ``mix`` keep their
    legacy names (dashboards and the example studies read them); the
    tail-latency and SLO keys are the new serving-plane surface.  All
    timing-derived keys are excluded from chaos output comparison by
    :data:`repro.faults.verify.TIMING_DETAIL_KEYS`; the mix is counted
    over *issued* requests, so it stays bit-identical under faults.
    """
    return {
        "latency_s": report.mean_latency,
        "p50_s": report.p50_latency,
        "p99_s": report.p99_latency,
        "p999_s": report.p999_latency,
        "goodput_rps": report.goodput_rps,
        "utilization": report.utilization,
        "mips": report.mips,
        "instructions_per_request": report.instructions_per_request,
        "shed_fraction": report.shed_fraction,
        "hedged_fraction": report.hedged_fraction,
        "retried_fraction": report.retried_fraction,
        "failed_fraction": report.failed_fraction,
        "profile": report.profile,
        "policy": report.policy,
        "mix": report.request_mix,
    }
