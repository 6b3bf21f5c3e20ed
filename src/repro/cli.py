"""Command-line interface: ``python -m repro <command>``.

The paper's sixth benchmarking requirement is usability -- "easy to
deploy, configure, and run, and the performance data should be easy to
obtain" (Section 2).  This CLI is that surface:

    python -m repro list
    python -m repro run WordCount --scale 4 --stack spark
    python -m repro sweep Grep
    python -m repro table 4
    python -m repro figure 6 --jobs 4
    python -m repro roofline Sort K-means
    python -m repro trace Sort --scale 4 --format chrome --out sort.json
    python -m repro metrics Sort
    python -m repro chaos Grep --faults "task_crash:rate=0.3;node_kill:node=1"
    python -m repro store ls
    python -m repro export out/csv

Every harness-backed command accepts ``--no-artifacts`` to keep
generated inputs and serving streams out of the store and, except
``metrics`` (which always runs its workloads), ``--no-cache`` to keep
results out of it (see :mod:`repro.core.store`).  The commands that
characterize many points -- ``sweep``, ``figure``, ``roofline``,
``rank``, ``export`` -- accept ``--jobs N`` (0 = one worker per CPU)
to fan them across processes; a figure hands all its points to the
harness at once.  ``figure --machine`` picks the machine of Figures 2-4
and 6; Figure 5 always shows both the E5310 and the E5645, so
``--machine`` does not apply to it.

A name, stack or spec that does not resolve (an
:class:`~repro.errors.InputError`) exits 1 with its one-line message.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.cluster.node import resolve_cluster
from repro.core import registry
from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.runspec import RunSpec
from repro.core.workload import SCALE_FACTORS
from repro.errors import InputError, parse_number
from repro.streaming import AT_LEAST_ONCE, EXACTLY_ONCE, STREAM_MODES
from repro.uarch.hierarchy import MACHINES, XEON_E5645
from repro.workloads.streaming import StreamingWorkload


def _machine(name: str):
    for machine in MACHINES.values():
        if name.lower() in machine.name.lower():
            return machine
    known = ", ".join(MACHINES)
    raise SystemExit(f"unknown machine {name!r}; known: {known}")


#: Options more than one command takes, declared once: flag -> argparse
#: keywords.  A row of ``COMMANDS`` names the flags its command takes; a
#: ``(flag, overrides)`` entry there changes a default or help for that
#: command only.
OPTIONS = {
    "--scale": dict(type=int, default=1),
    "--stack": dict(default=None),
    "--seed": dict(type=int, default=0),
    "--machine": dict(default="E5645"),
    "--faults": dict(default=None, metavar="SPEC"),
    "--no-recovery": dict(action="store_true"),
    "--checkpoint-interval": dict(type=int, metavar="N"),
    "--jobs": dict(aliases=("-j",), type=int, default=1, metavar="N",
                   help="worker processes for independent points "
                        "(0 = one per CPU; default 1 = serial)"),
    "--no-cache": dict(action="store_true",
                       help="do not read or write results in the store"),
    "--no-artifacts": dict(action="store_true",
                           help="do not read or write inputs or serving "
                                "streams in the store"),
    "--cluster": dict(default=None, metavar="NAME",
                      help="cluster preset to model (see 'repro cluster "
                           "ls'; default: the paper's 14-node testbed)"),
    "--profile": dict(default=None, metavar="SPEC",
                      help="serving load profile for online-service "
                           "workloads: 'constant', 'diurnal', 'flash', "
                           "'sessions', with optional params like "
                           "'flash:rps=3200:peak=8' (default: constant at "
                           "the workload's swept rate)"),
    "--policy": dict(default=None, metavar="P",
                     help="serving recovery policy: none, shed, hedge, "
                          "retry, 'shed+hedge', or all (default: none)"),
}

#: How a command's harness is built: artifact bypass, the cluster preset
#: and the serving options.  Every harness-backed command but ``metrics``
#: can also bypass the result cache (``CACHED``); those that run many
#: points through ``run_many`` can also fan them out (``FANOUT``).
HARNESS = ("--no-artifacts", "--cluster", "--profile", "--policy")
CACHED = ("--no-cache", *HARNESS)
FANOUT = ("--jobs", *CACHED)

#: One characterization point: scale, stack and machine.
POINT = ("--scale", "--stack", "--machine")


def _harness(args, machine=None) -> Harness:
    """Build a harness honoring the ``FANOUT`` flags the command takes: a
    command without ``--jobs`` runs serially, one without ``--no-cache``
    has no result cache."""
    from repro.core.parallel import default_jobs

    jobs = getattr(args, "jobs", 1) or default_jobs()
    artifacts = False if args.no_artifacts else None
    kwargs = {}
    if args.cluster is not None:
        kwargs["cluster"] = resolve_cluster(args.cluster)
    serving = _serving_options(args)
    if serving is not None:
        kwargs["serving"] = serving
    return Harness(machine=machine or XEON_E5645, jobs=jobs,
                   cache=not getattr(args, "no_cache", True),
                   artifacts=artifacts, **kwargs)


def _serving_options(args):
    """ServingOptions from --profile/--policy, or None when unset."""
    if args.profile is None and args.policy is None:
        return None
    from repro.serving import LoadProfile, ServingOptions

    return ServingOptions(
        profile=LoadProfile.parse(args.profile or "constant"),
        policy=args.policy or "none")


def cmd_list(args) -> None:
    for names, column, title in (
            (registry.workload_names(), "Stacks",
             "BigDataBench workloads (Table 4)"),
            (registry.streaming_names(), "Modes",
             "Streaming extensions (repro stream)"),
            (registry.scenario_names(), "Backends",
             "Multi-backend scenarios (repro scenario)")):
        rows = [[info.workload_id, info.name, info.app_type, info.metric,
                 ", ".join(info.stacks)] for info in map(registry.info, names)]
        print(render_table(["#", "Workload", "Type", "Metric", column], rows,
                           title=title))


def cmd_run(args) -> None:
    harness = _harness(args, machine=_machine(args.machine))
    outcome = harness.run(RunSpec(workload=args.workload, scale=args.scale,
                                  stack=args.stack))
    events = outcome.events
    rows = [
        ["metric", f"{outcome.result.metric_name} = "
                   f"{outcome.result.metric_value:.4g}"],
        ["stack", outcome.stack],
        ["instructions", f"{events.instructions:.4g}"],
        ["L1I / L2 / L3 MPKI",
         f"{events.l1i_mpki:.2f} / {events.l2_mpki:.2f} / {events.l3_mpki:.2f}"],
        ["ITLB / DTLB MPKI", f"{events.itlb_mpki:.3f} / {events.dtlb_mpki:.3f}"],
        ["int/FP ratio", f"{events.int_fp_ratio:.1f}"],
        ["FP / INT intensity",
         f"{events.fp_intensity:.5f} / {events.int_intensity:.4f}"],
        ["aggregate MIPS", f"{outcome.mips:.4g}"],
        ["modeled time", f"{outcome.modeled_seconds:.1f} s"],
    ]
    print(render_table(["Quantity", "Value"], rows,
                       title=f"{args.workload} @ {args.scale}x on {outcome.machine}"))
    for key, value in sorted(outcome.result.details.items()):
        print(f"  {key}: {value}")


def cmd_sweep(args) -> None:
    harness = _harness(args, machine=_machine(args.machine))
    rows = []
    for point in harness.run_many(
            [RunSpec(workload=args.workload, scale=scale, stack=args.stack)
             for scale in SCALE_FACTORS]):
        rows.append([
            f"{point.scale}x", f"{point.result.metric_value:.4g}",
            f"{point.mips:.4g}", point.events.l3_mpki,
        ])
    print(render_table(
        ["Scale", point.result.metric_name, "MIPS", "L3 MPKI"], rows,
        title=f"{args.workload}: Table 6 data sweep",
    ))


def cmd_trace(args) -> None:
    from repro.obs.export import (
        dump_json, render_trace, trace_to_chrome, trace_to_tree,
    )

    harness = _harness(args, machine=_machine(args.machine))
    outcome = harness.run(RunSpec(
        workload=args.workload, scale=args.scale, stack=args.stack,
        trace=True,
    ))
    metadata = {
        "workload": outcome.workload,
        "scale": outcome.scale,
        "stack": outcome.stack,
        "machine": outcome.machine,
        "metric": {outcome.result.metric_name: outcome.result.metric_value},
        "modeled_seconds": outcome.modeled_seconds,
    }
    if args.format == "tree":
        text = render_trace(outcome.trace)
    elif args.format == "json":
        text = dump_json(trace_to_tree(outcome.trace, metadata=metadata))
    else:
        text = dump_json(trace_to_chrome(outcome.trace, metadata=metadata))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(args.out)
    else:
        print(text)


def cmd_metrics(args) -> None:
    from repro.obs.metrics import METRICS, render_metrics

    harness = _harness(args, machine=_machine(args.machine))
    for name in args.workloads:
        harness.run(RunSpec(workload=name, scale=args.scale))
    print(render_metrics(METRICS))


def cmd_store(args) -> None:
    from repro.core import store as stores

    store = stores.Store(args.dir)
    mb = 1024 * 1024
    if args.action == "path":
        print(store.root)
        return
    if args.action == "gc":
        cap = (stores.CAP_BYTES if args.cap_mb is None
               else int(args.cap_mb * mb))
        removed = store.gc(cap_bytes=cap)
        for entry in removed:
            print(f"evicted {entry.kind} {entry.key} "
                  f"({entry.nbytes / mb:.1f} MB)")
        print(f"{len(removed)} evicted; {store.total_bytes() / mb:.1f} MB "
              f"of {cap / mb:.0f} MB in use")
        return
    # ls (default): one row per entry, stale fingerprints marked; a
    # result key (machine and cluster reprs) is cut to one screen column.
    entries = store.entries()
    rows = [[entry.kind, entry.key if len(entry.key) <= 60
             else entry.key[:57] + "...", entry.codec,
             f"{entry.nbytes / mb:.2f}", "stale" if entry.stale else "live"]
            for entry in entries]
    total = sum(entry.nbytes for entry in entries)
    print(render_table(["Kind", "Key", "Codec", "MB", "Fingerprint"], rows,
                       title=f"store at {store.root}"))
    print(f"  total: {total / mb:.1f} MB (cap {stores.CAP_BYTES / mb:.0f} MB)")


def _against_clean(args, base: dict, plan, rows, title: str,
                   tolerated=None) -> None:
    """Run ``base`` fault-free and, given a plan, under it; print the
    table ``rows(clean, shown)`` of the run shown (the faulted one, if
    any) with the plan and the runtime overhead, then compare the
    outputs.  ``tolerated(shown)`` is printed instead of a divergence
    that is the run's contract.  Any other divergence under recovery
    violates the chaos layer's core invariant and exits 1, so CI
    catches it."""
    from repro.faults import diff_outputs

    harness = _harness(args, machine=_machine(args.machine))
    clean = harness.run(RunSpec(**base))
    shown = (clean if plan is None
             else harness.run(RunSpec(**base, faults=plan)))
    table = rows(clean, shown)
    if plan is not None:
        ratio = (shown.modeled_seconds / clean.modeled_seconds
                 if clean.modeled_seconds else 1.0)
        table = [["fault plan", str(plan)], *table,
                 ["runtime overhead", f"{(ratio - 1.0) * 100:+.1f}%"]]
    print(render_table(["Quantity", "Value"], table,
                       title=f"{title} @ {args.scale}x ({shown.stack})"))
    if plan is None:
        return
    diffs = diff_outputs(clean, shown)
    if not diffs:
        print("  output: IDENTICAL to the fault-free run")
    elif tolerated is not None:
        print(tolerated(shown))
    else:
        print("  output: DIVERGED from the fault-free run")
        for diff in diffs:
            print(f"    {diff}")
        if plan.recovery:
            raise SystemExit(1)


def cmd_chaos(args) -> None:
    from repro.faults import DEFAULT_CHAOS_SPEC, FaultPlan

    plan = FaultPlan.parse(
        args.faults if args.faults is not None else DEFAULT_CHAOS_SPEC,
        recovery=not args.no_recovery,
        checkpoint_interval=args.checkpoint_interval,
    )

    def rows(clean, chaos) -> list:
        counts = Counter((event.phase, event.kind)
                         for event in chaos.fault_events or ())

        def fmt(phase: str) -> str:
            return ", ".join(f"{kind} x{n}" for (of, kind), n
                             in sorted(counts.items()) if of == phase) or "-"

        return [
            ["faults injected", fmt("fault")],
            ["recovery actions", fmt("recovery")],
            ["work lost", fmt("lost")],
            ["modeled time (clean)", f"{clean.modeled_seconds:.1f} s"],
            ["modeled time (chaos)", f"{chaos.modeled_seconds:.1f} s"],
        ]

    base = dict(workload=args.workload, scale=args.scale, stack=args.stack,
                seed=args.seed)
    _against_clean(args, base, plan, rows, f"chaos: {args.workload}")


#: Short names for the streaming workloads (full names work too).
STREAM_ALIASES = {
    "wordcount": "Streaming WordCount",
    "grep": "Streaming Grep",
    "sessions": "Streaming Sessions",
}


def cmd_stream(args) -> None:
    from repro.faults import FaultPlan

    name = STREAM_ALIASES.get(args.workload.lower(), args.workload)
    if name not in registry.STREAMING_CLASSES:
        known = ", ".join(sorted(STREAM_ALIASES))
        raise SystemExit(f"unknown streaming workload {args.workload!r}; "
                         f"known: {known} (or a full streaming "
                         "workload name)")
    plan = None
    if args.faults is not None:
        plan = FaultPlan.parse(args.faults,
                               recovery=not args.no_recovery,
                               checkpoint_interval=args.checkpoint_interval)
    elif args.checkpoint_interval != StreamingWorkload.checkpoint_interval:
        # Cadence without faults: a valid rule-free plan -- checkpoints
        # configured, nothing armed.
        plan = FaultPlan(rules=(),
                         checkpoint_interval=args.checkpoint_interval)

    def rows(clean, shown) -> list:
        details = shown.result.details
        return [
            ["mode", shown.result.stack],
            ["windows committed", str(details["windows"])],
            ["events in windows", f"{details['events']} "
                                  f"(expected {details['expected_events']})"],
            ["duplicate windows", str(details["duplicate_windows"])],
            ["output digest", details["digest"]],
            ["checkpoints / restores",
             f"{details['checkpoints']} / {details['restores']}"],
            ["replayed batches", str(details["replayed_batches"])],
            ["throttled batches (backpressure)",
             f"{details['throttled_batches']} "
             f"({details['backpressure_stalls']} stalls)"],
            ["watermark lag", f"{details['watermark_lag_s']:.2f} s"],
            ["modeled time", f"{shown.modeled_seconds:.1f} s"],
            ["metric", f"{shown.result.metric_name} = "
                       f"{shown.result.metric_value:.4g}"],
        ]

    def tolerated(shown) -> str:
        # Duplicates under replay are this mode's contract, not a bug.
        return (f"  output: {shown.result.details['duplicate_windows']} "
                "duplicate window(s) vs the fault-free run (at-least-once "
                "replay)")

    base = dict(workload=name, scale=args.scale, stack=args.mode,
                seed=args.seed)
    _against_clean(args, base, plan, rows, f"stream: {name}",
                   tolerated if args.mode == AT_LEAST_ONCE else None)


#: Short names for the three online services (full workload names work
#: too -- anything the registry resolves whose payload is a Server).
SERVE_ALIASES = {
    "nutch": "Nutch Server",
    "olio": "Olio Server",
    "rubis": "Rubis Server",
}


def cmd_serve(args) -> None:
    from dataclasses import replace

    from repro.serving import (
        AUTOSCALE_NODES, LoadProfile, ServingRun, autoscale_sweep,
        measure_demand, run_serving,
    )
    from repro.uarch.perfctx import PerfContext

    name = SERVE_ALIASES.get(args.server.lower(), args.server)
    harness = _harness(args, machine=_machine(args.machine))
    prepared = harness.prepare(name, args.scale, seed=args.seed)
    server = prepared.payload
    if not hasattr(server, "handle"):
        raise SystemExit(f"{name!r} is not an online service")

    profile = LoadProfile.parse(args.profile or "constant")
    if args.rps is not None:
        profile = replace(profile, rps=args.rps)
    if args.duration is not None:
        profile = replace(profile, duration=args.duration)
    profile = profile.with_rate(prepared.details["rate_rps"])
    cluster = (resolve_cluster(args.cluster) if args.cluster is not None
               else None)
    spec = ServingRun(
        server=server, profile=profile, policy=args.policy or "none",
        seed=args.seed, sample_requests=args.sample, slo_seconds=args.slo,
        **({"cluster": cluster} if cluster is not None else {}))

    ctx = PerfContext(harness.machine, seed=args.seed)
    if args.autoscale:
        lo, _, hi = args.autoscale.partition(":")
        lo = parse_number(int, lo, "LO", args.autoscale)
        hi = parse_number(int, hi or "1000", "HI", args.autoscale)
        counts = sorted({n for n in AUTOSCALE_NODES if lo <= n <= hi}
                        | {lo, hi})
        demand = measure_demand(server, spec.cluster, ctx,
                                sample_requests=args.sample, seed=args.seed)
        rows = []
        for nodes, rep in autoscale_sweep(spec, counts, ctx=ctx,
                                          demand=demand):
            rows.append([
                nodes, f"{rep.offered_rps:.0f}", f"{rep.achieved_rps:.0f}",
                f"{rep.goodput_rps:.0f}", f"{rep.p50_latency * 1e3:.2f}",
                f"{rep.p99_latency * 1e3:.2f}",
                f"{rep.p999_latency * 1e3:.2f}",
                f"{rep.utilization:.0%}", f"{rep.shed_fraction:.1%}",
            ])
        print(render_table(
            ["Nodes", "Offered", "RPS", "Goodput", "p50 ms", "p99 ms",
             "p999 ms", "Util", "Shed"], rows,
            title=f"{name}: autoscale sweep, {profile} @ {spec.policy}"))
        return

    report = run_serving(spec, ctx=ctx)
    rows = [
        ["profile", report.profile],
        ["policy", report.policy],
        ["requests", f"{report.requests} issued, {report.completed} "
                     f"completed over {report.duration:.2f} s"],
        ["offered / achieved", f"{report.offered_rps:.1f} / "
                               f"{report.achieved_rps:.1f} req/s"],
        ["goodput (SLO {:.0f} ms)".format(report.slo_seconds * 1e3),
         f"{report.goodput_rps:.1f} req/s "
         f"({report.slo_attainment:.1%} within SLO)"],
        ["latency p50 / p99 / p999",
         f"{report.p50_latency * 1e3:.2f} / {report.p99_latency * 1e3:.2f} "
         f"/ {report.p999_latency * 1e3:.2f} ms"],
        ["latency mean / max", f"{report.mean_latency * 1e3:.2f} / "
                               f"{report.max_latency * 1e3:.2f} ms"],
        ["shed / hedged / retried / failed",
         f"{report.shed_fraction:.1%} / {report.hedged_fraction:.1%} / "
         f"{report.retried_fraction:.1%} / {report.failed_fraction:.1%}"],
        ["cpu utilization", f"{report.utilization:.1%} of "
                            f"{spec.cluster.total_cores} cores"],
        ["analytic baseline (mm_c)",
         f"mean {report.queueing.mean_latency * 1e3:.2f} ms "
         f"(replay/analytic ratio {report.analytic_ratio():.2f})"],
        ["request mix", ", ".join(f"{k} x{v}"
                                  for k, v in sorted(report.request_mix.items()))],
    ]
    print(render_table(
        ["Quantity", "Value"], rows,
        title=f"serve {name} on {spec.cluster.total_nodes} node(s)"))


def cmd_scenario(args) -> None:
    from repro.cluster.timemodel import TimeModel
    from repro.core.workload import DATA_SCALE
    from repro.faults import FaultPlan
    from repro.faults.inject import FaultInjector
    from repro.scenarios import BACKEND_NAMES, Knobs
    from repro.scenarios.driver import run_scenario
    from repro.uarch.perfctx import PerfContext

    knobs = Knobs.parse(args.knobs) if args.knobs else Knobs()
    cluster = resolve_cluster(args.cluster or "paper")
    machine = _machine(args.machine)
    backends = list(BACKEND_NAMES) if args.compare else [args.backend]
    model = TimeModel(cluster, data_scale=DATA_SCALE)

    def one(backend: str):
        ctx = PerfContext(machine, seed=args.seed)
        faults = None
        if args.faults is not None:
            plan = FaultPlan.parse(args.faults,
                                   recovery=not args.no_recovery)
            faults = FaultInjector(plan, seed=args.seed)
        return run_scenario(args.name, backend=backend, knobs=knobs,
                            ctx=ctx, cluster=cluster, seed=args.seed,
                            scale=args.scale, faults=faults)

    results = [one(backend) for backend in backends]

    if args.compare:
        rows = []
        for r in results:
            seconds = model.job_time(r.cost)
            cpu = sum(p.cpu_seconds for p in r.cost.phases)
            disk = sum(p.disk_read_bytes + p.disk_write_bytes
                       for p in r.cost.phases)
            rows.append([
                r.backend, r.ops,
                f"{r.ops / seconds:.0f}" if seconds else "-",
                f"{seconds:.1f}", f"{cpu:.1f}", f"{disk / 1e6:.2f}",
                f"{seconds / r.ops * 1e3:.2f}" if r.ops else "-",
                r.digest[:12],
            ])
        print(render_table(
            ["Backend", "Ops", "Ops/s", "Modeled s", "CPU s", "Disk MB",
             "ms/op", "Digest"], rows,
            title=f"scenario {args.name} @ {args.scale}x "
                  f"(knobs: {knobs}, seed {args.seed})"))
        digests = {r.digest for r in results}
        if len(digests) == 1:
            print("  answers: IDENTICAL across backends")
        else:
            print("  answers: DIVERGED across backends")
            for r in results:
                print(f"    {r.backend}: {r.digest}")
            raise SystemExit(1)
        return

    r = results[0]
    seconds = model.job_time(r.cost)
    counts = r.counts
    rows = [
        ["backend / knobs", f"{r.backend} / {r.knobs}"],
        ["ops", f"{r.ops} ({counts['reads']} reads, "
                f"{counts['writes']} writes, {counts['deletes']} deletes, "
                f"{counts['scans']} scans)"],
        ["transactions", f"{counts['begins']} "
                         f"({counts['commits']} committed, "
                         f"{counts['rollbacks']} rolled back)"],
        ["read hits / scan rows",
         f"{counts['read_hits']} / {counts['scan_rows']}"],
        ["records", str(r.records)],
        ["output digest", r.digest],
        ["modeled time", f"{seconds:.1f} s "
                         f"({r.ops / seconds:.0f} ops/s)" if seconds
         else "-"],
    ]
    if args.faults is not None:
        rows.append(["op retries / ops lost",
                     f"{r.op_retries} / {r.ops_lost}"])
    if r.work:
        rows.append(["backend work",
                     ", ".join(f"{k}={v}" for k, v in sorted(r.work.items())
                               if not isinstance(v, float))])
    print(render_table(
        ["Quantity", "Value"], rows,
        title=f"scenario {args.name} @ {args.scale}x ({r.backend})"))


def cmd_cluster(args) -> None:
    from repro.cluster.node import CLUSTERS, GB

    if args.action == "show":
        names = [args.name] if args.name else sorted(CLUSTERS)
        for name in names:
            spec = resolve_cluster(name)
            if args.nodes:
                spec = spec.scaled(args.nodes)
            rows = []
            # Identical consecutive nodes collapse into one row, so a
            # 1000-node rack prints one line, not a thousand.
            for first, last, node in _node_groups(spec):
                label = str(first) if first == last else f"{first}-{last}"
                rows.append([
                    label, node.machine.name, node.cores,
                    f"{node.machine.freq_hz / 1e9:.2f}",
                    f"{node.memory_bytes / GB:.0f}",
                    f"{node.disk.seq_bandwidth / (1 << 20):.0f}",
                    f"{node.nic.bandwidth / (1 << 20):.0f}",
                ])
            kind = "heterogeneous" if spec.is_heterogeneous else "homogeneous"
            print(render_table(
                ["Node", "Machine", "Cores", "GHz", "RAM GB",
                 "Disk MB/s", "NIC MB/s"], rows,
                title=f"cluster {name!r}: {spec.total_nodes} nodes ({kind})"))
            _show_replay(spec)
        return
    # ls (default): one row per preset.
    rows = []
    for name in sorted(CLUSTERS):
        spec = CLUSTERS[name]
        machines = ", ".join(sorted({n.machine.name for n in spec.nodes}))
        rows.append([
            name, spec.total_nodes, spec.total_cores,
            f"{spec.total_memory_bytes / GB:.0f}",
            machines,
            "yes" if spec.is_heterogeneous else "no",
        ])
    print(render_table(
        ["Preset", "Nodes", "Cores", "RAM GB", "Machines", "Mixed"], rows,
        title="cluster presets (--cluster NAME)"))


def _node_groups(spec):
    """Runs of consecutive identical nodes as (first, last, node)."""
    groups = []
    for index, node in enumerate(spec.nodes):
        if groups and groups[-1][2] == node:
            groups[-1][1] = index
        else:
            groups.append([index, index, node])
    return [tuple(g) for g in groups]


def _show_replay(spec) -> None:
    """Event-replay utilization table for a sample MapReduce-shaped cost
    sized to the cluster (the ``repro cluster show`` footer)."""
    from repro.cluster.sim import ClusterSim, sample_job

    result = ClusterSim(spec).run(sample_job(spec))
    rows = []
    for phase in result.phases:
        rows.append([
            phase.name, f"{phase.start:.1f}", f"{phase.end:.1f}",
            f"{phase.seconds:.1f}", phase.tasks, phase.straggled,
            phase.remote_tasks,
            f"{phase.spill_bytes / (1 << 30):.1f}",
        ])
    print(render_table(
        ["Phase", "Start s", "End s", "Seconds", "Tasks", "Straggled",
         "Remote", "Spill GB"], rows,
        title=f"event replay of a sample job: {result.seconds:.1f} s "
              f"makespan"))
    count = len(result.nodes)
    for label, values in (
            ("cpu", [u.cpu_utilization for u in result.nodes]),
            ("disk", [u.disk_utilization for u in result.nodes]),
            ("net", [u.net_utilization for u in result.nodes])):
        mean = sum(values) / count
        print(f"  {label:>4} util: mean {mean:5.1%}  "
              f"min {min(values):5.1%}  max {max(values):5.1%}  "
              f"({count} nodes)")


def cmd_table(args) -> None:
    from repro.analysis import render_paper_table

    print(render_paper_table(f"Table {args.number}"))


def cmd_figure(args) -> None:
    from repro.analysis import FIGURES, build_figures

    if args.number not in FIGURES:
        raise SystemExit(f"unknown figure {args.number!r} "
                         f"({', '.join(FIGURES)})")
    harness = _harness(args, machine=_machine(args.machine))
    print("\n\n".join(figure.render() for figure in
                       build_figures(harness, [args.number]).values()))


def cmd_roofline(args) -> None:
    from repro.analysis.roofline import render_roofline, roofline_points

    names = args.workloads or registry.workload_names()
    print(render_roofline(roofline_points(_harness(args), names)))


def cmd_rank(args) -> None:
    from repro.analysis.ranking import render_ranking, score_configurations

    multi = ["Sort", "Grep", "WordCount", "PageRank", "K-means",
             "Connected Components"]
    print(render_ranking(score_configurations(
        _harness(args), {f"analytics on {stack}": dict.fromkeys(multi, stack)
                         for stack in ("hadoop", "spark", "mpi")},
        names=multi)))


def cmd_export(args) -> None:
    from repro.analysis import export_all

    for path in export_all(_harness(args), args.directory,
                           include_sweeps=args.sweeps):
        print(path)


#: One row per command: name, help, handler, and its arguments.  An
#: argument is a name (``OPTIONS`` supplies its keywords, if any) or a
#: ``(name, keywords)`` pair; keywords given here override ``OPTIONS``.
COMMANDS = (
    ("list", "list the 19 workloads", cmd_list, ()),
    ("run", "characterize one workload", cmd_run,
     ("workload", *POINT, *CACHED)),
    ("sweep", "run the Table 6 data sweep", cmd_sweep,
     ("workload", "--stack", "--machine", *FANOUT)),
    ("trace", "characterize with span tracing and print the phase "
              "breakdown", cmd_trace,
     ("workload", *POINT,
      ("--format", dict(choices=("tree", "json", "chrome"), default="tree",
                        help="tree = ASCII phase tree (default); json = "
                             "span tree; chrome = chrome://tracing "
                             "events")),
      ("--out", dict(default=None, metavar="FILE",
                     help="write to FILE instead of stdout")),
      *CACHED)),
    ("metrics", "run workloads and dump the process metrics registry",
     cmd_metrics,
     (("workloads", dict(nargs="*",
                         help="workloads to run before dumping (never "
                              "from the result cache)")),
      "--scale", "--machine", *HARNESS)),
    ("store", "inspect the store of results, BDGS inputs and serving "
              "streams", cmd_store,
     (("action", dict(nargs="?", default="ls", choices=["ls", "gc", "path"],
                      help="ls = list entries; gc = evict LRU entries "
                           "over the cap; path = print the root")),
      ("--dir", dict(default=None, metavar="DIR",
                     help="store root (default: $REPRO_CACHE_DIR, else "
                          "~/.cache/repro-bigdatabench)")),
      ("--cap-mb", dict(type=float, default=None,
                        help="gc: evict down to this many megabytes")))),
    ("chaos", "run a workload under a deterministic fault plan and "
              "compare against the fault-free run", cmd_chaos,
     ("workload",
      ("--faults", dict(help="fault spec like 'task_crash:rate=0.3;"
                             "node_kill:node=1' (default: the full chaos "
                             "battery)")),
      ("--no-recovery", dict(help="disable the recovery machinery (faults "
                                  "destroy work instead of being "
                                  "repaired)")),
      ("--checkpoint-interval", dict(default=2,
                                     help="BSP checkpoint every N "
                                          "supersteps (default 2)")),
      *POINT, "--seed", *CACHED)),
    ("stream", "run a streaming workload through the checkpoint-barrier "
               "dataflow engine, optionally under a fault plan", cmd_stream,
     (("workload", dict(help="wordcount, grep, sessions, or a full "
                             "streaming workload name")),
      ("--mode", dict(choices=list(STREAM_MODES), default=EXACTLY_ONCE,
                      help="sink replay mode (default exactly-once)")),
      ("--faults", dict(help="fault spec like 'operator_crash:rate=0.1;"
                             "channel_drop:rate=0.3' (default: no "
                             "faults)")),
      ("--no-recovery", dict(help="disable restore-from-barrier recovery "
                                  "(faults destroy state instead)")),
      ("--checkpoint-interval",
       dict(default=StreamingWorkload.checkpoint_interval,
            help="emit a checkpoint barrier every N source batches "
                 "(default %(default)s)")),
      "--scale", "--seed", "--machine", *CACHED)),
    ("serve", "drive an online service with a load profile and report the "
              "tail-latency SLO study", cmd_serve,
     (("server", dict(help="nutch, olio, rubis, or a full online-service "
                           "workload name")),
      ("--rps", dict(type=float, default=None,
                     help="mean request rate (default: the workload's "
                          "swept rate at --scale)")),
      ("--duration", dict(type=float, default=None,
                          help="simulated seconds of traffic (default 20)")),
      ("--scale", dict(help="workload scale for the default rate "
                            "(rate = 100 x scale req/s)")),
      "--seed",
      ("--slo", dict(type=float, default=0.5, metavar="SECONDS",
                     help="latency SLO bound for goodput (default 0.5 s)")),
      ("--sample", dict(type=int, default=500, metavar="N",
                        help="requests sampled to measure service demand")),
      ("--autoscale", dict(default=None, metavar="LO:HI",
                           help="sweep cluster size LO..HI nodes (e.g. "
                                "10:1000) instead of a single run")),
      "--machine", *CACHED)),
    ("scenario", "run one logical scenario (YCSB mixes, orders, feed, iot) "
                 "against a storage backend through the unified protocol",
     cmd_scenario,
     (("name", dict(help="scenario name (ycsb-a..ycsb-f, orders, feed, "
                         "iot)")),
      ("--backend", dict(default="lsm", choices=["lsm", "sql", "dict"],
                         help="storage backend (default lsm)")),
      ("--knobs", dict(default=None, metavar="SPEC",
                       help="consistency knobs, e.g. 'wal=off,"
                            "consistency=eventual,commit=write-behind'")),
      ("--compare", dict(action="store_true",
                         help="run all backends and print a per-backend "
                              "cost/latency table")),
      "--scale", "--seed", "--machine", "--cluster",
      ("--faults", dict(help="fault plan, e.g. 'task_crash:rate=0.2'")),
      ("--no-recovery", dict(help="inject faults without recovery (ops "
                                  "are lost; the answer diverges)")))),
    ("table", "regenerate a paper table (1-7)", cmd_table, ("number",)),
    ("figure", "regenerate a paper figure (2-6)", cmd_figure,
     ("number", "--machine", *FANOUT)),
    ("cluster", "inspect the cluster presets the time models run against",
     cmd_cluster,
     (("action", dict(nargs="?", default="ls", choices=["ls", "show"],
                      help="ls = list presets; show = per-node detail")),
      ("name", dict(nargs="?", default=None,
                    help="preset to show (default: all); a ':N' suffix "
                         "overrides the node count (e.g. paper:100)")),
      ("--nodes", dict(type=int, default=None, metavar="N",
                       help="rescale the preset to N rack nodes before "
                            "showing it")))),
    ("roofline", "roofline placement", cmd_roofline,
     (("workloads", dict(nargs="*")), *FANOUT)),
    ("rank", "rank stack configurations by suite score", cmd_rank, FANOUT),
    ("export", "dump tables/figures as CSV", cmd_export,
     ("directory",
      ("--sweeps", dict(action="store_true",
                        help="include the expensive Figure 2/3 sweeps")),
      *FANOUT)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BigDataBench reproduction: run workloads, regenerate "
                    "the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fn, arguments in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for argument in arguments:
            flag, overrides = ((argument, {}) if isinstance(argument, str)
                               else argument)
            keywords = {**OPTIONS.get(flag, {}), **overrides}
            command.add_argument(flag, *keywords.pop("aliases", ()),
                                 **keywords)
        command.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except InputError as exc:
        raise SystemExit(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
