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
    python -m repro metrics Sort --no-cache
    python -m repro chaos Grep --faults "task_crash:rate=0.3;node_kill:node=1"
    python -m repro artifacts ls
    python -m repro export out/csv

Every harness-backed command accepts ``--jobs N`` (0 = one worker per
CPU) to fan independent characterization points across processes,
``--no-cache`` to bypass the persistent on-disk result cache, and
``--no-artifacts`` to bypass the shared input artifact store.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import registry
from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.workload import SCALE_FACTORS
from repro.streaming import EXACTLY_ONCE, STREAM_MODES
from repro.uarch.hierarchy import MACHINES, XEON_E5645


def _machine(name: str):
    for machine in MACHINES.values():
        if name.lower() in machine.name.lower():
            return machine
    known = ", ".join(MACHINES)
    raise SystemExit(f"unknown machine {name!r}; known: {known}")


def _cluster(name):
    from repro.cluster.node import resolve_cluster

    try:
        return resolve_cluster(name)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _add_exec_options(sub) -> None:
    """The shared execution flags: process fan-out and cache bypass."""
    sub.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                     help="worker processes for independent points "
                          "(0 = one per CPU; default 1 = serial)")
    sub.add_argument("--no-cache", action="store_true",
                     help="do not read or write the persistent result cache")
    sub.add_argument("--no-artifacts", action="store_true",
                     help="do not read or write the shared input "
                          "artifact store (regenerate all inputs)")
    sub.add_argument("--cluster", default=None, metavar="NAME",
                     help="cluster preset to model (see 'repro cluster ls'; "
                          "default: the paper's 14-node testbed)")
    sub.add_argument("--profile", default=None, metavar="SPEC",
                     help="serving load profile for online-service "
                          "workloads: 'constant', 'diurnal', 'flash', "
                          "'sessions', with optional params like "
                          "'flash:rps=3200:peak=8' (default: constant at "
                          "the workload's swept rate)")
    sub.add_argument("--policy", default=None, metavar="P",
                     help="serving recovery policy: none, shed, hedge, "
                          "retry, 'shed+hedge', or all (default: none)")


def _harness(args, machine=None) -> Harness:
    """Build a harness honoring ``--jobs``/``--no-cache``/``--no-artifacts``."""
    from repro.core.parallel import default_jobs

    jobs = getattr(args, "jobs", 1)
    if jobs == 0:
        jobs = default_jobs()
    cache = not getattr(args, "no_cache", False)
    artifacts = False if getattr(args, "no_artifacts", False) else None
    kwargs = {}
    cluster = getattr(args, "cluster", None)
    if cluster is not None:
        kwargs["cluster"] = _cluster(cluster)
    serving = _serving_options(args)
    if serving is not None:
        kwargs["serving"] = serving
    return Harness(machine=machine or XEON_E5645, jobs=jobs, cache=cache,
                   artifacts=artifacts, **kwargs)


def _serving_options(args):
    """ServingOptions from --profile/--policy, or None when unset."""
    profile = getattr(args, "profile", None)
    policy = getattr(args, "policy", None)
    if profile is None and policy is None:
        return None
    from repro.serving import LoadProfile, ServingOptions

    try:
        return ServingOptions(
            profile=LoadProfile.parse(profile or "constant"),
            policy=policy or "none")
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_list(args) -> None:
    rows = []
    for name in registry.workload_names():
        info = registry.WORKLOAD_CLASSES[name].info
        rows.append([info.workload_id, info.name, info.app_type, info.metric,
                     ", ".join(info.stacks)])
    print(render_table(["#", "Workload", "Type", "Metric", "Stacks"], rows,
                       title="BigDataBench workloads (Table 4)"))
    rows = []
    for name in registry.streaming_names():
        info = registry.STREAMING_CLASSES[name].info
        rows.append([info.workload_id, info.name, info.app_type, info.metric,
                     ", ".join(info.stacks)])
    print(render_table(["#", "Workload", "Type", "Metric", "Modes"], rows,
                       title="Streaming extensions (repro stream)"))
    rows = []
    for name in registry.scenario_names():
        info = registry.SCENARIO_CLASSES[name].info
        rows.append([info.workload_id, info.name, info.app_type, info.metric,
                     ", ".join(info.stacks)])
    print(render_table(["#", "Workload", "Type", "Metric", "Backends"], rows,
                       title="Multi-backend scenarios (repro scenario)"))


def cmd_run(args) -> None:
    harness = _harness(args, machine=_machine(args.machine))
    outcome = harness.characterize(args.workload, scale=args.scale,
                                   stack=args.stack)
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
    for point in harness.sweep(args.workload, scales=SCALE_FACTORS,
                               stack=args.stack):
        rows.append([
            f"{point.scale}x", f"{point.result.metric_value:.4g}",
            f"{point.mips:.4g}", point.events.l3_mpki,
        ])
    print(render_table(
        ["Scale", point.result.metric_name, "MIPS", "L3 MPKI"], rows,
        title=f"{args.workload}: Table 6 data sweep",
    ))


def cmd_trace(args) -> None:
    from repro.core.runspec import RunSpec
    from repro.obs.export import (
        dump_json, render_trace, trace_to_chrome, trace_to_tree,
    )

    harness = _harness(args, machine=_machine(args.machine))
    outcome = harness.run(RunSpec(
        workload=args.workload, scale=args.scale, stack=args.stack,
        trace=True,
    ))
    if outcome.trace is None:
        raise SystemExit(
            f"no trace recorded for {args.workload!r}; the cached result "
            "predates tracing -- rerun with --no-cache")
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
    elif args.format == "chrome":
        text = dump_json(trace_to_chrome(outcome.trace, metadata=metadata))
    else:
        raise SystemExit(f"unknown format {args.format!r} (tree, json, chrome)")
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
        harness.characterize(name, scale=args.scale)
    print(render_metrics(METRICS))


def cmd_artifacts(args) -> None:
    from repro.core import artifacts as art

    store = art.ArtifactStore(root=args.dir) if args.dir else art.ArtifactStore()
    if args.action == "path":
        print(store.directory)
        return
    if args.action == "gc":
        cap = (int(args.cap_mb * 1024 * 1024) if args.cap_mb is not None
               else store.cap_bytes)
        removed = store.gc(cap_bytes=cap)
        for entry in removed:
            print(f"evicted {entry.key} ({entry.nbytes / 1024 / 1024:.1f} MB)")
        print(f"{len(removed)} evicted; "
              f"{store.total_bytes() / 1024 / 1024:.1f} MB "
              f"of {cap / 1024 / 1024:.0f} MB in use")
        return
    # ls (default): one row per stored artifact, stale fingerprints marked.
    entries = store.entries()
    rows = [[entry.key, entry.codec,
             f"{entry.nbytes / 1024 / 1024:.2f}",
             "stale" if entry.stale else "live"]
            for entry in entries]
    total = sum(entry.nbytes for entry in entries)
    print(render_table(["Key", "Codec", "MB", "Fingerprint"], rows,
                       title=f"artifacts at {store.root}"))
    print(f"  total: {total / 1024 / 1024:.1f} MB "
          f"(cap {store.cap_bytes / 1024 / 1024:.0f} MB)")


def cmd_chaos(args) -> None:
    from repro.core.runspec import RunSpec
    from repro.faults import DEFAULT_CHAOS_SPEC, FaultPlan, diff_outputs

    plan = FaultPlan.parse(
        args.faults if args.faults is not None else DEFAULT_CHAOS_SPEC,
        recovery=not args.no_recovery,
        checkpoint_interval=args.checkpoint_interval,
    )
    harness = _harness(args, machine=_machine(args.machine))
    base = dict(workload=args.workload, scale=args.scale, stack=args.stack,
                seed=args.seed)
    clean = harness.run(RunSpec(**base))
    chaos = harness.run(RunSpec(**base, faults=plan))

    events = chaos.fault_events or ()
    counts = {"fault": {}, "recovery": {}, "lost": {}}
    for event in events:
        bucket = counts[event.phase]
        bucket[event.kind] = bucket.get(event.kind, 0) + 1

    def fmt(bucket: dict) -> str:
        if not bucket:
            return "-"
        return ", ".join(f"{k} x{v}" for k, v in sorted(bucket.items()))

    overhead = (chaos.modeled_seconds / clean.modeled_seconds - 1.0) * 100 \
        if clean.modeled_seconds else 0.0
    rows = [
        ["fault plan", str(plan)],
        ["faults injected", fmt(counts["fault"])],
        ["recovery actions", fmt(counts["recovery"])],
        ["work lost", fmt(counts["lost"])],
        ["modeled time (clean)", f"{clean.modeled_seconds:.1f} s"],
        ["modeled time (chaos)", f"{chaos.modeled_seconds:.1f} s"],
        ["runtime overhead", f"{overhead:+.1f}%"],
    ]
    print(render_table(
        ["Quantity", "Value"], rows,
        title=f"chaos: {args.workload} @ {args.scale}x ({chaos.stack})"))

    diffs = diff_outputs(clean, chaos)
    if not diffs:
        print("  output: IDENTICAL to the fault-free run")
    else:
        print("  output: DIVERGED from the fault-free run")
        for diff in diffs:
            print(f"    {diff}")
        if plan.recovery:
            # With recovery on, divergence violates the chaos layer's
            # core invariant -- fail so CI catches it.
            raise SystemExit(1)


#: Short names for the streaming workloads (full names work too).
STREAM_ALIASES = {
    "wordcount": "Streaming WordCount",
    "grep": "Streaming Grep",
    "sessions": "Streaming Sessions",
}


def cmd_stream(args) -> None:
    from repro.core.runspec import RunSpec
    from repro.faults import FaultPlan, diff_outputs

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
    elif args.checkpoint_interval != 8:
        # Cadence without faults: a valid rule-free plan -- checkpoints
        # configured, nothing armed.
        plan = FaultPlan(rules=(),
                         checkpoint_interval=args.checkpoint_interval)

    harness = _harness(args, machine=_machine(args.machine))
    base = dict(workload=name, scale=args.scale, stack=args.mode,
                seed=args.seed)
    clean = harness.run(RunSpec(**base))
    chaos = harness.run(RunSpec(**base, faults=plan)) if plan is not None \
        else None

    shown = chaos if chaos is not None else clean
    details = shown.result.details
    rows = [
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
    if plan is not None:
        rows.insert(0, ["fault plan", str(plan)])
        overhead = (shown.modeled_seconds / clean.modeled_seconds - 1.0) \
            * 100 if clean.modeled_seconds else 0.0
        rows.append(["runtime overhead", f"{overhead:+.1f}%"])
    print(render_table(
        ["Quantity", "Value"], rows,
        title=f"stream: {name} @ {args.scale}x ({shown.result.stack})"))

    if chaos is None or not plan.rules:
        return
    diffs = diff_outputs(clean, chaos)
    if not diffs:
        print("  output: IDENTICAL to the fault-free run")
    elif shown.result.stack == "at-least-once":
        # Duplicates under replay are this mode's contract, not a bug.
        print(f"  output: {details['duplicate_windows']} duplicate "
              "window(s) vs the fault-free run (at-least-once replay)")
    else:
        print("  output: DIVERGED from the fault-free run")
        for diff in diffs:
            print(f"    {diff}")
        if plan.recovery:
            # Exactly-once with recovery must be bit-identical -- fail
            # so CI catches an invariant violation.
            raise SystemExit(1)


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
    try:
        prepared = harness._prepared(name, args.scale, seed=args.seed)
    except KeyError:
        known = ", ".join(sorted(SERVE_ALIASES))
        raise SystemExit(f"unknown server {args.server!r}; known: {known} "
                         "(or a full online-service workload name)")
    server = prepared.payload
    if not hasattr(server, "handle"):
        raise SystemExit(f"{name!r} is not an online service")

    try:
        profile = LoadProfile.parse(args.profile or "constant")
        if args.rps is not None:
            profile = replace(profile, rps=float(args.rps))
        if args.duration is not None:
            profile = replace(profile, duration=float(args.duration))
        profile = profile.with_rate(prepared.details["rate_rps"])
        cluster = (_cluster(args.cluster) if args.cluster is not None
                   else None)
        spec = ServingRun(
            server=server, profile=profile, policy=args.policy or "none",
            seed=args.seed, sample_requests=args.sample,
            slo_seconds=args.slo,
            **({"cluster": cluster} if cluster is not None else {}))
    except ValueError as exc:
        raise SystemExit(str(exc))

    ctx = PerfContext(harness.machine, seed=args.seed)
    if args.autoscale:
        lo, _, hi = args.autoscale.partition(":")
        try:
            lo, hi = int(lo), int(hi or 1000)
        except ValueError:
            raise SystemExit(f"bad --autoscale {args.autoscale!r}; "
                             "expected LO:HI node counts (e.g. 10:1000)")
        counts = [n for n in AUTOSCALE_NODES if lo <= n <= hi]
        for bound in (lo, hi):
            if bound not in counts:
                counts.append(bound)
        counts.sort()
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
    from repro.scenarios import BACKEND_NAMES, SCENARIO_NAMES, Knobs
    from repro.scenarios.driver import run_scenario
    from repro.uarch.perfctx import PerfContext

    if args.name not in SCENARIO_NAMES:
        known = ", ".join(SCENARIO_NAMES)
        raise SystemExit(f"unknown scenario {args.name!r}; known: {known}")
    try:
        knobs = Knobs.parse(args.knobs) if args.knobs else Knobs()
    except ValueError as exc:
        raise SystemExit(str(exc))
    cluster = _cluster(args.cluster) if args.cluster is not None else None
    if cluster is None:
        from repro.cluster.node import PAPER_CLUSTER
        cluster = PAPER_CLUSTER
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
        try:
            return run_scenario(args.name, backend=backend, knobs=knobs,
                                ctx=ctx, cluster=cluster, seed=args.seed,
                                scale=args.scale, faults=faults)
        except ValueError as exc:
            raise SystemExit(str(exc))

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
            spec = _cluster(name)
            if getattr(args, "nodes", None):
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


def _prewarm_figure(harness: Harness, number: str) -> None:
    """Batch every point a figure needs through ``characterize_many`` so
    ``--jobs`` fans the whole figure out at once (the generators then hit
    the memo point by point)."""
    names = registry.workload_names()
    if number == "2":
        harness.characterize_many(
            [(n, s, None) for n in names for s in (1, 32)])
    elif number in ("3", "3-1", "3-2"):
        harness.characterize_many(
            [(n, s, None) for n in names for s in SCALE_FACTORS])
    elif number in ("4", "5", "6"):
        harness.suite()


def cmd_figure(args) -> None:
    from repro.analysis import (
        figure2, figure3_mips, figure3_speedup, figure4,
        figure5, figure6_cache, figure6_tlb,
    )

    harness = _harness(args, machine=_machine(args.machine))
    number = args.number
    _prewarm_figure(harness, number)
    if number == "2":
        print(figure2(harness).render())
    elif number in ("3", "3-1"):
        print(figure3_mips(harness).render())
        if number == "3":
            print()
            print(figure3_speedup(harness).render())
    elif number == "3-2":
        print(figure3_speedup(harness).render())
    elif number == "4":
        print(figure4(harness).render())
    elif number == "5":
        fig51, fig52 = figure5(harness)
        print(fig51.render())
        print()
        print(fig52.render())
    elif number == "6":
        print(figure6_cache(harness).render())
        print()
        print(figure6_tlb(harness).render())
    else:
        raise SystemExit(f"unknown figure {number!r} (2, 3, 3-1, 3-2, 4, 5, 6)")


def cmd_roofline(args) -> None:
    from repro.analysis.roofline import render_roofline, roofline_points

    harness = _harness(args)
    names = args.workloads or registry.workload_names()
    harness.suite(names=names)
    print(render_roofline(roofline_points(harness, names)))


def cmd_rank(args) -> None:
    from repro.analysis.ranking import render_ranking, score_configuration

    harness = _harness(args)
    multi = ["Sort", "Grep", "WordCount", "PageRank", "K-means",
             "Connected Components"]
    harness.characterize_many(
        [(name, 1, stack) for stack in ("hadoop", "spark", "mpi")
         for name in multi])
    scores = []
    for stack in ("hadoop", "spark", "mpi"):
        scores.append(score_configuration(
            harness, f"analytics on {stack}", names=multi,
            stacks={name: stack for name in multi},
        ))
    print(render_ranking(scores))


def cmd_export(args) -> None:
    from repro.analysis import export_all

    harness = _harness(args)
    harness.suite()
    if args.sweeps:
        harness.characterize_many(
            [(n, s, None) for n in registry.workload_names()
             for s in SCALE_FACTORS])
    written = export_all(harness, args.directory,
                         include_sweeps=args.sweeps)
    for path in written:
        print(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BigDataBench reproduction: run workloads, regenerate "
                    "the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 19 workloads").set_defaults(fn=cmd_list)

    run = sub.add_parser("run", help="characterize one workload")
    run.add_argument("workload")
    run.add_argument("--scale", type=int, default=1)
    run.add_argument("--stack", default=None)
    run.add_argument("--machine", default="E5645")
    _add_exec_options(run)
    run.set_defaults(fn=cmd_run)

    sweep = sub.add_parser("sweep", help="run the Table 6 data sweep")
    sweep.add_argument("workload")
    sweep.add_argument("--stack", default=None)
    sweep.add_argument("--machine", default="E5645")
    _add_exec_options(sweep)
    sweep.set_defaults(fn=cmd_sweep)

    trace = sub.add_parser("trace", help="characterize with span tracing "
                                         "and print the phase breakdown")
    trace.add_argument("workload")
    trace.add_argument("--scale", type=int, default=1)
    trace.add_argument("--stack", default=None)
    trace.add_argument("--machine", default="E5645")
    trace.add_argument("--format", choices=("tree", "json", "chrome"),
                       default="tree",
                       help="tree = ASCII phase tree (default); json = "
                            "span tree; chrome = chrome://tracing events")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write to FILE instead of stdout")
    _add_exec_options(trace)
    trace.set_defaults(fn=cmd_trace)

    metrics = sub.add_parser("metrics", help="run workloads and dump the "
                                             "process metrics registry")
    metrics.add_argument("workloads", nargs="*",
                         help="workloads to characterize before dumping "
                              "(engine counters need a fresh run: --no-cache)")
    metrics.add_argument("--scale", type=int, default=1)
    metrics.add_argument("--machine", default="E5645")
    _add_exec_options(metrics)
    metrics.set_defaults(fn=cmd_metrics)

    artifacts = sub.add_parser(
        "artifacts",
        help="inspect the shared input artifact store "
             "(memory-mapped BDGS inputs)")
    artifacts.add_argument("action", nargs="?", default="ls",
                           choices=["ls", "gc", "path"],
                           help="ls = list artifacts; gc = evict LRU "
                                "entries over the cap; path = print the "
                                "live fingerprint directory")
    artifacts.add_argument("--dir", default=None, metavar="DIR",
                           help="artifact root (default: "
                                "$REPRO_ARTIFACT_DIR or the cache root)")
    artifacts.add_argument("--cap-mb", type=float, default=None,
                           help="gc: evict down to this many megabytes")
    artifacts.set_defaults(fn=cmd_artifacts)

    chaos = sub.add_parser(
        "chaos",
        help="run a workload under a deterministic fault plan and "
             "compare against the fault-free run")
    chaos.add_argument("workload")
    chaos.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault spec like 'task_crash:rate=0.3;"
                            "node_kill:node=1' (default: the full "
                            "chaos battery)")
    chaos.add_argument("--no-recovery", action="store_true",
                       help="disable the recovery machinery (faults "
                            "destroy work instead of being repaired)")
    chaos.add_argument("--checkpoint-interval", type=int, default=2,
                       metavar="N", help="BSP checkpoint every N "
                                         "supersteps (default 2)")
    chaos.add_argument("--scale", type=int, default=1)
    chaos.add_argument("--stack", default=None)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--machine", default="E5645")
    _add_exec_options(chaos)
    chaos.set_defaults(fn=cmd_chaos)

    stream = sub.add_parser(
        "stream",
        help="run a streaming workload through the checkpoint-barrier "
             "dataflow engine, optionally under a fault plan")
    stream.add_argument("workload",
                        help="wordcount, grep, sessions, or a full "
                             "streaming workload name")
    stream.add_argument("--mode", choices=list(STREAM_MODES),
                        default=EXACTLY_ONCE,
                        help="sink replay mode (default exactly-once)")
    stream.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault spec like 'operator_crash:rate=0.1;"
                             "channel_drop:rate=0.3' (default: no faults)")
    stream.add_argument("--no-recovery", action="store_true",
                        help="disable restore-from-barrier recovery "
                             "(faults destroy state instead)")
    stream.add_argument("--checkpoint-interval", type=int, default=8,
                        metavar="N", help="emit a checkpoint barrier every "
                                          "N source batches (default 8)")
    stream.add_argument("--scale", type=int, default=1)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--machine", default="E5645")
    _add_exec_options(stream)
    stream.set_defaults(fn=cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="drive an online service with a load profile and report "
             "the tail-latency SLO study")
    serve.add_argument("server",
                       help="nutch, olio, rubis, or a full online-service "
                            "workload name")
    serve.add_argument("--rps", type=float, default=None,
                       help="mean request rate (default: the workload's "
                            "swept rate at --scale)")
    serve.add_argument("--duration", type=float, default=None,
                       help="simulated seconds of traffic (default 20)")
    serve.add_argument("--scale", type=int, default=1,
                       help="workload scale for the default rate "
                            "(rate = 100 x scale req/s)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--slo", type=float, default=0.5, metavar="SECONDS",
                       help="latency SLO bound for goodput (default 0.5 s)")
    serve.add_argument("--sample", type=int, default=500, metavar="N",
                       help="requests sampled to measure service demand")
    serve.add_argument("--autoscale", default=None, metavar="LO:HI",
                       help="sweep cluster size LO..HI nodes (e.g. 10:1000) "
                            "instead of a single run")
    serve.add_argument("--machine", default="E5645")
    _add_exec_options(serve)
    serve.set_defaults(fn=cmd_serve)

    scenario = sub.add_parser(
        "scenario",
        help="run one logical scenario (YCSB mixes, orders, feed, iot) "
             "against a storage backend through the unified protocol")
    scenario.add_argument("name", help="scenario name (ycsb-a..ycsb-f, "
                                       "orders, feed, iot)")
    scenario.add_argument("--backend", default="lsm",
                          choices=["lsm", "sql", "dict"],
                          help="storage backend (default lsm)")
    scenario.add_argument("--knobs", default=None, metavar="SPEC",
                          help="consistency knobs, e.g. "
                               "'wal=off,consistency=eventual,"
                               "commit=write-behind'")
    scenario.add_argument("--compare", action="store_true",
                          help="run all backends and print a per-backend "
                               "cost/latency table")
    scenario.add_argument("--scale", type=int, default=1)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--machine", default="E5645")
    scenario.add_argument("--cluster", default=None, metavar="NAME",
                          help="cluster preset to model (default: the "
                               "paper's 14-node testbed)")
    scenario.add_argument("--faults", default=None, metavar="SPEC",
                          help="fault plan, e.g. 'task_crash:rate=0.2'")
    scenario.add_argument("--no-recovery", action="store_true",
                          help="inject faults without recovery "
                               "(ops are lost; the answer diverges)")
    scenario.set_defaults(fn=cmd_scenario)

    table = sub.add_parser("table", help="regenerate a paper table (1-7)")
    table.add_argument("number")
    _add_exec_options(table)
    table.set_defaults(fn=cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure (2-6)")
    figure.add_argument("number")
    figure.add_argument("--machine", default="E5645")
    _add_exec_options(figure)
    figure.set_defaults(fn=cmd_figure)

    cluster = sub.add_parser(
        "cluster", help="inspect the cluster presets the time models run "
                        "against")
    cluster.add_argument("action", nargs="?", default="ls",
                         choices=["ls", "show"],
                         help="ls = list presets; show = per-node detail")
    cluster.add_argument("name", nargs="?", default=None,
                         help="preset to show (default: all); a ':N' "
                              "suffix overrides the node count "
                              "(e.g. paper:100)")
    cluster.add_argument("--nodes", type=int, default=None, metavar="N",
                         help="rescale the preset to N rack nodes "
                              "before showing it")
    cluster.set_defaults(fn=cmd_cluster)

    roofline = sub.add_parser("roofline", help="roofline placement")
    roofline.add_argument("workloads", nargs="*")
    _add_exec_options(roofline)
    roofline.set_defaults(fn=cmd_roofline)

    rank = sub.add_parser("rank", help="rank stack configurations by "
                                       "suite score")
    _add_exec_options(rank)
    rank.set_defaults(fn=cmd_rank)

    export = sub.add_parser("export", help="dump tables/figures as CSV")
    export.add_argument("directory")
    export.add_argument("--sweeps", action="store_true",
                        help="include the expensive Figure 2/3 sweeps")
    _add_exec_options(export)
    export.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
