"""The four benchmark workloads.

Each workload has a ``setup`` (everything built before the timed
region), a ``run`` (the timed region: it does the work, checks the
outputs and returns an :class:`Outcome`) and a ``per_layer`` (the
per-layer metrics and spans of a traced pass).  The seed is an argument
of ``setup``; the program under test only ever sees the inputs
generated from it.

Why these four, and which layer each one loads, is in ``WHY`` below and
at length in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from bench import layers
from repro.analysis import paper_reference
from repro.cluster import ClusterSim, MIXED_CLUSTER, PAPER_CLUSTER, TimeModel
from repro.cluster.node import SINGLE_NODE
from repro.core import registry
from repro.core.diskcache import DiskCache
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.core.workload import DATA_SCALE
from repro.datagen.seeds import wikipedia_entries
from repro.faults import FaultPlan
from repro.faults.inject import FaultInjector
from repro.scenarios import library
from repro.scenarios.driver import BACKEND_NAMES, run_scenario
from repro.serving import NutchServer, measure_demand, replay
from repro.serving.load import LoadProfile, generate_stream
from repro.streaming import (
    Dataflow,
    KeyedWindowAggregate,
    StreamRuntime,
    TumblingWindow,
)
from repro.uarch.events import PerfEvents
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645

WHY = {
    "suite_cold": "all 19 paper workloads cold at scale 1 on the E5645: "
                  "uarch simulation is ~85% of wall, engines and datagen "
                  "the rest",
    "volume_x8": "Grep, WordCount, K-means, BFS at 8x input on the "
                 "two-level E5310: datagen and engines do ~65% of wall, "
                 "uarch the rest",
    "replay_planes": "ClusterSim sweep and 1000-node replays plus serving "
                     "replay under shed, hedge and retry: uarch, engines "
                     "and datagen are idle",
    "storage_stream": "YCSB a/c/e and orders on lsm, sql and dict backends "
                      "plus Streaming WordCount with checkpoints and crash "
                      "recovery",
}

#: What ``work_per_s`` counts, per second of the whole timed region.
WORK_UNITS = {
    "suite_cold": "10^6 simulated instructions",
    "volume_x8": "10^6 simulated instructions",
    "replay_planes": "simulated serving requests replayed",
    "storage_stream": "StorageBackend protocol ops",
}

VOLUME_NAMES = ("Grep", "WordCount", "K-means", "BFS")
SCENARIOS = ("ycsb-a", "ycsb-c", "ycsb-e", "orders")
SWEEP_DATA_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)

#: Serving replay legs: (policy, the SIZES key of its request count).
#: ``shed`` never sheds at this load and takes replay()'s vector fast
#: path; ``hedge`` and ``retry`` take its >10x slower event path.
SERVING_LEGS = (("shed", "shed_requests"), ("hedge", "policy_requests"),
                ("retry", "policy_requests"))

#: One cheap-to-characterize workload per engine family whose JobCost
#: the cluster plane replays (the serving family's cost comes from
#: ``measure_demand``).  Sort on Spark is the job replayed at 1000 nodes.
FAMILY_WORKLOADS = (("Sort", "spark"), ("Grep", "hadoop"),
                    ("Select Query", None), ("BFS", None))

#: Input sizes.  "full" is what BENCHMARK.json measures; "smoke" is the
#: seconds-scale configuration of bench/test_bench_smoke.py.
SIZES = {
    "full": {
        "suite_names": None, "volume_scale": 8,
        "sweep_seeds": 4, "big_nodes": 1000, "big_replays": 2,
        "shed_requests": 1_000_000, "policy_requests": 50_000,
        "serving_nodes": 100,
        "scenario_scale": 16, "scan_scale": 8,
        "stream_scale": 8, "stream_runs": 5,
    },
    "smoke": {
        "suite_names": ("Grep", "BFS", "K-means"), "volume_scale": 1,
        "sweep_seeds": 1, "big_nodes": 50, "big_replays": 2,
        "shed_requests": 20_000, "policy_requests": 2_000,
        "serving_nodes": 10,
        "scenario_scale": 1, "scan_scale": 1,
        "stream_scale": 1, "stream_runs": 2,
    },
}


@dataclass
class Outcome:
    """What one pass through a timed region produced."""

    #: Headline work items done; see WORK_UNITS.
    work: float
    attempted: int = 0
    failed: int = 0
    #: sha256 over the simulated statistics, bit-exact per seed.
    digest: str = ""
    #: Exact counters and leg times, keyed by per-layer metric name.
    counters: dict = field(default_factory=dict)
    #: CharacterizationResults (suite_cold, volume_x8 only).
    results: list = field(default_factory=list)


def point_metric(prefix: str, name: str) -> str:
    """``suite.Select_Query_s`` for ("suite", "Select Query")."""
    return f"{prefix}.{name.replace(' ', '_')}_s"


def _digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"\n")
    return sha.hexdigest()


# -- suite_cold, volume_x8: the characterization path --------------------------

class _Characterize:
    """Cold characterization of ``names`` at ``scale`` on ``machine``."""

    prefix: str
    machine = None
    #: Whether the timed region must make no call into the simulator.
    uarch_idle = False

    def points(self, size: dict) -> tuple:
        raise NotImplementedError

    def setup(self, seed: int, size: dict, trace: bool) -> dict:
        names, scale = self.points(size)
        harness = Harness(machine=self.machine, cache=False, artifacts=False,
                          jobs=1, seed=seed, trace=trace)
        return {"harness": harness, "names": names, "scale": scale}

    def run(self, state: dict, rec: layers.Recorder) -> Outcome:
        # The loop Harness.suite() / run_many() runs at jobs=1, opened up
        # so that one failing point is counted and the rest still run.
        harness, results, failed = state["harness"], [], 0
        for name in state["names"]:
            try:
                result = harness.run(
                    RunSpec(workload=name, scale=state["scale"]))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            results.append(result)
            if not (math.isfinite(result.result.metric_value)
                    and result.events.instructions > 0):
                failed += 1
        parts = []
        for result in results:
            events = result.events
            parts.append((result.workload, result.result.metric_value,
                          [getattr(events, f.name) for f in fields(events)]))
        instructions = sum(r.events.instructions for r in results)
        return Outcome(work=instructions / 1e6, attempted=len(state["names"]),
                       failed=failed, digest=_digest(parts), results=results)

    def per_layer(self, state: dict, outcome: Outcome, rec: layers.Recorder,
                  probe: layers.UarchProbe, wall: float) -> tuple:
        merged = merged_events(outcome.results)
        metrics = {
            "sim.l1i_mpki_avg": merged.l1i_mpki,
            "sim.l2_mpki_avg": merged.l2_mpki,
            "sim.l3_mpki_avg": merged.l3_mpki,
            "sim.itlb_mpki_avg": merged.itlb_mpki,
            "sim.dtlb_mpki_avg": merged.dtlb_mpki,
            "sim.int_fp_ratio_avg": merged.int_fp_ratio,
            "sim.instructions_total": merged.instructions,
            "sim.mem_bytes_total": merged.mem_bytes,
            "datagen.bytes": sum(r.result.input_bytes
                                 for r in outcome.results),
        }
        spans: list = []
        for result in outcome.results:
            layers.flatten(result.trace, -1, spans)
        selfs = layers.self_seconds(spans, probe.top_level())
        by_category = layers.seconds_by_category(spans, selfs)
        prepare = run = under_run = 0.0
        in_run: list = []
        for span, seconds in zip(spans, selfs):
            duration = span["end"] - span["start"]
            kind, _, name = span["name"].partition(":")
            in_run.append(kind == "run" or (span["parent"] >= 0
                                            and in_run[span["parent"]]))
            if in_run[-1]:
                under_run += seconds
            if kind == "prepare":
                prepare += duration
            elif kind == "run":
                run += duration
            elif kind == "characterize":
                metrics[point_metric(self.prefix, name)] = duration
        for category in ("mapreduce", "spark", "mpi", "nosql", "sql",
                         "serving"):
            metrics[f"engines.{category}_self_s"] = by_category.get(
                category, 0.0)
        # Everything under run:<workload> that is not the simulator: the
        # six engines, the workload glue around them, and the cluster
        # ledger they charge.
        metrics["engines.self_s"] = under_run
        metrics["datagen.prepare_s"] = prepare
        metrics["core.harness_self_s"] = max(0.0, wall - prepare - run)
        return metrics, spans


class SuiteCold(_Characterize):
    name = "suite_cold"
    prefix = "suite"
    machine = XEON_E5645

    def points(self, size: dict) -> tuple:
        return size["suite_names"] or tuple(registry.workload_names()), 1

    def per_layer(self, state, outcome, rec, probe, wall):
        metrics, spans = super().per_layer(state, outcome, rec, probe, wall)
        metrics["sim.fidelity_err"] = fidelity_error(outcome.results)
        metrics.update(_diskcache_round_trip(outcome.results))
        return metrics, spans


class VolumeX8(_Characterize):
    name = "volume_x8"
    prefix = "volume"
    machine = XEON_E5310

    def points(self, size: dict) -> tuple:
        return VOLUME_NAMES, size["volume_scale"]


def merged_events(results: list) -> PerfEvents:
    """The events of all points in one record: its MPKIs and ratios are
    the suite averages, as ``analysis/figures.py`` computes Avg_BigData."""
    merged = PerfEvents()
    for result in results:
        merged = merged.merge(result.events)
    return merged


def fidelity_error(results: list) -> float:
    """Mean |ln(simulated / paper)| over the eight suite averages the
    paper states for the E5645 (``analysis/paper_reference.py``)."""
    merged = merged_events(results)
    pairs = (
        (merged.l1i_mpki, paper_reference.L1I_MPKI),
        (merged.l2_mpki, paper_reference.L2_MPKI),
        (merged.l3_mpki, paper_reference.L3_MPKI),
        (merged.itlb_mpki, paper_reference.ITLB_MPKI),
        (merged.dtlb_mpki, paper_reference.DTLB_MPKI),
        (merged.int_fp_ratio, paper_reference.INT_FP_RATIO),
        (merged.int_intensity, paper_reference.INT_INTENSITY["E5645"]),
        (merged.fp_intensity, paper_reference.FP_INTENSITY["E5645"]),
    )
    errors = [abs(math.log(simulated / reference["Avg_BigData"]))
              for simulated, reference in pairs if simulated > 0]
    return sum(errors) / len(errors) if errors else 0.0


def _diskcache_round_trip(results: list) -> dict:
    """Seconds to put, then get, every result through a DiskCache."""
    with tempfile.TemporaryDirectory() as root:
        cache = DiskCache(root=root)
        keys = [("bench", r.workload, r.scale) for r in results]
        start = time.perf_counter()
        for key, result in zip(keys, results):
            cache.put(key, result)
        put = time.perf_counter() - start
        start = time.perf_counter()
        loaded = [cache.get(key) for key in keys]
        get = time.perf_counter() - start
    if any(item is None for item in loaded):
        raise RuntimeError("DiskCache lost an entry it had just stored")
    return {"core.diskcache_put_s": put, "core.diskcache_get_s": get}


# -- replay_planes: cluster and serving planes ---------------------------------

class ReplayPlanes:
    name = "replay_planes"
    uarch_idle = True

    def setup(self, seed: int, size: dict, trace: bool) -> dict:
        harness = Harness(cache=False, artifacts=False, jobs=1, seed=seed)
        costs = [harness.characterize(name, scale=1, stack=stack).result.cost
                 for name, stack in FAMILY_WORKLOADS]
        server = NutchServer(wikipedia_entries(num_docs=120))
        # Unprofiled sample: the deterministic fallback demand.
        demand = measure_demand(server, SINGLE_NODE, sample_requests=200,
                                seed=seed)
        return {"seed": seed, "size": size, "costs": costs + [demand.cost],
                "mix": server.MIX, "service_seconds": demand.service_seconds}

    def run(self, state: dict, rec: layers.Recorder) -> Outcome:
        seed, size = state["seed"], state["size"]
        failed = 0
        parts: list = []

        sim_seconds = 0.0
        evals = 0
        with rec.span("cluster.sweep", "cluster"):
            for cost in state["costs"]:
                for cluster in (PAPER_CLUSTER, MIXED_CLUSTER):
                    for scale in SWEEP_DATA_SCALES:
                        for offset in range(size["sweep_seeds"]):
                            sim = ClusterSim(
                                cluster, data_scale=DATA_SCALE * scale,
                                seed=seed * 1000 + offset)
                            result = sim.run(cost)
                            evals += 1
                            sim_seconds += result.seconds
                            parts.append(_sim_fingerprint(result))
                            if not (math.isfinite(result.seconds)
                                    and result.seconds > 0):
                                failed += 1

        big = PAPER_CLUSTER.scaled(size["big_nodes"])
        for index in range(size["big_replays"]):
            leg = "cluster.replay_big_cold" if index == 0 \
                else "cluster.replay_big_warm"
            with rec.span(leg, "cluster"):
                result = ClusterSim(big, data_scale=DATA_SCALE,
                                    seed=seed).run(state["costs"][0])
            evals += 1
            parts.append(_sim_fingerprint(result))
            if not (math.isfinite(result.seconds) and result.seconds > 0):
                failed += 1

        cluster = PAPER_CLUSTER.scaled(size["serving_nodes"])
        streams = {}
        with rec.span("serving.generate", "serving"):
            for key in ("shed_requests", "policy_requests"):
                streams[key] = generate_stream(
                    _diurnal(size[key]), state["mix"], seed=seed, store=False)
        outcomes = {}
        for policy, key in SERVING_LEGS:
            with rec.span(f"serving.replay_{policy}", "serving"):
                outcomes[policy] = replay(
                    streams[key], cluster, state["service_seconds"],
                    policy=policy, engine="vector")
        requests = 0
        for policy, outcome in outcomes.items():
            requests += outcome.requests
            if outcome.completed + outcome.shed + outcome.failed \
                    != outcome.requests:
                failed += 1
            parts.append((policy, outcome.requests, outcome.completed,
                          outcome.shed, outcome.failed, outcome.hedged,
                          outcome.retries, outcome.busy_cpu_seconds,
                          outcome.makespan))
        p99 = float(np.quantile(outcomes["shed"].latencies, 0.99))
        parts.append(p99)

        sweep_seconds = rec.seconds("cluster.sweep")
        counters = {
            "cluster.sweep_s": sweep_seconds,
            "cluster.evals": evals,
            "cluster.evals_per_s":
                (evals - size["big_replays"]) / sweep_seconds,
            "cluster.replay_1000n_cold_s":
                rec.seconds("cluster.replay_big_cold"),
            "cluster.replay_1000n_warm_s":
                rec.seconds("cluster.replay_big_warm")
                / (size["big_replays"] - 1),
            "cluster.sim_seconds_sum": sim_seconds,
            "serving.generate_s": rec.seconds("serving.generate"),
            "serving.requests": requests,
            "serving.shed": sum(o.shed for o in outcomes.values()),
            "serving.hedged": sum(o.hedged for o in outcomes.values()),
            "serving.retried": sum(o.retries for o in outcomes.values()),
            "serving.p99_sim_ms": p99 * 1e3,
        }
        for policy in outcomes:
            counters[f"serving.replay_{policy}_s"] = rec.seconds(
                f"serving.replay_{policy}")
        return Outcome(work=requests,
                       attempted=evals + len(outcomes), failed=failed,
                       digest=_digest(parts), counters=counters)

    def per_layer(self, state, outcome, rec, probe, wall):
        metrics = dict(outcome.counters)
        costs = state["costs"]
        analytic = TimeModel(PAPER_CLUSTER, data_scale=DATA_SCALE,
                             mode="analytic")
        rounds = 200
        start = time.perf_counter()
        for _ in range(rounds):
            for cost in costs:
                analytic.job_time(cost)
        metrics["cluster.analytic_job_time_us"] = (
            (time.perf_counter() - start) / (rounds * len(costs)) * 1e6)
        event = TimeModel(PAPER_CLUSTER, data_scale=DATA_SCALE, mode="event",
                          seed=state["seed"])
        metrics["cluster.event_over_analytic_max"] = max(
            event.job_time(cost) / analytic.job_time(cost) for cost in costs)
        return metrics, list(rec.spans)


def _diurnal(requests: int) -> LoadProfile:
    """A diurnal profile capped at exactly ``requests`` requests."""
    duration = max(1, requests * 600 // 1_000_000)
    return LoadProfile.parse(
        f"diurnal:rps=4000:peak=4:duration={duration}:cap={requests}")


def _sim_fingerprint(result) -> tuple:
    return (result.seconds,
            tuple((p.name, p.start, p.end, p.tasks, p.straggled,
                   p.remote_tasks, p.spill_bytes) for p in result.phases),
            result.killed)


# -- storage_stream: storage scenarios and the streaming engine ----------------

STREAM_VARIANTS = (
    ("run", {}, None),
    ("ckpt1_run", {"checkpoint_interval": 1}, None),
    ("recovery_run", {}, "operator_crash:rate=0.05"),
)


class StorageStream:
    name = "storage_stream"
    uarch_idle = True

    def setup(self, seed: int, size: dict, trace: bool) -> dict:
        prepared = registry.create("Streaming WordCount").prepare(
            size["stream_scale"], seed=seed)
        return {"seed": seed, "size": size, "stream": prepared}

    def run(self, state: dict, rec: layers.Recorder) -> Outcome:
        seed, size = state["seed"], state["size"]
        failed = attempted = 0
        parts: list = []
        counters = {"scenarios.ops": 0, "scenarios.digest_mismatches": 0,
                    "nosql.wal_bytes": 0, "nosql.drains": 0}

        for scenario in SCENARIOS:
            scale = size["scan_scale"] if scenario == "ycsb-e" \
                else size["scenario_scale"]
            digests = {}
            for backend in BACKEND_NAMES:
                leg = f"scenarios.{backend}_{scenario}_s"
                with rec.span(leg, "scenario") as span:
                    result = run_scenario(scenario, backend=backend,
                                          scale=scale, seed=seed)
                counters[leg] = span["end"] - span["start"]
                counters["scenarios.ops"] += result.ops
                digests[backend] = result.digest
                if backend == "lsm":
                    counters["nosql.wal_bytes"] += result.work["wal_bytes"]
                    counters["nosql.drains"] += result.counts["drains"]
            attempted += len(digests)
            # The dict backend is the model the other two must match.
            mismatches = sum(1 for digest in digests.values()
                             if digest != digests["dict"])
            counters["scenarios.digest_mismatches"] += mismatches
            failed += mismatches
            parts.append((scenario, digests["dict"]))

        payload = state["stream"].payload
        events = state["stream"].details["events"]
        reference = None
        medians = []
        for label, knobs, plan in STREAM_VARIANTS:
            seconds = []
            for _ in range(size["stream_runs"]):
                flow = Dataflow(
                    name="bench-wordcount", batches=payload["batches"],
                    operators=[KeyedWindowAggregate("wc",
                                                    TumblingWindow(1.0))],
                    mean_interval=payload["mean_interval"], **knobs)
                faults = FaultInjector(FaultPlan.parse(plan), seed=seed) \
                    if plan else None
                with rec.span(f"streaming.{label}", "stream") as span:
                    result = StreamRuntime(faults=faults).run(flow)
                seconds.append(span["end"] - span["start"])
                attempted += 1
                if reference is None:
                    reference = result.digest()
                    counters["streaming.windows"] = result.windows
                elif result.digest() != reference:
                    failed += 1
            counters[f"streaming.{label}_s"] = statistics.median(seconds)
            medians.append(statistics.median(seconds))
            if plan:
                counters["streaming.restores"] = result.counters["restores"]
                counters["streaming.replayed_batches"] = \
                    result.counters["replayed_batches"]
        parts.append(("stream", reference, events))
        counters["streaming.events"] = events
        counters["streaming.events_per_s"] = len(medians) * events / sum(medians)

        return Outcome(work=counters["scenarios.ops"], attempted=attempted,
                       failed=failed, digest=_digest(parts),
                       counters=counters)

    def per_layer(self, state, outcome, rec, probe, wall):
        metrics = dict(outcome.counters)
        seed, size = state["seed"], state["size"]
        start = time.perf_counter()
        for scenario in SCENARIOS:
            scale = size["scan_scale"] if scenario == "ycsb-e" \
                else size["scenario_scale"]
            library.build(scenario, scale=scale, seed=seed)
        metrics["scenarios.build_s"] = time.perf_counter() - start
        return metrics, list(rec.spans)


WORKLOADS = {w.name: w for w in (SuiteCold(), VolumeX8(), ReplayPlanes(),
                                 StorageStream())}
