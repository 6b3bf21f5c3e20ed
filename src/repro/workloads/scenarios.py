"""Scenario workloads: the multi-backend extension family (ids 23-26).

YCSB-style datastore scenarios characterized through the normal harness
path, with the *storage backend* as the software stack -- the paper's
per-stack comparison (HBase vs Cassandra vs MySQL for the same Cloud
OLTP operations) generalized to the unified
:class:`~repro.scenarios.backend.StorageBackend` protocol: ``lsm``
(HBase-style LSM store), ``sql`` (per-op statements against the
Hive-style engine), ``dict`` (in-memory baseline).

Like streaming (ids 20-22), these register as an *extension* family
(:data:`repro.core.registry.SCENARIO_CLASSES`): Table 4 stays the
paper's 19 rows, and RunSpec keying / memo / disk cache / ``jobs=N``
work unchanged because backend choice is ordinary ``--stack`` plumbing.

Result details split fingerprint-stable answers (digests, op and record
counts, commits/rollbacks) from chaos-mobile bookkeeping (``op_retries``,
``ops_per_second``, ``backend_work``) per
:data:`repro.faults.verify.TIMING_DETAIL_KEYS`.
"""

from __future__ import annotations

from repro.cluster.timemodel import JobCost
from repro.core.workload import (
    ONLINE,
    OPS,
    Execution,
    Workload,
    WorkloadInfo,
    WorkloadInput,
)
from repro.scenarios import library
from repro.scenarios.driver import BACKEND_NAMES, run_scenario

#: The YCSB core mixes one Ycsb characterization covers.
YCSB_MIX_NAMES = tuple(library.YCSB_MIXES)


class _ScenarioWorkload(Workload):
    """Shared harness plumbing: scenario names in, OPS out."""

    default_stack = "lsm"

    #: Scenario names this workload runs, in order.
    scenario_names: tuple = ()

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        scenarios = [library.build(name, scale=scale, seed=seed)
                     for name in self.scenario_names]
        return WorkloadInput(
            payload={"names": self.scenario_names, "seed": seed},
            nbytes=sum(s.preload_bytes for s in scenarios),
            scale=scale,
            details={"scenarios": list(self.scenario_names),
                     "records": sum(len(s.preload) for s in scenarios),
                     "ops": sum(len(s.ops) for s in scenarios)},
        )

    def execute(self, prepared, ctx, cluster, backend):
        seed = prepared.payload["seed"]
        cost = JobCost()
        digests = {}
        op_mix: dict = {}
        executed: dict = {}
        ops = commits = rollbacks = records = retries = lost = 0
        work = {}
        for name in prepared.payload["names"]:
            r = run_scenario(name, backend=backend, ctx=ctx,
                             cluster=cluster, seed=seed,
                             scale=prepared.scale)
            digests[name] = r.digest
            ops += r.ops
            for kind, n in r.op_mix.items():
                op_mix[kind] = op_mix.get(kind, 0) + n
            for key, n in r.counts.items():
                executed[key] = executed.get(key, 0) + n
            # Txn-control ops are never fault-eligible, so commit and
            # rollback counts are part of the stable answer.
            commits += r.counts["commits"]
            rollbacks += r.counts["rollbacks"]
            records += r.records
            retries += r.op_retries
            lost += r.ops_lost
            work[name] = r.work
            for phase in r.cost.phases:
                cost.add(phase)
        seconds = self.modeled_seconds(cost, cluster)
        ops_per_second = ops / seconds if seconds > 0 else 0.0
        details = {
            # Functional answer: bit-identical under recovered chaos.
            # The op mix comes from the scenario definition itself (not
            # execution counters, which inflate when ops are retried).
            "digests": digests,
            "ops": ops,
            "op_mix": op_mix,
            "commits": commits,
            "rollbacks": rollbacks,
            "records": records,
            "ops_lost": lost,
            # Bookkeeping (TIMING_DETAIL_KEYS): moves under chaos/knobs.
            "op_retries": retries,
            "ops_per_second": ops_per_second,
            "executed": executed,
            "backend_work": work,
        }
        return Execution(cost, details, metric_value=ops_per_second)


class YcsbWorkload(_ScenarioWorkload):
    """Workload C1: the six YCSB core mixes A-F, one backend."""

    scenario_names = YCSB_MIX_NAMES
    info = WorkloadInfo(
        name="Scenario YCSB", scenario="Multi-Backend Scenarios",
        app_type=ONLINE, data_type="semi-structured", data_source="table",
        stacks=BACKEND_NAMES, metric=OPS,
        input_description="YCSB A-F, 240 x (1..32) records, zipfian",
        workload_id=23,
    )


class OrdersWorkload(_ScenarioWorkload):
    """Workload C2: transactional order entry with rollbacks."""

    scenario_names = ("orders",)
    info = WorkloadInfo(
        name="Scenario Orders", scenario="Multi-Backend Scenarios",
        app_type=ONLINE, data_type="structured", data_source="table",
        stacks=BACKEND_NAMES, metric=OPS,
        input_description="order txns over 240 x (1..32) catalog rows",
        workload_id=24,
    )


class FeedWorkload(_ScenarioWorkload):
    """Workload C3: social-feed timeline reads + post fan-out."""

    scenario_names = ("feed",)
    info = WorkloadInfo(
        name="Scenario Feed", scenario="Multi-Backend Scenarios",
        app_type=ONLINE, data_type="semi-structured", data_source="table",
        stacks=BACKEND_NAMES, metric=OPS,
        input_description="feed fan-out over 240 x (1..32) users",
        workload_id=25,
    )


class IotWorkload(_ScenarioWorkload):
    """Workload C4: IoT sensor firehose (appends + window scans)."""

    scenario_names = ("iot",)
    info = WorkloadInfo(
        name="Scenario IoT", scenario="Multi-Backend Scenarios",
        app_type=ONLINE, data_type="structured", data_source="table",
        stacks=BACKEND_NAMES, metric=OPS,
        input_description="16-sensor firehose, 400 x (1..32) events",
        workload_id=26,
    )
