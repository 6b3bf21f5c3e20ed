"""The characterization harness: run workloads under the profiler.

This is the reproduction's equivalent of the paper's experimental rig
(Section 6.1): pick a workload, a data scale, a software stack, and a
machine configuration; prepare the input with BDGS; execute; collect the
perf events, the modeled report, and the user-perceivable metric.
Results are memoized so figure generators can share runs.

Every run is described by a :class:`~repro.core.runspec.RunSpec` and
goes through :meth:`Harness.run` or :meth:`Harness.run_many`.  Traced runs
(``trace=True``) additionally record a span tree (see
:mod:`repro.obs.trace`) stored on the result -- per-engine-phase wall
time and exact perf-event deltas -- which survives the memo, the disk
cache, and process-parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.core import registry
from repro.core.runspec import RunSpec
from repro.core.workload import WorkloadResult
from repro.obs.metrics import METRICS
from repro.obs.trace import Span, Tracer
from repro.uarch.events import ProfileReport
from repro.uarch.hierarchy import MachineConfig, XEON_E5645
from repro.uarch.perfctx import PerfContext


@dataclass
class CharacterizationResult:
    """One profiled workload run."""

    workload: str
    scale: int
    stack: str
    machine: str
    report: ProfileReport
    result: WorkloadResult
    #: Span tree of a traced run (None when tracing was off).
    trace: Optional[Span] = None
    #: Ordered chaos flight record of a fault-injected run -- a tuple of
    #: :class:`~repro.faults.inject.FaultEvent` (None when no fault plan
    #: was attached).  Survives the memo, the disk cache, and process
    #: pools, so event sequences can be compared across execution modes.
    fault_events: Optional[tuple] = None

    @property
    def events(self):
        return self.report.events

    @property
    def mips(self) -> float:
        """Aggregate MIPS (Figure 3-1).

        Service workloads report throughput-derived MIPS; batch workloads
        divide their (paper-scale) instruction count by the modeled
        wall-clock time, which includes the fixed per-job overheads --
        the term the paper's rising MIPS curves amortize.
        """
        service_mips = self.result.details.get("mips")
        if service_mips is not None:
            return service_mips
        seconds = self.modeled_seconds
        if seconds <= 0:
            return self.report.mips
        from repro.core.workload import DATA_SCALE

        return self.events.instructions * DATA_SCALE / seconds / 1e6

    @property
    def modeled_seconds(self) -> float:
        from repro.cluster.timemodel import TimeModel
        from repro.core.workload import DATA_SCALE

        if not self.result.cost.phases:
            return 0.0
        return TimeModel(data_scale=DATA_SCALE).job_time(self.result.cost)


class Harness:
    """Runs and memoizes profiled workload executions.

    ``jobs`` > 1 fans the points of :meth:`run_many` that miss both the
    in-memory memo and the disk cache across a process pool (see
    :mod:`repro.core.parallel`); results are merged back into the memo,
    so downstream figure/table code is unchanged and event counts are
    bit-identical to the serial path.
    ``cache`` and ``artifacts`` attach a :class:`~repro.core.store.Store`
    (a Store, a root path, or True for the default one; False or None
    for none).  ``cache`` keeps results across processes, invalidated
    when any ``repro`` source changes; it is off by default.
    ``artifacts`` keeps generated inputs and serving streams -- spilled
    once as memory-mapped ``.npy`` files that every later run, in this
    process or any worker, re-opens zero-copy; ``None`` means the
    default store.  Inputs are prepared afresh for every run; the data
    sets they read are what is shared (see :meth:`prepare`).  ``trace``
    turns on span tracing for every run (or per run:
    ``RunSpec(trace=True)``).
    """

    def __init__(self, machine: MachineConfig = XEON_E5645,
                 cluster: ClusterSpec = PAPER_CLUSTER, seed: int = 0,
                 jobs: int = 1, cache=None, trace: bool = False,
                 artifacts=None, serving=None):
        from repro.core.store import resolve

        self.machine = machine
        self.cluster = cluster
        self.seed = seed
        self.jobs = max(1, int(jobs or 1))
        self.cache = resolve(cache)
        self.trace = bool(trace)
        self.artifacts = resolve(True if artifacts is None else artifacts)
        if serving is not None:
            from repro.serving.load import ServingOptions

            serving = ServingOptions.parse(serving)
        #: Default serving options (load profile + recovery policy) for
        #: online-service workloads; RunSpec.serving overrides per run.
        self.serving = serving
        self._cache: dict = {}
        #: Generated data sets by content key ``(kind, scale, seed, ...)``
        #: when no store is attached: the only copy, kept for the
        #: harness's life (see :meth:`_activated`).
        self._datasets: dict = {}

    # -- the RunSpec API -------------------------------------------------------

    def run(self, spec: RunSpec) -> CharacterizationResult:
        """Run one fully described point (memo -> disk cache -> execute)."""
        return self.run_many([spec], jobs=1)[0]

    def run_many(self, specs, jobs: Optional[int] = None) -> list:
        """Run many :class:`RunSpec` points, in order.

        Each point is looked up in the memo, then the disk cache; the
        missing ones execute, fanned out over ``jobs`` worker processes
        when more than one is missing (``jobs`` overrides the
        harness-level worker count for this call only).
        """
        specs = [spec.resolved(self) for spec in specs]
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        missing = {}
        for spec in specs:
            key = spec.memo_key()
            METRICS.counter("harness.runs").inc()
            if key in self._cache or key in missing:
                METRICS.counter("harness.memo_hits").inc()
                continue
            outcome = (None if self.cache is None
                       else self.cache.get("result", spec.cache_key()))
            if outcome is None:
                missing[key] = spec
            else:
                METRICS.counter("harness.disk_hits").inc()
                self._cache[key] = outcome
        if jobs > 1 and len(missing) > 1:
            from repro.core.parallel import execute_in_pool

            outcomes = execute_in_pool(self, list(missing.values()), jobs)
        else:
            outcomes = map(self._execute, missing.values())
        for (key, spec), outcome in zip(missing.items(), outcomes):
            self._cache[key] = outcome
            if self.cache is not None:
                self.cache.put("result", spec.cache_key(), outcome)
        return [self._cache[spec.memo_key()] for spec in specs]

    def characterize(self, name: str, scale: int = 1,
                     stack: Optional[str] = None,
                     machine: Optional[MachineConfig] = None,
                     trace: bool = False) -> CharacterizationResult:
        """Run one workload at one scale on one machine, profiled.

        The keyword form of ``run(RunSpec(...))``, kept for
        ``bench/workloads.py`` only; everything else calls :meth:`run`.
        """
        return self.run(RunSpec(workload=name, scale=scale, stack=stack,
                                machine=machine, trace=trace))

    def prepare(self, name: str, scale: int, seed: int = None, ctx=None):
        """The prepared input of workload ``name`` at ``scale``.

        ``seed`` defaults to the harness seed.  The input is prepared
        afresh on every call; the data sets it reads are generated
        through the store and the data-set memo (see :meth:`_activated`),
        with ``artifact:*`` spans on ``ctx``.  Every run of this harness
        gets its input here, and so may a caller that drives a workload's
        payload itself (``repro serve``).
        """
        seed = self.seed if seed is None else seed
        with self._activated(ctx):
            return registry.create(name).prepare(scale, seed=seed)

    def _activated(self, ctx=None):
        """The store scope of one prepare or one run.

        Without a store the data-set memo is the only copy, so it lasts
        for the harness's life; with one it lasts for this scope, and
        later readers re-open the store's read-only memmaps -- a long
        sweep maps only the point it is on.
        """
        from repro.core import store

        return store.activated(self.artifacts, ctx,
                               self._datasets if self.artifacts is None
                               else None)

    # -- execution and persistent caching --------------------------------------

    def _execute(self, spec: RunSpec) -> CharacterizationResult:
        """Actually run one profiled point (no memo, no disk cache)."""
        METRICS.counter("harness.executions").inc()
        workload = registry.create(spec.workload)
        tracer = Tracer(spec.workload) if spec.trace else None
        ctx = PerfContext(spec.machine, seed=spec.seed, tracer=tracer)
        # The run seed rides the context so engines without their own
        # seed plumbing (e.g. the serving load generator) stay keyed to
        # the spec -- bit-identical serially and across worker pools.
        ctx.seed = spec.seed
        if spec.serving is not None:
            ctx.serving = spec.serving
        injector = None
        if spec.faults is not None:
            from repro.faults.inject import FaultInjector

            injector = FaultInjector(spec.faults, seed=spec.seed)
            ctx.faults = injector
        with ctx.span(f"characterize:{spec.workload}", category="harness",
                      scale=spec.scale, stack=spec.stack) as run_span:
            if injector is not None:
                run_span.set("faults", str(spec.faults))
            with ctx.span(f"prepare:{spec.workload}", category="datagen"):
                prepared = self.prepare(spec.workload, spec.scale,
                                        seed=spec.seed, ctx=ctx)
            # The store is active around the run too (the serving stream
            # generator reads it), with no context: no span is added.
            with ctx.span(f"run:{spec.workload}", category="harness"), \
                    self._activated():
                result = workload.run(prepared, ctx=ctx, cluster=spec.cluster,
                                      stack=spec.stack)
            # Inside the root span: its event delta is then the report's
            # events, the last instruction-fetch flush included.
            report = ctx.finalize(
                cores_used=spec.cluster.total_cores,
                metadata={"workload": spec.workload, "scale": spec.scale,
                          "stack": spec.stack},
            )
        trace = tracer.finish() if tracer is not None else None
        outcome = CharacterizationResult(
            workload=spec.workload, scale=spec.scale, stack=spec.stack,
            machine=spec.machine.name, report=report, result=result,
            trace=trace,
            fault_events=injector.event_log() if injector is not None else None,
        )
        if trace is not None:
            trace.set("modeled_seconds", outcome.modeled_seconds)
            trace.set("metric", f"{result.metric_name}={result.metric_value:.6g}")
        return outcome
