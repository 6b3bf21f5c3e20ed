"""The characterization harness: run workloads under the profiler.

This is the reproduction's equivalent of the paper's experimental rig
(Section 6.1): pick a workload, a data scale, a software stack, and a
machine configuration; prepare the input with BDGS; execute; collect the
perf events, the modeled report, and the user-perceivable metric.
Results are memoized so figure generators can share runs.

Every run is described by a :class:`~repro.core.runspec.RunSpec`; the
kwargs signatures below are thin shims over it.  Traced runs
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
from repro.core.workload import SCALE_FACTORS, WorkloadResult
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

    ``jobs`` > 1 fans :meth:`suite` / :meth:`sweep` points across a
    process pool (see :mod:`repro.core.parallel`); results are merged
    back into the in-memory memo, so downstream figure/table code is
    unchanged and event counts are bit-identical to the serial path.
    ``cache`` attaches a persistent :class:`~repro.core.diskcache.DiskCache`
    (pass a DiskCache, or True for the default location) so results
    survive across processes; it is invalidated automatically when any
    ``repro`` source file changes.  ``trace`` turns on span tracing for
    every run this harness executes (individual runs can also request it
    via ``RunSpec(trace=True)``).  ``artifacts`` controls the shared
    input plane (:mod:`repro.core.artifacts`): the default ``None``
    attaches the machine-wide store (disable with ``REPRO_NO_ARTIFACTS``),
    ``False`` disables it, and a path / store instance pins a specific
    root.  Prepared inputs then spill once to memory-mapped ``.npy``
    artifacts and every later preparation -- in this process or any
    worker -- re-opens the same pages zero-copy.  Either way the harness
    generates each distinct data set once: workloads reading the same
    one share a read-only object, so ``False`` means "no spill", not
    "regenerate" (a store bounds what stays open: see ``_prepared``).
    """

    #: In-memory prepared-input cache bound when an artifact store is
    #: attached (misses re-open the mmap; pages stay in the OS cache).
    INPUT_CACHE_SIZE = 4

    def __init__(self, machine: MachineConfig = XEON_E5645,
                 cluster: ClusterSpec = PAPER_CLUSTER, seed: int = 0,
                 jobs: int = 1, cache=None, trace: bool = False,
                 artifacts=None, serving=None):
        from repro.core.artifacts import resolve_store
        from repro.core.diskcache import resolve_cache

        self.machine = machine
        self.cluster = cluster
        self.seed = seed
        self.jobs = max(1, int(jobs or 1))
        self.cache = resolve_cache(cache)
        self.trace = bool(trace)
        self.artifacts = resolve_store(artifacts)
        if serving is not None:
            from repro.serving.load import ServingOptions

            serving = ServingOptions.parse(serving)
        #: Default serving options (load profile + recovery policy) for
        #: online-service workloads; RunSpec.serving overrides per run.
        self.serving = serving
        self._cache: dict = {}
        self._inputs: dict = {}
        #: Generated data sets by content key ``(kind, scale, seed, ...)``:
        #: workloads that read the same one share it.  The prepared
        #: inputs above reference these objects, so without a store the
        #: memo adds no memory; with one they are memory-mapped, and
        #: ``_prepared`` evicts them along with the inputs.
        self._datasets: dict = {}

    # -- the RunSpec API -------------------------------------------------------

    def run(self, spec: RunSpec) -> CharacterizationResult:
        """Run one fully described point (memo -> disk cache -> execute)."""
        spec = spec.resolved(self)
        key = spec.memo_key()
        METRICS.counter("harness.runs").inc()
        if key in self._cache:
            METRICS.counter("harness.memo_hits").inc()
            return self._cache[key]
        outcome = self._load_cached(spec)
        if outcome is None:
            outcome = self._execute(spec)
            self._store_cached(spec, outcome)
        self._cache[key] = outcome
        return outcome

    def run_many(self, specs, jobs: Optional[int] = None) -> list:
        """Run many points, in order; ``jobs`` > 1 fans missing ones out.

        ``specs`` may mix :class:`RunSpec` objects and legacy
        ``(name, scale, stack)`` triples.  ``jobs`` overrides the
        harness-level worker count for this call only.
        """
        specs = [self._coerce(spec) for spec in specs]
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        if jobs > 1 and len(specs) > 1:
            from repro.core.parallel import parallel_characterize

            parallel_characterize(self, specs, jobs=jobs)
        return [self.run(spec) for spec in specs]

    # -- kwargs shims (the pre-RunSpec surface; no caller breaks) --------------

    def characterize(self, name, scale: int = 1, stack: Optional[str] = None,
                     machine: Optional[MachineConfig] = None,
                     trace: bool = False) -> CharacterizationResult:
        """Run one workload at one scale on one machine, profiled.

        ``name`` may also be a ready-made :class:`RunSpec` (the kwargs
        are then ignored).
        """
        if isinstance(name, RunSpec):
            return self.run(name)
        return self.run(RunSpec(workload=name, scale=scale, stack=stack,
                                machine=machine, trace=trace))

    def sweep(self, name: str, scales=SCALE_FACTORS,
              stack: Optional[str] = None,
              jobs: Optional[int] = None) -> list:
        """The paper's data-volume sweep (Table 6 geometry)."""
        return self.run_many(
            [RunSpec(workload=name, scale=s, stack=stack) for s in scales],
            jobs=jobs)

    def suite(self, names=None, scale: int = 1,
              jobs: Optional[int] = None) -> list:
        """Characterize many workloads at one scale (Figures 4-6 input)."""
        names = names or registry.workload_names()
        return self.run_many(
            [RunSpec(workload=name, scale=scale) for name in names],
            jobs=jobs)

    def characterize_many(self, specs) -> list:
        """Characterize RunSpecs or ``(name, scale, stack)`` triples, in
        order (alias of :meth:`run_many`, kept for existing callers)."""
        return self.run_many(specs)

    # -- execution and persistent caching --------------------------------------

    def _coerce(self, spec) -> RunSpec:
        if isinstance(spec, RunSpec):
            return spec
        name, scale, stack = spec
        return RunSpec(workload=name, scale=scale, stack=stack)

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
                prepared = self._prepared(spec.workload, spec.scale,
                                          seed=spec.seed, workload=workload,
                                          ctx=ctx)
            with ctx.span(f"run:{spec.workload}", category="harness"):
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

    def _load_cached(self, spec: RunSpec):
        if self.cache is None:
            return None
        outcome = self.cache.get(spec.cache_key())
        if outcome is not None:
            METRICS.counter("harness.disk_hits").inc()
        return outcome

    def _store_cached(self, spec: RunSpec,
                      outcome: CharacterizationResult) -> None:
        if self.cache is None:
            return
        self.cache.put(spec.cache_key(), outcome)

    def _prepared(self, name: str, scale: int, seed: int = None, workload=None,
                  ctx=None):
        from repro.core import artifacts

        seed = self.seed if seed is None else seed
        key = (name, scale, seed)
        if key in self._inputs:
            # LRU touch: move the hit to the back of insertion order.
            prepared = self._inputs.pop(key)
            self._inputs[key] = prepared
            return prepared
        if workload is None:
            workload = registry.create(name)
        with artifacts.activated(self.artifacts, ctx, self._datasets):
            prepared = workload.prepare(scale, seed=seed)
        self._inputs[key] = prepared
        # With a store attached the memo is just a hot-set accelerator --
        # evictions re-open the mmap'd artifact, so bound it; without a
        # store it is the only thing preventing regeneration, keep it all.
        if self.artifacts is not None:
            while len(self._inputs) > self.INPUT_CACHE_SIZE:
                self._inputs.pop(next(iter(self._inputs)))
            # The data sets go with the last input of their (scale, seed)
            # point: every memory-mapped array holds a mapping and a file
            # descriptor, and keeps a collected artifact on disk.
            points = {point[1:] for point in self._inputs}
            for dataset in [dataset for dataset in self._datasets
                            if dataset[1:3] not in points]:
                del self._datasets[dataset]
        return prepared
