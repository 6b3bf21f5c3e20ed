"""The profiling facade: what ``perf`` was to the paper's testbed.

Engines and workload kernels are instrumented against this API.  They
declare what they *do* -- abstract instruction counts and memory access
patterns over named regions -- and the context turns those declarations
into simulated cache/TLB traffic and event counts on a configured machine
(:data:`repro.uarch.hierarchy.XEON_E5645` or ``XEON_E5310``).

Two implementations share the interface:

* :class:`PerfContext` -- full simulation (events + memory hierarchy).
* :class:`NullPerfContext` -- every method is a no-op, for running the
  engines functionally at full speed (unit tests, data preparation).

Record, then simulate: a pattern's simulated addresses are generated
where it is declared, but they walk the cache/TLB hierarchy later, tens
of thousands at a time (see ``PerfContext._record`` / ``_drain`` and
docs/MODEL.md, "Recording and draining"); instruction counts are
immediate, cache/TLB events and ``mem_bytes`` are current after
``settle()`` or ``finalize()``.  An untraced context walks its L1D ->
L2 -> L3 chain in a second process (:mod:`repro.uarch.sidecar`) while
the engines go on recording.

Sampling strategy (see :mod:`repro.uarch.sampling`): data-side patterns
are contracted by a small factor (default 8) together with the machine's
capacities, preserving working-set/capacity ratios; instruction fetches
are subsampled much more aggressively (default 1/16384) because their
locality structure is generated, not replayed.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.uarch import cpu, lru, sidecar
from repro.uarch.codemodel import (
    CodeProfile,
    SPEC_CODE,
    generate_fetch_addresses,
)
from repro.obs.trace import NULL_TRACER
from repro.uarch.events import PerfEvents, ProfileReport
from repro.uarch.hierarchy import MachineConfig, MemorySystem
from repro.uarch.regions import AddressSpace, Region
from repro.uarch.sampling import plan_samples

#: Default code profile when a kernel never pushes one.
DEFAULT_PROFILE = SPEC_CODE

#: The two streams of recorded runs, named after the
#: :class:`MemorySystem` method that simulates them.
DATA, FETCH = "data_access", "inst_fetch"


class NullPerfContext:
    """No-op profiler: engines run functionally with zero overhead."""

    profiling = False

    #: Always-zero event record so engines can read ``ctx.events``
    #: uniformly (e.g. per-phase instruction deltas) without branching.
    events = PerfEvents()

    #: Span tracer (see :mod:`repro.obs.trace`); the shared null tracer
    #: unless the harness attaches a recording one for a traced run.
    tracer = NULL_TRACER

    #: Fault injector (see :mod:`repro.faults`); None unless the harness
    #: attaches one for a chaos run.  Engines normalize it through
    #: :func:`repro.faults.inject.resolve_faults`.
    faults = None

    # -- span tracing --------------------------------------------------------
    def span(self, name: str, category: str = "", **attrs):
        """Open a trace span scoped to this context's event counters.

        Returns a context manager; with the null tracer (the default)
        it is a shared no-op object, so instrumentation costs nothing
        when tracing is off.
        """
        return self.tracer.span(name, ctx=self, category=category, **attrs)

    # -- code profile scoping ------------------------------------------------
    @contextmanager
    def code(self, profile: CodeProfile):
        yield self

    # -- instruction counting ------------------------------------------------
    def int_ops(self, n: float) -> None:
        pass

    def fp_ops(self, n: float) -> None:
        pass

    def branch_ops(self, n: float) -> None:
        pass

    # -- memory patterns -----------------------------------------------------
    def touch(self, name: str, real_size: int) -> None:
        pass

    def seq_read(self, name: str, nbytes: float, elem: int = 8) -> None:
        pass

    def seq_write(self, name: str, nbytes: float, elem: int = 8) -> None:
        pass

    def rand_read(self, name: str, count: float, elem: int = 8) -> None:
        pass

    def rand_write(self, name: str, count: float, elem: int = 8) -> None:
        pass

    def stride_read(self, name: str, count: float, stride: int, elem: int = 8) -> None:
        pass

    def skewed_read(
        self, name: str, count: float, elem: int = 8,
        hot_fraction: float = 0.1, hot_prob: float = 0.9,
    ) -> None:
        pass

    def skewed_write(
        self, name: str, count: float, elem: int = 8,
        hot_fraction: float = 0.1, hot_prob: float = 0.9,
    ) -> None:
        pass

    def finalize(self, cores_used: int = 1, metadata: dict = None) -> ProfileReport:
        return ProfileReport(events=PerfEvents(), metadata=dict(metadata or {}))


#: Shared no-op instance: the default ``ctx`` argument throughout the suite.
NULL_CONTEXT = NullPerfContext()


def context_or_null(ctx: Optional[NullPerfContext]) -> NullPerfContext:
    """Normalize an optional ctx argument: None means 'do not profile'."""
    return NULL_CONTEXT if ctx is None else ctx


class PerfContext(NullPerfContext):
    """Full profiling context simulating one machine configuration."""

    profiling = True

    #: Real instructions accumulated before synthesizing an I-fetch batch.
    FLUSH_THRESHOLD = 4_194_304

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        contraction: int = 8,
        ifetch_contraction: int = 16384,
        seed: int = 0,
        cap: int = 65536,
        tracer=None,
    ):
        if contraction <= 0 or ifetch_contraction <= 0:
            raise ValueError("contraction factors must be positive")
        if cap <= 0:
            raise ValueError("the sample cap must be positive")
        self.machine = machine
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.contraction = contraction
        self.ifetch_contraction = ifetch_contraction
        self.cap = cap
        self.events = PerfEvents()
        self.rng = np.random.default_rng(seed)
        self.space = AddressSpace(contraction=contraction)
        self.memsys: Optional[MemorySystem] = None
        if machine is not None:
            self.memsys = MemorySystem(machine.contracted(contraction), self.events)
        self._profile_stack: list = [DEFAULT_PROFILE]
        self._code_cursors: dict = {}
        self._warmed_profiles: set = set()
        self._pending_instructions = 0.0
        #: Recorded and not yet simulated: ``(stream, addresses, weight)``
        #: runs in program order, and how many addresses they hold.
        self._queue: list = []
        self._queued = 0
        #: Whether the data caches run beside, in :mod:`repro.uarch.sidecar`:
        #: where the platform forks and no recording tracer settles at
        #: every span (a traced pass would have nothing to overlap).
        self._beside = sidecar.AVAILABLE and self.tracer is NULL_TRACER
        #: The sidecar's chain of this context, from its first data drain
        #: to ``finalize``.
        self._chain: Optional[sidecar.Chain] = None
        #: Drained beside and not settled: the memory bytes of every run
        #: in program order -- None for a data run, whose bytes the
        #: sidecar holds until ``settle``.
        self._mem_runs: list = []

    # -- code profile scoping ------------------------------------------------

    @contextmanager
    def code(self, profile: CodeProfile):
        """Run the enclosed phase under ``profile``'s code working set."""
        self._flush_ifetch()
        self._profile_stack.append(profile)
        try:
            yield self
        finally:
            self._flush_ifetch()
            self._profile_stack.pop()

    # -- instruction counting ------------------------------------------------

    #: Implicit operand traffic: every compute instruction drags along
    #: stack/spill/operand loads and stores that hit L1D (so they are not
    #: routed through the cache simulator -- the paper omits L1D MPKI for
    #: the same reason: those misses are hidden).  They do count as
    #: retired instructions, matching Figure 4's load/store shares.
    IMPLICIT_LOAD_FACTOR = 0.30
    IMPLICIT_STORE_FACTOR = 0.10

    def int_ops(self, n: float) -> None:
        if n <= 0:
            return
        self.events.int_ops += n
        self._count_compute(n)

    def fp_ops(self, n: float) -> None:
        if n <= 0:
            return
        self.events.fp_ops += n
        self._count_compute(n)

    def branch_ops(self, n: float) -> None:
        if n <= 0:
            return
        self.events.branches += n
        self._count_compute(n)

    def _count_compute(self, n: float) -> None:
        self.events.loads += self.IMPLICIT_LOAD_FACTOR * n
        self.events.stores += self.IMPLICIT_STORE_FACTOR * n
        self._note_instructions(
            (1.0 + self.IMPLICIT_LOAD_FACTOR + self.IMPLICIT_STORE_FACTOR) * n
        )

    # -- memory patterns -----------------------------------------------------

    def touch(self, name: str, real_size: int) -> None:
        """Declare (or grow) the named region to ``real_size`` bytes."""
        self.space.region(name, real_size)

    def seq_read(self, name: str, nbytes: float, elem: int = 8) -> None:
        self._sequential(name, nbytes, elem, is_write=False)

    def seq_write(self, name: str, nbytes: float, elem: int = 8) -> None:
        self._sequential(name, nbytes, elem, is_write=True)

    def rand_read(self, name: str, count: float, elem: int = 8) -> None:
        self._random(name, count, elem, is_write=False)

    def rand_write(self, name: str, count: float, elem: int = 8) -> None:
        self._random(name, count, elem, is_write=True)

    def stride_read(self, name: str, count: float, stride: int, elem: int = 8) -> None:
        """``count`` accesses ``stride`` real bytes apart (column walks,
        pointer-chasing with regular layout, matrix transposes)."""
        if count <= 0:
            return
        region = self._region(name, int(count * max(stride, elem)))
        plan = plan_samples(count, self.contraction, self.cap)
        self._count_data_instr(count, is_write=False)
        if self.memsys is None or plan.count == 0:
            return
        offsets = (
            region.cursor + np.arange(plan.count, dtype=np.int64) * int(stride)
        ) % region.size
        region.cursor = int(offsets[-1]) if plan.count else region.cursor
        self._record(DATA, region.base + offsets, plan.weight)

    def skewed_read(
        self, name: str, count: float, elem: int = 8,
        hot_fraction: float = 0.1, hot_prob: float = 0.9,
    ) -> None:
        self._skewed(name, count, elem, hot_fraction, hot_prob, is_write=False)

    def skewed_write(
        self, name: str, count: float, elem: int = 8,
        hot_fraction: float = 0.1, hot_prob: float = 0.9,
    ) -> None:
        self._skewed(name, count, elem, hot_fraction, hot_prob, is_write=True)

    # -- finalization ----------------------------------------------------------

    def finalize(self, cores_used: int = 1, metadata: dict = None) -> ProfileReport:
        """Flush pending instruction fetches and produce the run report."""
        self._flush_ifetch()
        self.settle()
        if self._chain is not None:
            self._chain.close()
            self._chain = None
        if self.memsys is not None:
            machine = self.machine
        else:
            # Event counting without a machine: report raw counts only.
            from repro.uarch.hierarchy import XEON_E5645

            machine = XEON_E5645
        return cpu.finalize(self.events, machine, cores_used=cores_used, metadata=metadata)

    def settle(self) -> None:
        """Bring ``events`` up to date with everything recorded so far:
        simulate the queued runs and copy the cache/TLB statistics in.
        ``finalize`` does, and a recording tracer at every span boundary
        (instructions not yet flushed into a fetch run stay pending).
        Beside, it waits for the sidecar's chain, installs its state into
        ``memsys`` and adds the memory bytes of the runs drained since
        the last settle, in program order."""
        if self.memsys is None:
            return
        self._drain()
        if self._beside:
            data = iter(self._chain.settle() if self._chain is not None
                        else ())
            runs, self._mem_runs = self._mem_runs, []
            for value in runs:
                self.events.mem_bytes += next(data) if value is None else value
        self.memsys.harvest()

    # -- internals -------------------------------------------------------------

    def _record(self, stream: str, addresses: np.ndarray, weight: float) -> None:
        """Queue one run of data accesses or instruction fetches;
        ``stream`` names the :class:`MemorySystem` entry point it takes.

        The addresses are final -- cursors moved, random numbers drawn --
        when a pattern is declared; only their walk through the
        hierarchy waits, so that it is made :data:`~repro.uarch.lru.DRAIN_AT`
        addresses at a time instead of one pattern at a time.
        """
        self._queue.append((stream, addresses, weight))
        self._queued += addresses.size
        if self._queued >= lru.DRAIN_AT:
            self._drain()

    def _drain(self) -> None:
        """Simulate the queued runs: the data runs as one ``data_access``
        batch, the fetch runs as one ``inst_fetch`` batch (the two sides
        share no cache or TLB, and each structure sees its accesses in
        the order they were recorded), then every run's memory bytes in
        program order, data and code interleaved.

        Beside, the data batch is translated here and its cache chain
        handed to the sidecar, and the bytes wait for ``settle``."""
        queue, self._queue, self._queued = self._queue, [], 0
        mem_bytes = {}
        for stream in (DATA, FETCH):
            runs = [run for run in queue if run[0] == stream]
            if not runs:
                continue
            batch = (np.concatenate([addresses for _, addresses, _ in runs]),
                     [weight for _, _, weight in runs],
                     np.cumsum([addresses.size for _, addresses, _ in runs]))
            if stream == DATA and self._beside:
                batch = self.memsys.translate(*batch)
                if self._chain is None:
                    self._chain = sidecar.Chain(self, self.memsys.data_caches)
                self._chain.drain(*batch)
                mem_bytes[stream] = itertools.repeat(None)
            else:
                mem_bytes[stream] = iter(getattr(self.memsys, stream)(*batch))
        runs = (next(mem_bytes[stream]) for stream, _, _ in queue)
        if self._beside:
            self._mem_runs.extend(runs)
            return
        for value in runs:
            self.events.mem_bytes += value

    def _region(self, name: str, default_size: int) -> Region:
        if name in self.space:
            return self.space.get(name)
        return self.space.region(name, max(1, default_size))

    def _note_instructions(self, n: float) -> None:
        self._pending_instructions += n
        if self._pending_instructions >= self.FLUSH_THRESHOLD:
            self._flush_ifetch()

    def _count_data_instr(self, count: float, is_write: bool) -> None:
        if is_write:
            self.events.stores += count
        else:
            self.events.loads += count
        self._note_instructions(count)

    def _flush_ifetch(self) -> None:
        pending = self._pending_instructions
        self._pending_instructions = 0.0
        if pending <= 0 or self.memsys is None:
            return
        profile = self._profile_stack[-1]
        plan = plan_samples(pending, self.ifetch_contraction, self.cap)
        if plan.count == 0:
            return
        region = self.space.region("__code__:" + profile.name, profile.footprint)
        if profile.name not in self._warmed_profiles:
            self._warmed_profiles.add(profile.name)
            self._warm_code(profile, region)
        cursor = self._code_cursors.get(profile.name, 0)
        addresses, cursor = generate_fetch_addresses(
            profile,
            base=region.base,
            contraction=self.contraction,
            count=plan.count,
            cursor=cursor,
            rng=self.rng,
            step=max(1, int(plan.weight * profile.bytes_per_instr / self.contraction)),
        )
        self._code_cursors[profile.name] = cursor
        self._record(FETCH, addresses, plan.weight)

    def _warm_code(self, profile: CodeProfile, region) -> None:
        """Prime L1I/ITLB with the profile's hot loop and warm set.

        The paper collects counters after a ~30 s ramp-up (Section
        6.1.1); short simulated runs would otherwise be dominated by
        one-time cold code misses that the measurement window excludes.
        """
        memsys = self.memsys
        if memsys is None:
            return
        self._drain()       # fetches recorded before now see the caches unprimed
        line = memsys.machine.l1i.line_size
        hot_size = max(line, profile.hot_bytes // self.contraction)
        hot_offsets = np.arange(0, hot_size, line, dtype=np.int64)
        memsys.l1i.prime_many(
            (region.base + hot_offsets) >> (line.bit_length() - 1)
        )
        warm_size = max(hot_size, profile.warm_bytes // self.contraction)
        page = memsys.itlb.config.page_size
        warm_offsets = np.arange(0, warm_size, page, dtype=np.int64)
        memsys.itlb.prime_many(region.base + warm_offsets)

    def _sequential(self, name: str, nbytes: float, elem: int, is_write: bool) -> None:
        if nbytes <= 0:
            return
        region = self._region(name, int(nbytes))
        count = max(1.0, nbytes / max(elem, 1))
        self._count_data_instr(count, is_write)
        if self.memsys is None:
            return
        line = self.memsys.machine.l1d.line_size
        contracted = max(line, int(nbytes) // self.contraction)
        total_lines = max(1, contracted // line)
        plan = plan_samples(total_lines * self.contraction, self.contraction, self.cap)
        if plan.count == 0:
            return
        stride_lines = max(1, total_lines // plan.count)
        offsets = (
            region.cursor
            + np.arange(plan.count, dtype=np.int64) * stride_lines * line
        ) % region.size
        region.cursor = (region.cursor + contracted) % region.size
        weight = (nbytes / line) / plan.count
        self._record(DATA, region.base + offsets, weight)

    def _random(self, name: str, count: float, elem: int, is_write: bool) -> None:
        if count <= 0:
            return
        region = self._region(name, int(count * elem))
        plan = plan_samples(count, self.contraction, self.cap)
        self._count_data_instr(count, is_write)
        if self.memsys is None or plan.count == 0:
            return
        offsets = self.rng.integers(0, region.size, size=plan.count, dtype=np.int64)
        offsets -= offsets % max(1, min(elem, 64))
        self._record(DATA, region.base + offsets, plan.weight)

    def _skewed(
        self, name: str, count: float, elem: int,
        hot_fraction: float, hot_prob: float, is_write: bool,
    ) -> None:
        """Accesses with a hot subset: ``hot_prob`` of accesses land in the
        first ``hot_fraction`` of the region (caches, popular keys)."""
        if count <= 0:
            return
        if not (0.0 < hot_fraction <= 1.0 and 0.0 <= hot_prob <= 1.0):
            raise ValueError("hot_fraction in (0,1], hot_prob in [0,1]")
        region = self._region(name, int(count * elem))
        plan = plan_samples(count, self.contraction, self.cap)
        self._count_data_instr(count, is_write)
        if self.memsys is None or plan.count == 0:
            return
        hot_size = max(64, int(region.size * hot_fraction))
        is_hot = self.rng.random(plan.count) < hot_prob
        offsets = np.empty(plan.count, dtype=np.int64)
        n_hot = int(is_hot.sum())
        if n_hot:
            offsets[is_hot] = self.rng.integers(0, hot_size, size=n_hot, dtype=np.int64)
        n_cold = plan.count - n_hot
        if n_cold:
            offsets[~is_hot] = self.rng.integers(0, region.size, size=n_cold, dtype=np.int64)
        offsets -= offsets % max(1, min(elem, 64))
        self._record(DATA, region.base + offsets, plan.weight)
