"""RunSpec: the single value object describing one characterization run.

Before this, "which run is this?" was answered three different ways --
positional kwargs on :meth:`Harness.characterize`, ``(name, scale,
stack)`` triples in :mod:`repro.core.parallel`, and an ad-hoc tuple for
the disk cache.  A :class:`RunSpec` unifies them: every input that
shapes a result (workload, scale, stack, machine, cluster, seed, fault
plan, serving options) plus ``trace``, with explicit helpers for the
memo key and the persistent-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.node import ClusterSpec
from repro.errors import InputError
from repro.uarch.hierarchy import MachineConfig


@dataclass(frozen=True)
class RunSpec:
    """One fully described characterization point.

    ``stack``, ``machine``, and ``cluster`` may be left None and are
    filled from the owning harness (and the workload's default stack) by
    :meth:`resolved`.  ``trace`` changes how a run executes (span
    recording), never what it computes; :meth:`cache_key` still includes
    it because a traced result stores strictly more data.  Process
    fan-out is not part of a point: it is ``Harness.run_many(jobs=)``.
    """

    workload: str
    scale: int = 1
    stack: Optional[str] = None
    machine: Optional[MachineConfig] = None
    cluster: Optional[ClusterSpec] = None
    #: None means "inherit the harness seed" (0 without a harness);
    #: any int -- including 0 -- is an explicit per-run seed.
    seed: Optional[int] = None
    trace: bool = False
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan or a
    #: spec string like ``"task_crash:rate=0.3"``.  Frozen into the spec
    #: and keyed into the memo and the disk cache, so chaos runs never
    #: collide with fault-free ones.
    faults: Optional["FaultPlan"] = None
    #: Optional serving options (see :mod:`repro.serving.load`): a
    #: ServingOptions or a spec string like ``"diurnal:rps=2000@hedge"``.
    #: Selects the load profile and recovery policy the online-service
    #: workloads run under; keyed into the memo and the disk cache like
    #: ``faults``, so a diurnal run never collides with a constant one.
    serving: Optional["ServingOptions"] = None

    def __post_init__(self):
        if self.scale < 1:
            raise InputError(f"scale must be >= 1, got {self.scale}")
        if self.faults is not None:
            from repro.faults.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                object.__setattr__(self, "faults",
                                   FaultPlan.parse(self.faults))
        if self.serving is not None:
            from repro.serving.load import ServingOptions

            if not isinstance(self.serving, ServingOptions):
                object.__setattr__(self, "serving",
                                   ServingOptions.parse(self.serving))

    def resolved(self, harness=None) -> "RunSpec":
        """Fill defaults and normalize the stack to its canonical name.

        With a harness, None machine/cluster take the harness' testbed
        and None ``seed``/``trace`` inherit harness settings (``trace``
        is sticky-True: either side may request it).  An explicit
        ``seed`` -- including 0 -- always wins.
        """
        from repro.core import registry

        machine, cluster, seed, trace, serving = (
            self.machine, self.cluster, self.seed, self.trace, self.serving)
        if harness is not None:
            machine = machine or harness.machine
            cluster = cluster or harness.cluster
            seed = harness.seed if seed is None else seed
            trace = trace or harness.trace
            serving = serving or getattr(harness, "serving", None)
        if seed is None:
            seed = 0
        stack = registry.create(self.workload).check_stack(self.stack)
        return replace(self, stack=stack, machine=machine, cluster=cluster,
                       seed=seed, trace=trace, serving=serving)

    @property
    def is_resolved(self) -> bool:
        return (self.stack is not None and self.machine is not None
                and self.cluster is not None and self.seed is not None)

    def memo_key(self) -> tuple:
        """The in-memory memo key (requires a resolved spec).

        Mirrors :meth:`cache_key`: every input that shapes a result --
        including ``seed`` and the cluster -- so runs differing only in
        those never collide in the memo.
        """
        self._require_resolved()
        key = (self.workload, self.scale, self.stack, self.machine.name,
               repr(self.cluster), self.seed, self.trace)
        if self.faults is not None:
            key += (("faults", str(self.faults)),)
        if self.serving is not None:
            key += (("serving", str(self.serving)),)
        return key

    def cache_key(self) -> tuple:
        """The persistent-cache key: every input that shapes a result.

        Machine and cluster go in by repr so custom configurations do
        not collide with presets sharing their name; the code
        fingerprint is handled by the cache itself.  The untraced key
        layout is unchanged from the pre-RunSpec harness, so existing
        cache entries stay valid; traced runs get a distinct entry
        (their results carry the span tree).
        """
        self._require_resolved()
        key = ("characterize", self.workload, self.scale, self.stack,
               repr(self.machine), repr(self.cluster), self.seed)
        if self.trace:
            key += ("trace",)
        if self.faults is not None:
            key += (("faults", str(self.faults)),)
        if self.serving is not None:
            key += (("serving", str(self.serving)),)
        return key

    def _require_resolved(self) -> None:
        if not self.is_resolved:
            raise ValueError(
                f"RunSpec for {self.workload!r} is unresolved; call "
                "resolved() (or go through a Harness) before keying")
