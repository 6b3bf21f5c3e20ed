"""FaultInjector: deterministic fault decisions plus the event record.

Every decision is a pure function of ``(seed, kind, site, tick)``: the
tick comes from the run's :class:`~repro.faults.clock.FaultClock`, and
probabilistic rules compare the :func:`repro.sitehash.unit` variate of
those four values against the rule's rate.  No shared RNG is ever
consumed, so injecting faults can never perturb a workload's own random
streams -- a prerequisite for the bit-identical-output invariant.

The injector doubles as the chaos layer's flight recorder: every
injected fault, recovery action, and lost-work note is appended to an
ordered event log (and mirrored into the ``faults.*`` / ``recovery.*``
metrics of :mod:`repro.obs.metrics`), which the harness stores on the
run result for the ``repro chaos`` report and the determinism tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.clock import FaultClock
from repro.faults.plan import FaultPlan, FaultRule
from repro.sitehash import unit


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the chaos flight record.

    ``phase`` is ``"fault"`` (something broke), ``"recovery"`` (the
    engine repaired it), or ``"lost"`` (recovery was off or exhausted
    and work was destroyed).  ``kind`` is the fault kind or the recovery
    action name; ``detail`` is a sorted tuple of (name, value) pairs.
    """

    seq: int
    phase: str
    kind: str
    site: str
    tick: int = 0
    detail: tuple = ()

    def __str__(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.detail)
        return f"#{self.seq} {self.phase}:{self.kind} @ {self.site}[{self.tick}]{extra}"


class NullFaultInjector:
    """The fault-free injector: nothing fires, nothing is recorded.

    Engines always hold an injector (this one by default), so the hot
    paths cost a single attribute check when chaos is off.
    """

    enabled = False
    recovery = True
    plan: Optional[FaultPlan] = None
    events: tuple = ()

    def fires(self, kind: str, site: str) -> Optional[FaultRule]:
        return None

    def active_for(self, kind: str) -> bool:
        return False

    def node_killed(self, node: int) -> bool:
        return False

    def standing(self, kind: str, site: str) -> Optional[FaultRule]:
        return None

    def recovered(self, action: str, site: str, **detail) -> None:
        pass

    def lost(self, what: str, site: str, **detail) -> None:
        pass

    def event_log(self) -> tuple:
        return ()

    def summary(self) -> dict:
        return {"faults": {}, "recoveries": {}, "lost": {}}


#: Shared no-op injector (analogous to NULL_TRACER / NULL_CONTEXT).
NULL_FAULTS = NullFaultInjector()


class FaultInjector(NullFaultInjector):
    """Executes a :class:`FaultPlan` deterministically for one run."""

    enabled = True

    def __init__(self, plan, seed: int = 0):
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.plan = plan
        self.seed = int(seed)
        self.clock = FaultClock()
        self.events: list = []
        self._by_kind: dict = {}
        for rule in plan.rules:
            self._by_kind.setdefault(rule.kind, []).append(rule)
        self._dead_reported: set = set()
        self._standing_reported: set = set()

    @property
    def recovery(self) -> bool:
        return self.plan.recovery

    def active_for(self, kind: str) -> bool:
        """Whether any rule arms ``kind`` (lets engines skip dead code)."""
        return kind in self._by_kind

    def fires(self, kind: str, site: str) -> Optional[FaultRule]:
        """Does a ``kind`` fault strike this opportunity at ``site``?

        Advances the site's clock exactly when rules are armed for the
        kind, evaluates rules in plan order, records the fault, and
        returns the rule that fired (None otherwise).
        """
        rules = self._by_kind.get(kind)
        if not rules:
            return None
        tick = self.clock.tick(f"{kind}@{site}")
        for rule in rules:
            if rule.scope and rule.scope not in site:
                continue
            if tick in rule.at or (
                    rule.rate > 0.0
                    and unit(self.seed, f"{site}|{kind}:{tick}") < rule.rate):
                self._record("fault", kind, site, tick)
                return rule
        return None

    def node_killed(self, node: int) -> bool:
        """Whether cluster node ``node`` is down for this whole run."""
        for rule in self._by_kind.get("node_kill", ()):
            if rule.node == int(node):
                if node not in self._dead_reported:
                    self._dead_reported.add(node)
                    self._record("fault", "node_kill", f"node:{node}", 0)
                return True
        return False

    def standing(self, kind: str, site: str) -> Optional[FaultRule]:
        """A standing (whole-run) condition like ``overload``: returns
        the armed rule without consuming a clock tick, recording the
        fault once per site."""
        for rule in self._by_kind.get(kind, ()):
            if rule.scope and rule.scope not in site:
                continue
            if (kind, site) not in self._standing_reported:
                self._standing_reported.add((kind, site))
                self._record("fault", kind, site, 0)
            return rule
        return None

    def recovered(self, action: str, site: str, **detail) -> None:
        """Record one successful recovery action (``recovery.*`` metrics)."""
        self._record("recovery", action, site, 0, detail)

    def lost(self, what: str, site: str, **detail) -> None:
        """Record destroyed work (recovery off/exhausted; ``faults.lost``)."""
        self._record("lost", what, site, 0, detail)

    def event_log(self) -> tuple:
        """The ordered flight record, as an immutable snapshot."""
        return tuple(self.events)

    def summary(self) -> dict:
        """Event counts: faults by kind, recoveries by action, losses."""
        out = {"faults": {}, "recoveries": {}, "lost": {}}
        buckets = {"fault": out["faults"], "recovery": out["recoveries"],
                   "lost": out["lost"]}
        for event in self.events:
            bucket = buckets[event.phase]
            bucket[event.kind] = bucket.get(event.kind, 0) + 1
        return out

    # -- internals -------------------------------------------------------------

    def _record(self, phase: str, kind: str, site: str, tick: int,
                detail: dict = None) -> None:
        from repro.obs.metrics import METRICS

        packed = tuple(sorted(detail.items())) if detail else ()
        self.events.append(FaultEvent(
            seq=len(self.events) + 1, phase=phase, kind=kind, site=site,
            tick=tick, detail=packed,
        ))
        if phase == "fault":
            METRICS.counter("faults.injected").inc()
            METRICS.counter(f"faults.{kind}").inc()
        elif phase == "recovery":
            METRICS.counter("recovery.actions").inc()
            METRICS.counter(f"recovery.{kind}").inc()
        else:
            METRICS.counter("faults.lost").inc()
            METRICS.counter(f"faults.lost.{kind}").inc()


def resolve_faults(ctx=None, faults=None):
    """Normalize an injector argument the way engines consume it.

    Precedence: an explicit injector wins; otherwise the one the harness
    attached to the profiling context (``ctx.faults``); otherwise the
    shared null injector.  Engines call this once at construction so
    their hot paths never branch on None.
    """
    if faults is not None:
        return faults
    attached = getattr(ctx, "faults", None)
    return attached if attached is not None else NULL_FAULTS
