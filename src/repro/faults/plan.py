"""FaultPlan: the frozen, hashable description of what to break.

A plan is a tuple of :class:`FaultRule` values plus a recovery switch.
Each rule names a fault *kind* (what breaks), where it may strike
(``scope``, a substring filter on the injection site), and when: either
a probability per opportunity (``rate``) or exact opportunity ordinals
(``at``, matched against the :class:`~repro.faults.clock.FaultClock`
tick of the site).  Plans parse from and render to a compact spec string
so they can travel through CLI flags, memo keys, and cache keys::

    task_crash:rate=0.3;straggler:rate=0.1:factor=6;rank_crash:at=2|4

Rules are pure data: all scheduling decisions live in
:class:`~repro.faults.inject.FaultInjector`, which hashes
``(seed, kind, site, tick)`` -- so a plan is reusable across seeds and
engines without hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InputError, parse_number

#: Every fault kind an engine knows how to inject (and recover from).
#:
#: ``task_crash``    MapReduce map attempt / SQL scan fragment / Spark
#:                   action dies (recovery: bounded retry / re-execute).
#: ``node_kill``     a cluster node is down for the whole run
#:                   (recovery: HDFS replica re-reads).
#: ``straggler``     a slow disk/NIC makes a task or request lag
#:                   (recovery: speculative execution / hedged request).
#: ``msg_drop``      a BSP message is lost at the barrier
#:                   (recovery: retransmit).
#: ``rank_crash``    a BSP rank dies at a superstep boundary
#:                   (recovery: checkpoint-restart).
#: ``block_corrupt`` an SSTable block fails its checksum
#:                   (recovery: verified re-read).
#: ``crash``         the LSM store process dies mid-write
#:                   (recovery: write-ahead-log replay).
#: ``timeout``       a served request times out
#:                   (recovery: retry with exponential backoff + jitter).
#: ``overload``      offered load past saturation
#:                   (recovery: load shedding / graceful degradation).
#: ``slow_disk``     one node's disk degrades to 1/factor bandwidth for
#:                   the whole run (event-driven simulator resource
#:                   modifier; no recovery -- work routes around it).
#: ``slow_nic``      one node's NIC degrades to 1/factor bandwidth for
#:                   the whole run (event-driven simulator resource
#:                   modifier; no recovery -- flows just take longer).
#: ``operator_crash`` a streaming dataflow operator dies mid-window
#:                   (recovery: restore every operator from the last
#:                   completed checkpoint barrier + source replay).
#: ``channel_drop``  a streaming channel loses its in-flight records
#:                   (recovery: restore-from-barrier covers the loss;
#:                   without recovery the records are gone).
#: ``watermark_skew`` the source's watermark lags true event time by
#:                   ``factor`` extra arrival intervals (standing;
#:                   graceful degradation -- windows fire later and
#:                   buffer more state, but outputs never change).
FAULT_KINDS = (
    "task_crash",
    "node_kill",
    "straggler",
    "msg_drop",
    "rank_crash",
    "block_corrupt",
    "crash",
    "timeout",
    "overload",
    "slow_disk",
    "slow_nic",
    "operator_crash",
    "channel_drop",
    "watermark_skew",
)


class UnknownFaultKindError(InputError, KeyError):
    """Raised for a fault kind no engine knows how to inject.

    Mirrors :class:`repro.core.registry.UnknownWorkloadError`: it
    subclasses both InputError (a bad argument -- the message lists
    every valid kind) and KeyError (callers treating FAULT_KINDS as a
    registry catch the lookup that way), and it fires at *parse* time,
    so a typo'd spec string fails when the plan is built instead of
    deep inside injection.
    """

    def __init__(self, kind: str):
        super().__init__(
            f"unknown fault kind {kind!r}; valid kinds: "
            f"{', '.join(FAULT_KINDS)}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]

#: The kitchen-sink plan the ``repro chaos`` CLI uses when ``--faults``
#: is omitted: every kind is armed; each engine family only consults the
#: kinds it implements, so one spec exercises any workload.
DEFAULT_CHAOS_SPEC = (
    "task_crash:rate=0.25;straggler:rate=0.1;node_kill:node=1;"
    "rank_crash:at=2;msg_drop:rate=0.05;crash:at=700;"
    "block_corrupt:rate=0.02;timeout:rate=0.08;overload:rate=1.0;"
    "operator_crash:rate=0.15;channel_drop:rate=0.05;watermark_skew:factor=3"
)


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: a kind plus its trigger and parameters.

    ``rate`` fires probabilistically per opportunity; ``at`` fires at
    exact opportunity ordinals (1-based ticks of the site's clock).  A
    rule may use both.  ``scope`` restricts the rule to sites containing
    the substring (e.g. ``scope=rank3`` or ``scope=mr:sort``).
    ``factor`` parameterizes slowdowns (straggler/unhedged-timeout
    latency multiplier); ``node`` names the victim of ``node_kill``.
    """

    kind: str
    rate: float = 0.0
    at: tuple = ()
    scope: str = ""
    factor: float = 4.0
    node: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise UnknownFaultKindError(self.kind)
        if not 0.0 <= self.rate <= 1.0:
            raise InputError(f"rate must be in [0, 1], got {self.rate}")
        object.__setattr__(self, "at", tuple(int(t) for t in self.at))
        if any(t < 1 for t in self.at):
            raise InputError(f"at ticks are 1-based, got {self.at}")
        if self.factor < 1.0:
            raise InputError(f"factor must be >= 1, got {self.factor}")
        if self.node < 0:
            raise InputError(f"node must be >= 0, got {self.node}")
        if self.rate == 0.0 and not self.at and self.kind not in (
                "node_kill", "overload", "slow_disk", "slow_nic",
                "watermark_skew"):
            raise InputError(
                f"rule {self.kind!r} would never fire: give rate= or at=")

    def __str__(self) -> str:
        parts = [self.kind]
        if self.rate:
            parts.append(f"rate={self.rate:g}")
        if self.at:
            parts.append("at=" + "|".join(str(t) for t in self.at))
        if self.scope:
            parts.append(f"scope={self.scope}")
        if self.factor != 4.0:
            parts.append(f"factor={self.factor:g}")
        if self.kind == "node_kill" or self.node:
            parts.append(f"node={self.node}")
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultRule":
        """Parse one ``kind:param=value:...`` rule."""
        fields = [f.strip() for f in text.strip().split(":") if f.strip()]
        if not fields:
            raise InputError("empty fault rule")
        kind, params = fields[0], {}
        last = None
        for item in fields[1:]:
            name, sep, value = item.partition("=")
            if not sep:
                # A colon inside a value (e.g. scope=mr:sort) splits the
                # field; glue the orphan back onto the last parameter.
                if last is None:
                    raise InputError(
                        f"malformed parameter {item!r} in rule {text!r} "
                        "(expected name=value)")
                params[last] += ":" + item
                continue
            last = name.strip()
            params[last] = value.strip()
        kwargs = {}
        for name, value in params.items():
            if name == "scope":
                kwargs["scope"] = value
            elif name == "at":
                kwargs["at"] = tuple(parse_number(int, t, name, text)
                                     for t in value.split("|") if t)
            elif name in ("rate", "factor", "node"):
                kwargs[name] = parse_number(
                    int if name == "node" else float, value, name, text)
            else:
                raise InputError(
                    f"unknown parameter {name!r} in rule {text!r}; valid: "
                    "rate, at, scope, factor, node")
        return cls(kind=kind, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, hashable set of armed faults plus the recovery switch.

    ``recovery=True`` (the default) engages each engine's recovery
    machinery, preserving the bit-identical-output invariant;
    ``recovery=False`` lets faults destroy work so loss is observable.
    ``checkpoint_interval`` is the BSP checkpoint cadence in supersteps.
    """

    rules: tuple = field(default_factory=tuple)
    recovery: bool = True
    checkpoint_interval: int = 2

    def __post_init__(self):
        rules = tuple(
            FaultRule.parse(r) if isinstance(r, str) else r
            for r in self.rules)
        for rule in rules:
            if not isinstance(rule, FaultRule):
                raise InputError(f"not a FaultRule: {rule!r}")
        object.__setattr__(self, "rules", rules)
        if self.checkpoint_interval < 1:
            raise InputError(
                f"checkpoint_interval must be >= 1, got "
                f"{self.checkpoint_interval}")

    @classmethod
    def parse(cls, spec: str, recovery: bool = True,
              checkpoint_interval: int = 2) -> "FaultPlan":
        """Parse a ``rule;rule;...`` spec string into a plan.

        Accepts the trailing ``[no-recovery]`` / ``[ckpt=N]`` flags that
        :meth:`__str__` emits, so ``FaultPlan.parse(str(plan)) == plan``
        -- the round-trip the memo and cache keys rely on.
        """
        if isinstance(spec, FaultPlan):
            return spec
        body = str(spec).strip()
        saw_flag = False
        while body.endswith("]") and "[" in body:
            body, _, flag = body.rpartition("[")
            flag = flag[:-1].strip()
            if flag == "no-recovery":
                recovery = False
            elif flag.startswith("ckpt="):
                checkpoint_interval = parse_number(
                    int, flag[len("ckpt="):], "ckpt", spec)
            else:
                raise InputError(f"unknown plan flag {flag!r} in {spec!r}")
            saw_flag = True
            body = body.strip()
        rules = tuple(
            FaultRule.parse(part)
            for part in body.split(";") if part.strip())
        if not rules and not saw_flag:
            # A flag-only spec (e.g. "[ckpt=4]") is a valid rule-free
            # plan: checkpointing configured, nothing armed.  A fully
            # empty spec is still a mistake.
            raise InputError(f"fault spec {spec!r} contains no rules")
        return cls(rules=rules, recovery=recovery,
                   checkpoint_interval=checkpoint_interval)

    def for_kind(self, kind: str) -> tuple:
        """The rules armed for one fault kind."""
        return tuple(r for r in self.rules if r.kind == kind)

    def kinds(self) -> tuple:
        """Every kind with at least one armed rule, in FAULT_KINDS order."""
        armed = {r.kind for r in self.rules}
        return tuple(k for k in FAULT_KINDS if k in armed)

    def __str__(self) -> str:
        body = ";".join(str(r) for r in self.rules)
        suffix = "" if self.recovery else " [no-recovery]"
        if self.checkpoint_interval != 2:
            suffix += f" [ckpt={self.checkpoint_interval}]"
        # A rule-free plan (flags only) strips to just the flags.
        return (body + suffix).strip()
