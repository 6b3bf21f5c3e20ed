"""The scenario driver: run one logical scenario against one backend.

The driver speaks only the :class:`~repro.scenarios.backend
.StorageBackend` protocol -- it never imports ``repro.nosql`` or
``repro.sql``; backend construction goes through the adapter registry
in :func:`make_backend`.

Execution model
---------------
1. **Load** (unprofiled, fault-free): the scenario's preload records are
   written and drained before the context is attached, mirroring the
   Cloud OLTP preload idiom.  The load is charged as a single fixed
   phase (bulk-load seconds + the preloaded bytes as disk writes), and
   any byte traffic the backing engine accumulated is swallowed so the
   measured op phase starts from a clean snapshot.
2. **Ops** (profiled, fault-injectable): the op stream executes in
   order under the ``scenario:<name>`` span.  Metered backends run
   inside ``ledger.measured("scenario:ops")`` and fill the pending
   phase via :meth:`~repro.scenarios.backend.StorageBackend
   .charge_phase`; self-charging backends (SQL) have their per-query
   JobCosts absorbed instead.
3. **Digest**: every logical read result (point reads, scan rows) and
   transaction outcome folds into a blake2b digest -- the scenario's
   functional answer.  Two runs agree on the digest iff they agreed on
   every value every read observed.

Fault injection
---------------
Each *data* op (read/write/delete/scan -- not txn control) is an
injection opportunity at site ``scenario:<name>:op:<i>`` for kind
``task_crash``: the client request dies mid-flight.  With recovery, the
driver replays the op -- the first attempt's work is wasted (charged,
under a ``recovery:op_retry`` span) and the retry's result is the one
digested; protocol ops are idempotent and the write-behind drain clock
ticks per *logical* op, so a recovered run is bit-identical to the
fault-free run.  Without recovery the op is skipped and a loss marker
folds into the digest (the answer visibly diverges).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.cluster.ledger import CostLedger
from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.errors import InputError
from repro.obs.metrics import METRICS
from repro.scenarios import library
from repro.scenarios.backend import Knobs, StorageBackend
from repro.uarch.perfctx import context_or_null

#: Fixed coordination seconds of the bulk load phase (paper-scale).
LOAD_FIXED_SECONDS = 2.0

#: Op kinds that are fault-injection opportunities.
DATA_OPS = frozenset(("read", "write", "delete", "scan"))

#: The backend registry: name -> adapter class, resolved lazily so the
#: driver module itself never imports engine internals.
BACKEND_NAMES = ("lsm", "sql", "dict")


def make_backend(name: str, knobs=None, ctx=None,
                 cluster: ClusterSpec = PAPER_CLUSTER) -> StorageBackend:
    """Construct a protocol adapter by registry name."""
    if name == "lsm":
        from repro.scenarios.lsm_backend import LsmBackend
        return LsmBackend(knobs, ctx)
    if name == "sql":
        from repro.scenarios.sql_backend import SqlBackend
        return SqlBackend(knobs, ctx, cluster=cluster)
    if name == "dict":
        from repro.scenarios.dict_backend import DictBackend
        return DictBackend(knobs, ctx)
    raise InputError(f"unknown backend {name!r}; known: "
                     f"{', '.join(BACKEND_NAMES)}")


@dataclass
class ScenarioResult:
    """Outcome of one scenario run on one backend."""

    scenario: str
    backend: str
    knobs: str
    seed: int
    scale: int
    #: Logical operations executed (the stream length).
    ops: int
    #: blake2b hex digest over every logical read result and txn
    #: outcome -- the functional answer of the run.
    digest: str
    #: Live records in the backing store after the run.
    records: int
    #: Logical op mix of the scenario (from the op stream itself, so
    #: stable under fault retries).
    op_mix: dict
    #: Protocol-level *executed* counters (reads, writes, scans, ...).
    #: Retried ops execute twice, so these move under recovered chaos --
    #: bookkeeping, not part of the functional answer.
    counts: dict
    #: Ops replayed after an injected crash (recovery on).
    op_retries: int
    #: Ops dropped to an injected crash (recovery off).
    ops_lost: int
    cost: object
    #: Backing-engine bookkeeping (flushes, queries, ...) -- excluded
    #: from the functional fingerprint.
    work: dict = field(default_factory=dict)


def run_scenario(name: str, backend="lsm", knobs=None, ctx=None,
                 cluster: ClusterSpec = PAPER_CLUSTER, seed: int = 0,
                 scale: int = 1, faults=None) -> ScenarioResult:
    """Run scenario ``name`` against ``backend`` and return the result.

    ``backend`` is a registry name or an already-constructed
    :class:`StorageBackend` (the equivalence tests pass adapters
    directly); ``faults`` defaults to the injector attached to ``ctx``.
    """
    from repro.faults.inject import resolve_faults

    ctx = context_or_null(ctx)
    scenario = library.build(name, scale=scale, seed=seed)
    if isinstance(backend, StorageBackend):
        engine = backend
    else:
        engine = make_backend(backend, knobs, ctx=None, cluster=cluster)
    faults = resolve_faults(ctx, faults)
    ledger = CostLedger(cluster, ctx=ctx, cpi=engine.CPI)

    with ctx.span(f"scenario:{name}", category="scenario",
                  backend=engine.name, knobs=str(engine.knobs)) as sp:
        with ctx.span("scenario:load", category="scenario",
                      records=len(scenario.preload)):
            _load(engine, scenario, ledger)
        digest = hashlib.blake2b(digest_size=16)
        retries, lost = _run_ops(engine, scenario, ctx, ledger, faults,
                                 digest)
        sp.set("ops", len(scenario.ops))
        sp.set("digest", digest.hexdigest())

    result = ScenarioResult(
        scenario=name, backend=engine.name, knobs=str(engine.knobs),
        seed=seed, scale=scale, ops=len(scenario.ops),
        digest=digest.hexdigest(), records=engine.record_count(),
        op_mix=scenario.op_counts(), counts=engine.stats.as_dict(),
        op_retries=retries, ops_lost=lost,
        cost=ledger.job, work=engine.work(),
    )
    _note_metrics(result)
    return result


# -- internals -----------------------------------------------------------------

def _load(engine: StorageBackend, scenario, ledger: CostLedger) -> None:
    """Preload phase: unprofiled, fault-free, charged as one fixed phase."""
    for key, size in scenario.preload:
        engine.write(key, size)
    engine.close()        # drain everything regardless of commit knob
    # Fresh measured-phase baseline: preload traffic is not the op
    # stream's to bill.
    engine.stats = type(engine.stats)()
    engine.charge_phase(_Discard())
    engine.drain_costs()
    ledger.charge("scenario:load", fixed_seconds=LOAD_FIXED_SECONDS,
                  disk_write_bytes=scenario.preload_bytes,
                  working_bytes=scenario.preload_bytes)


class _Discard:
    """Bottomless PendingPhase stand-in for swallowing preload deltas."""

    def __setattr__(self, name, value):
        pass

    def __getattr__(self, name):
        return 0.0


def _run_ops(engine, scenario, ctx, ledger, faults, digest):
    """Execute the op stream; returns (op_retries, ops_lost)."""
    engine.attach(ctx)
    retries = lost = 0
    site_base = f"scenario:{scenario.name}:op:"
    if engine.self_charging:
        with ctx.span("scenario:ops", category="scenario"):
            retries, lost = _op_loop(engine, scenario, ctx, faults,
                                     digest, site_base)
        ledger.absorb(*engine.drain_costs())
    else:
        with ledger.measured("scenario:ops") as pending:
            retries, lost = _op_loop(engine, scenario, ctx, faults,
                                     digest, site_base)
            engine.charge_phase(pending)
    return retries, lost


def _op_loop(engine, scenario, ctx, faults, digest, site_base):
    retries = lost = 0
    for i, op in enumerate(scenario.ops):
        if (op[0] in DATA_OPS and faults.enabled
                and faults.fires("task_crash", site_base + str(i))
                is not None):
            if faults.recovery:
                # The in-flight request died: its work is wasted, the
                # client replays the (idempotent) op and only the
                # retry's answer counts.
                _apply_op(engine, op, _NULL_DIGEST)
                with ctx.span("recovery:op_retry", category="faults",
                              op=op[0]):
                    _apply_op(engine, op, digest)
                faults.recovered("op_retry", site_base + str(i), op=op[0])
                retries += 1
            else:
                digest.update(b"lost|%d" % i)
                faults.lost("op", site_base + str(i), op=op[0])
                lost += 1
        else:
            _apply_op(engine, op, digest)
        engine.tick()
    engine.close()
    return retries, lost


class _NullDigest:
    def update(self, data):
        pass


_NULL_DIGEST = _NullDigest()


def _apply_op(engine, op, digest) -> None:
    kind = op[0]
    if kind == "read":
        stamp = engine.read(op[1])
        digest.update(b"r|%d|%d" % (op[1], -1 if stamp is None else stamp))
    elif kind == "write":
        engine.write(op[1], op[2])
    elif kind == "delete":
        engine.delete(op[1])
    elif kind == "scan":
        rows = engine.scan(op[1], op[2])
        digest.update(b"s|%d" % op[1])
        for key, stamp in rows:
            digest.update(b"|%d:%d" % (key, stamp))
    elif kind == "begin":
        engine.begin()
    elif kind == "commit":
        engine.commit()
        digest.update(b"c")
    elif kind == "rollback":
        engine.rollback()
        digest.update(b"x")
    else:
        raise ValueError(f"unknown scenario op {kind!r}")


def _note_metrics(result: ScenarioResult) -> None:
    counts = result.counts
    METRICS.counter("scenarios.runs").inc()
    METRICS.counter("scenarios.ops").inc(result.ops)
    METRICS.counter("scenarios.reads").inc(counts["reads"])
    METRICS.counter("scenarios.writes").inc(counts["writes"]
                                            + counts["deletes"])
    METRICS.counter("scenarios.scans").inc(counts["scans"])
    METRICS.counter("scenarios.txns").inc(counts["begins"])
    METRICS.counter("scenarios.rollbacks").inc(counts["rollbacks"])
    METRICS.counter("scenarios.op_retries").inc(result.op_retries)
