"""The streaming dataflow runtime: source -> operators -> sink.

One linear pipeline runs over a pre-materialized, event-time-ordered
batch list (the replayable form of a :mod:`repro.datagen.stream`
stream).  The runtime drives it in deterministic cycles:

1. the sink drains its channel (committing output, completing
   checkpoints);
2. operators drain their input channels downstream-first, each up to
   its per-cycle ``budget`` -- a full downstream channel refuses data,
   which stalls the producer and propagates backpressure upstream;
3. the source emits up to ``source_burst`` batches (or throttles when
   its channel is full -- graceful degradation, charged through the
   :class:`~repro.cluster.ledger.CostLedger` as stall seconds so the
   slowdown shows up in modeled time), interleaving watermarks and,
   every ``checkpoint_interval`` batches, an aligned checkpoint
   barrier.

Checkpoints are Chandy-Lamport aligned barriers: each operator
snapshots its state as the barrier passes, and the checkpoint completes
when the barrier reaches the sink.  Recovery (``operator_crash`` /
``channel_drop`` with ``recovery=True``) restores every operator from
the last *completed* checkpoint, clears the channels, and rewinds the
source to the barrier's offset -- replay then reconstructs everything
in flight.  In ``exactly-once`` mode the sink is transactional (output
stages until the next barrier commits it), so restored runs commit the
bit-identical emission sequence of a fault-free run; in
``at-least-once`` mode the sink commits immediately and replay visibly
re-emits -- the duplicate-delta negative control.

All fault decisions are the injector's :mod:`repro.sitehash` draws; the engine
consumes no RNG at all, so the functional path is bit-deterministic
serially and across process pools.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.cluster.ledger import CostLedger
from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.faults.inject import resolve_faults
from repro.obs.metrics import METRICS
from repro.streaming.channel import Barrier, Channel, DataBatch, Watermark
from repro.streaming.operators import Emission
from repro.uarch.perfctx import context_or_null

#: Execution modes: transactional sink vs immediate sink.
EXACTLY_ONCE = "exactly-once"
AT_LEAST_ONCE = "at-least-once"
STREAM_MODES = (EXACTLY_ONCE, AT_LEAST_ONCE)

#: Fixed restart cost (process respawn + state reload), mirroring
#: ``mpi/bsp.py``'s checkpoint-restart constant.
RESTART_FIXED_SECONDS = 3.0

#: Fixed cost of writing one completed checkpoint to durable storage.
CHECKPOINT_FIXED_SECONDS = 0.05

#: Restore bound: past this the injector is ignored so a hostile plan
#: (rate=1.0) cannot livelock replay.  Every restore up to the bound
#: succeeded, so the exactly-once invariant is unaffected.
MAX_RESTARTS = 8


@dataclass
class Dataflow:
    """One pipeline: replayable source batches through operators."""

    name: str
    batches: list
    operators: list
    mode: str = EXACTLY_ONCE
    #: Source data batches between checkpoint barriers (a fault plan's
    #: ``[ckpt=N]`` flag overrides this when an injector is attached).
    checkpoint_interval: int = 8
    #: In-flight data-batch bound per channel (the backpressure knob).
    capacity: int = 8
    #: Batches the source may emit per cycle; more than the slowest
    #: operator's budget, so sustained imbalance throttles the source.
    source_burst: int = 3
    #: Mean arrival interval in seconds (stall charging + watermark lag).
    mean_interval: float = 1.0

    def __post_init__(self):
        if self.mode not in STREAM_MODES:
            raise ValueError(
                f"mode must be one of {STREAM_MODES}, got {self.mode!r}")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if not self.operators:
            raise ValueError("dataflow needs at least one operator")


class StreamSink:
    """Terminal operator: collects emissions, transactionally or not."""

    def __init__(self, mode: str):
        self.mode = mode
        self.committed: list = []
        self.staged: list = []

    def accept(self, emission: Emission) -> None:
        if self.mode == EXACTLY_ONCE:
            self.staged.append(emission)
        else:
            self.committed.append(emission)

    def on_barrier(self) -> None:
        """Commit the epoch (exactly-once); a no-op otherwise."""
        if self.staged:
            self.committed.extend(self.staged)
            self.staged = []

    def discard(self) -> None:
        """Restore path: staged-but-uncommitted output never happened."""
        self.staged = []


@dataclass
class StreamResult:
    """Functional output and accounting of one dataflow run."""

    name: str
    mode: str
    committed: list
    cost: object
    counters: dict = field(default_factory=dict)

    @property
    def windows(self) -> int:
        return len(self.committed)

    @property
    def events(self) -> int:
        return sum(e.events for e in self.committed)

    @property
    def duplicates(self) -> int:
        """Committed emissions that are exact re-emissions (at-least-once
        replay leaves these; exactly-once must keep this at zero)."""
        seen: dict = {}
        for emission in self.committed:
            key = emission.identity()
            seen[key] = seen.get(key, 0) + 1
        return sum(count - 1 for count in seen.values() if count > 1)

    def digest(self) -> str:
        """Order-sensitive blake2b over the committed emission sequence --
        the bit-identity the chaos invariant compares."""
        h = hashlib.blake2b(digest_size=16)
        for e in self.committed:
            h.update(f"{e.operator}|{e.window_start}|{e.window_end}|".encode())
            h.update(e.keys.tobytes())
            h.update(e.values.tobytes())
        return h.hexdigest()


class _Restart(Exception):
    """Internal: unwind the cycle after a restore-from-barrier."""


class StreamRuntime:
    """Executes one :class:`Dataflow` under faults and cost accounting."""

    def __init__(self, cluster: ClusterSpec = PAPER_CLUSTER, ctx=None,
                 faults=None):
        self.cluster = cluster
        self.ctx = context_or_null(ctx)
        self.faults = resolve_faults(self.ctx, faults)

    def run(self, flow: Dataflow) -> StreamResult:
        ctx, faults = self.ctx, self.faults
        ledger = CostLedger(self.cluster, ctx)
        ops = flow.operators
        n = len(ops)
        chans = [Channel(flow.capacity, name=f"{flow.name}:chan{i}")
                 for i in range(n + 1)]
        for op in ops:
            op.open(ctx)
        sink = StreamSink(flow.mode)

        cadence = flow.checkpoint_interval
        if faults.enabled and faults.plan is not None:
            cadence = faults.plan.checkpoint_interval
        skew = faults.standing("watermark_skew", f"stream:{flow.name}:source")
        lag = flow.mean_interval * (1.0 + (skew.factor if skew else 0.0))

        state = {
            "offset": 0, "max_event": float("-inf"),
            "watermark": float("-inf"), "since_barrier": 0,
            "barrier_seq": 0, "flushed": False, "final_barrier": None,
            "restarts": 0,
        }
        #: Last *completed* checkpoint; barrier 0 is the initial state,
        #: so recovery is defined before the first barrier commits.
        ckpt = {"barrier_id": 0, "offset": 0, "nbytes": 0,
                "states": [op.snapshot() for op in ops]}
        pending: dict = {}
        counters = {
            "source_batches": 0, "source_events": 0, "checkpoints": 0,
            "restores": 0, "replayed_batches": 0, "throttled_batches": 0,
            "backpressure_stalls": 0, "dropped_batches": 0, "cycles": 0,
            "watermark_lag_s": lag,
        }
        done = False

        def restore():
            """Restore-from-last-barrier: operators, channels, source."""
            state["restarts"] += 1
            counters["restores"] += 1
            counters["replayed_batches"] += state["offset"] - ckpt["offset"]
            for op, snap in zip(ops, ckpt["states"]):
                op.open(ctx)
                op.restore(snap)
            for chan in chans:
                chan.clear()
            pending.clear()
            sink.discard()
            state["offset"] = ckpt["offset"]
            state["max_event"] = (
                flow.batches[ckpt["offset"] - 1].event_time
                if ckpt["offset"] else float("-inf"))
            state["watermark"] = float("-inf")
            state["since_barrier"] = 0
            state["flushed"] = False
            state["final_barrier"] = None
            ledger.charge(
                f"stream:restore:{counters['restores']}",
                disk_read_bytes=max(ckpt["nbytes"], 1024),
                fixed_seconds=RESTART_FIXED_SECONDS)
            faults.recovered(
                "barrier_restore", f"stream:{flow.name}",
                barrier=ckpt["barrier_id"], offset=ckpt["offset"])
            METRICS.counter("streaming.restores").inc()
            raise _Restart

        def emit_barrier():
            state["barrier_seq"] += 1
            bid = state["barrier_seq"]
            pending[bid] = {"offset": state["offset"],
                            "states": [None] * n, "nbytes": 0}
            chans[0].push(Barrier(bid, state["offset"]))
            # channel_drop opportunity: once per channel per epoch.
            if faults.active_for("channel_drop") \
                    and state["restarts"] < MAX_RESTARTS:
                for i, chan in enumerate(chans):
                    site = f"stream:{flow.name}:chan{i}"
                    if faults.fires("channel_drop", site) is None:
                        continue
                    dropped = chan.drop_data()
                    counters["dropped_batches"] += len(dropped)
                    if not dropped:
                        continue
                    if faults.recovery:
                        restore()
                    faults.lost("in_flight_batches", site,
                                batches=len(dropped))
            return bid

        def sink_cycle():
            nonlocal done
            while len(chans[n]):
                elem = chans[n].pop()
                if isinstance(elem, Emission):
                    sink.accept(elem)
                elif isinstance(elem, Barrier):
                    entry = pending.pop(elem.barrier_id, None)
                    if entry is None:
                        continue
                    ckpt.update(barrier_id=elem.barrier_id,
                                offset=entry["offset"],
                                states=entry["states"],
                                nbytes=entry["nbytes"])
                    counters["checkpoints"] += 1
                    ledger.charge(
                        f"stream:checkpoint:{elem.barrier_id}",
                        disk_write_bytes=max(entry["nbytes"], 1024),
                        fixed_seconds=CHECKPOINT_FIXED_SECONDS)
                    METRICS.counter("streaming.checkpoints").inc()
                    sink.on_barrier()
                    if elem.barrier_id == state["final_barrier"]:
                        done = True

        def operator_cycle(i):
            op, upstream, downstream = ops[i], chans[i], chans[i + 1]
            if not len(upstream):
                return
            processed = 0
            with ctx.span(f"stream:op:{op.name}", category="stream"):
                while len(upstream):
                    head = upstream.peek()
                    if isinstance(head, DataBatch):
                        if processed >= op.budget:
                            break
                        if downstream.full:
                            counters["backpressure_stalls"] += 1
                            break
                        batch = upstream.pop()
                        processed += 1
                        if faults.active_for("operator_crash") \
                                and state["restarts"] < MAX_RESTARTS:
                            site = f"stream:{flow.name}:op:{op.name}"
                            if faults.fires("operator_crash", site):
                                if faults.recovery:
                                    restore()
                                # No recovery: the operator's volatile
                                # state and the in-hand batch are gone.
                                faults.lost("operator_state", site,
                                            op=op.name, batch=batch.sequence)
                                op.open(ctx)
                                continue
                        for out in op.process(batch):
                            downstream.push(out)
                    elif isinstance(head, Watermark):
                        upstream.pop()
                        for out in op.on_watermark(head.time):
                            downstream.push(out)
                        downstream.push(head)
                    else:  # Barrier: snapshot and forward (aligned).
                        upstream.pop()
                        entry = pending.get(head.barrier_id)
                        if entry is not None:
                            entry["states"][i] = op.snapshot()
                            entry["nbytes"] += op.state_bytes()
                        downstream.push(head)

        def source_cycle():
            if state["offset"] < len(flow.batches):
                for _ in range(flow.source_burst):
                    if state["offset"] >= len(flow.batches):
                        break
                    if chans[0].full:
                        counters["throttled_batches"] += 1
                        break
                    batch = flow.batches[state["offset"]]
                    chans[0].push(batch)
                    state["offset"] += 1
                    counters["source_batches"] += 1
                    counters["source_events"] += batch.size
                    ctx.seq_read(f"stream:{flow.name}:source", batch.nbytes)
                    meter.disk_read_bytes += batch.nbytes
                    state["max_event"] = max(state["max_event"],
                                             batch.event_time)
                    wm = state["max_event"] - lag
                    if wm > state["watermark"]:
                        state["watermark"] = wm
                        chans[0].push(Watermark(wm))
                    state["since_barrier"] += 1
                    if state["since_barrier"] >= cadence:
                        state["since_barrier"] = 0
                        emit_barrier()
            elif not state["flushed"]:
                # End of stream: flush every window, then a final
                # barrier whose completion commits and terminates.
                state["flushed"] = True
                chans[0].push(Watermark(float("inf")))
                state["final_barrier"] = emit_barrier()

        # Generous wedge guard: a healthy run needs ~|batches| cycles
        # (plus bounded replay); past this something is stuck.
        max_cycles = 10_000 + 100 * len(flow.batches)
        with ledger.measured(f"stream:{flow.name}") as meter:
            while not done:
                counters["cycles"] += 1
                if counters["cycles"] > max_cycles:
                    raise RuntimeError(
                        f"stream {flow.name!r} made no progress after "
                        f"{max_cycles} cycles")
                try:
                    sink_cycle()
                    for i in range(n - 1, -1, -1):
                        operator_cycle(i)
                    source_cycle()
                except _Restart:
                    continue

        if counters["throttled_batches"]:
            # Backpressure throttling is graceful degradation: the
            # source slowed down instead of dropping data, and the stall
            # time is real modeled seconds.
            ledger.charge(
                "stream:backpressure",
                fixed_seconds=counters["throttled_batches"]
                * flow.mean_interval)

        result = StreamResult(
            name=flow.name, mode=flow.mode, committed=sink.committed,
            cost=ledger.job, counters=dict(counters))
        METRICS.counter("streaming.source_batches").inc(
            counters["source_batches"])
        METRICS.counter("streaming.events").inc(counters["source_events"])
        METRICS.counter("streaming.windows").inc(result.windows)
        if counters["throttled_batches"]:
            METRICS.counter("streaming.throttled").inc(
                counters["throttled_batches"])
        if result.duplicates:
            METRICS.counter("streaming.duplicates").inc(result.duplicates)
        return result
