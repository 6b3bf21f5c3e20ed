"""The serving replay engine: batched numpy over the request plane.

Stated one event at a time, the replay is a Python heap -- ~100k
simulated requests per second, which would cap every SLO study at short
windows (a single diurnal *day* at modest rates is 10^8+ events).  That
heap loop is kept as the test oracle
``tests/serving/reference_replay.py``; this module replays the same
stream through the same per-node core/NIC FIFO semantics
**bit-identically** -- the same IEEE-754 additions, multiplications,
maxima, and divisions applied to the same operands in the same
per-accumulator order -- at 10x+ the rate, the same playbook
:mod:`repro.cluster.vector` applied to the cluster event plane.

How the batching preserves the bits
-----------------------------------

The heap loop interleaves two event kinds on one time-ordered heap:
DISPATCH (a request reaches the front door, pops the earliest-free
service slot, serializes through the node's inbound NIC) and COMPLETE
(its service finishes, serializes through the outbound NIC, then the
recovery policies run).  Three observations unlock batching:

1. **Feedback-free configurations split into two phases.**  With an
   open-loop stream and no hedge/retry policy and no armed
   ``timeout``/``straggler`` rule, processing a COMPLETE never mutates
   dispatch state (the free-slot heap, the inbound NICs) -- so all
   dispatches can run first, in arrival order, and all completions
   after, in ``(end, dispatch-seq)`` order, each phase over flat
   ``slot_free`` / ``nic_in`` / ``nic_out`` arrays.  Load shedding is
   allowed in this fast path (a shed admission consumes inbound NIC
   time but never a slot), as is a standing ``overload`` rule (it only
   tightens the shed bound).

2. **Within a phase, frontier rounds advance whole cohorts.**  Sorting
   slots by ``(free_time, slot_id)`` reproduces the heap's pop order,
   so the next batch of arrivals pairs elementwise with the sorted
   slots; the pairing stays valid while the running minimum of batch
   *end* times beats the next slot's free time (a freed slot re-entering
   the heap would otherwise win the pop).  The per-node NIC FIFO
   chains of a batch -- inbound for a dispatch round, outbound for the
   completions -- are settled as fixpoints by full-vector passes
   (:func:`_fifo_chains`): chains that do not interact cost one pass.
   Near saturation the valid prefix collapses, so the engine adaptively
   falls back to a tight flat-array scan (identical arithmetic, no
   numpy round overhead).

3. **A policy that never fires is the fast path -- verified, not
   assumed.**  Hedge and retry each fire on a latency crossing a bound,
   so an open-loop replay with no armed ``timeout``/``straggler`` rule
   runs the fast path first and keeps its outcome iff no latency
   exceeds the smallest armed bound; otherwise that pass is discarded
   and the event loop runs.

Every other configuration (closed loop, armed ``timeout``/``straggler``
rules, a policy that did fire) couples the two event streams through
feedback and fault-clock ticks; those run through an optimized
transcription of the heap loop -- same event order, same fault tick
order, same accumulation order -- so chaos runs stay bit-identical
too.  Its heap holds the feedback only; open-loop arrivals are merged
in from a list.  The equivalence grid in
``tests/serving/test_vector_replay.py`` gates the bit-identity claim.

Every replay leaves per-request history in a preallocated
structured-array :class:`RequestArena` (exposed as
``ReplayOutcome.events`` / ``requests_for``) instead of per-request
Python tuples.
"""

from __future__ import annotations

import heapq
from math import inf

import numpy as np

from repro.cluster.node import ClusterSpec
from repro.cluster.sim import STRAGGLER_TAIL, _eighth_power, unit_hash
from repro.faults.inject import NULL_FAULTS
from repro.keyed import group_starts, sort_group, stable_order
from repro.serving.load import (
    ArrivalStream,
    BACKOFF_SECONDS,
    HEDGE_DELAY_SERVICES,
    MAX_RETRIES,
    REQUEST_WIRE_BYTES,
    RESPONSE_WIRE_BYTES,
    ReplayOutcome,
    TIMEOUT_SECONDS,
    policy_tokens,
)

#: NIC-chain Jacobi limits (:func:`_fifo_chains`): skip straight to the
#: scalar scan when the first-order NIC busy-run estimate exceeds
#: ``_JACOBI_RUN_MAX`` (each full-vector pass resolves ~one run element,
#: so long runs never amortize), and bail to the scan if the fixpoint
#: has not landed after ``_JACOBI_ITER_MAX`` passes (cascades can outgrow
#: the estimate).
_JACOBI_RUN_MAX = 24
_JACOBI_ITER_MAX = 64

#: A dispatch round must commit at least ``max(16, batch/8)`` requests;
#: two consecutive starved rounds switch the dispatcher to the scan.
_ROUND_MIN_COMMIT = 16


def _fifo_chains(ready, nodes, cost, free):
    """One batch of messages through each node's link, a FIFO held for
    the wire time only: row ``k`` on node ``v = nodes[k]`` is sent at
    ``s_k = max(ready[k], s_prev) + cost[v]``, where ``s_prev`` is the
    send time of ``v``'s previous row in the batch, or ``free[v]`` (when
    the link was last busy) for its first.  Returns the send times in
    row order and the full-vector passes made.

    Grouped per node, that recurrence is triangular: the map ``s ->
    max(ready, shift(s)) + cost`` has exactly one fixpoint, the chain
    itself, and every application is the scalar's own max-then-add on
    the same operands.  Full-vector Jacobi passes from ``ready + cost``
    (exact wherever the link sat idle) therefore reach the
    *bit-identical* chain, in about one pass per element of the longest
    busy run -- short whenever messages on one node rarely bunch within
    the wire time.  A first-order busy estimate routes long-run
    (saturated) batches straight to a scalar scan of the grouped rows,
    as does a fixpoint that has not landed in time.
    """
    size = ready.size
    grouped_nodes, perm = sort_group(nodes)     # stable: FIFO order kept
    present, heads = group_starts(grouped_nodes)
    ready = ready[perm]
    cost = cost[grouped_nodes]
    free = free[present]
    chain = ready + cost
    # How many consecutive rows would each land on a still-busy link?
    # (A lower bound on the passes -- cascades can only lengthen runs.)
    busy = np.empty(size, dtype=bool)
    np.less(ready[1:], chain[:-1], out=busy[1:])
    busy[heads] = False                # row 0 heads the first chain
    hot = np.flatnonzero(busy)
    longest = 0
    if hot.size:
        breaks = np.flatnonzero(np.diff(hot) > 1)
        longest = int(np.diff(
            np.concatenate(([-1], breaks, [hot.size - 1]))).max())
    passes = 0
    settled = False
    if longest <= _JACOBI_RUN_MAX:
        prev = np.empty(size)
        trial = np.empty(size)
        while passes < _JACOBI_ITER_MAX and not settled:
            prev[1:] = chain[:-1]
            prev[heads] = free
            np.maximum(ready, prev, out=trial)
            trial += cost              # s = max(ready, prev); s += cost
            passes += 1
            settled = np.array_equal(trial, chain)
            chain, trial = trial, chain
    if not settled:
        scanned = []
        bounds = heads.tolist() + [size]
        ready_l, cost_l = ready.tolist(), cost.tolist()
        for lo, hi, s in zip(bounds, bounds[1:], free.tolist()):
            for k in range(lo, hi):
                if s < ready_l[k]:
                    s = ready_l[k]
                s += cost_l[k]
                scanned.append(s)
        chain = np.asarray(scanned)
    sent = np.empty(size)
    sent[perm] = chain
    return sent, passes


#: Per-request history record: one row per issued request.  ``finish``
#: is NaN for requests that never completed (shed, or lost to an
#: unrecovered timeout fault); ``node`` is the node of the *primary*
#: serving attempt (a hedge's winning duplicate is not tracked, matching
#: the heap oracle, which only keeps the min completion time).
REQUEST_DTYPE = np.dtype([
    ("arrival", "<f8"),      # first client issue time
    ("admit", "<f8"),        # front-door ready time of the last attempt
    ("start", "<f8"),        # service start of the last attempt (NaN: shed)
    ("finish", "<f8"),       # client-observed completion (NaN: no answer)
    ("node", "<i4"),         # node of the last dispatched attempt (-1: none)
    ("kind", "<i4"),         # index into ``ops``
    ("attempt", "<i2"),      # dispatch attempts consumed (0: never issued)
    ("hedged", "?"),
    ("shed", "?"),
    ("retried", "?"),
    ("failed", "?"),
    ("completed", "?"),
])


class RequestArena:
    """Preallocated per-request column store behind ``ReplayOutcome``.

    Columns live as flat numpy arrays (some aliasing the stream's own
    arrays -- zero-copy); :meth:`pack` materializes the structured
    :data:`REQUEST_DTYPE` view lazily, so replays that never inspect
    per-request history pay nothing beyond the column writes.
    """

    __slots__ = ("ops", "capacity", "used", "arrival", "admit", "start",
                 "finish", "node", "kind", "attempt", "hedged", "shed",
                 "retried", "failed", "completed", "_packed")

    def __init__(self, capacity: int, ops: tuple, kinds: np.ndarray,
                 eager: bool = True):
        self.ops = tuple(ops)
        self.capacity = int(capacity)
        self.used = 0
        n = self.capacity
        if eager:
            # The event loop fills rows incrementally, so every column
            # needs its not-yet-written default up front.
            self.arrival = np.full(n, np.nan)
            self.admit = np.full(n, np.nan)
            self.start = np.full(n, np.nan)
            self.finish = np.full(n, np.nan)
            self.node = np.full(n, -1, dtype=np.int32)
            self.attempt = np.zeros(n, dtype=np.int16)
        else:
            # The batched fast path rebinds whole columns; prefilling
            # them here would touch every page twice for nothing.
            self.arrival = self.admit = self.start = self.finish = None
            self.node = self.attempt = None
        self.kind = kinds                 # aliases the stream (read-only)
        self.hedged = np.zeros(n, dtype=bool)
        self.shed = np.zeros(n, dtype=bool)
        self.retried = np.zeros(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.completed = np.zeros(n, dtype=bool)
        self._packed = None

    def __len__(self) -> int:
        return self.used

    def pack(self) -> np.ndarray:
        """The structured-array view over the issued rows (cached)."""
        if self._packed is None or len(self._packed) != self.used:
            out = np.empty(self.used, dtype=REQUEST_DTYPE)
            u = self.used
            for name in ("arrival", "admit", "start", "finish", "node",
                         "kind", "attempt", "hedged", "shed", "retried",
                         "failed", "completed"):
                out[name] = getattr(self, name)[:u]
            self._packed = out
        return self._packed

    def requests_for(self, op) -> np.ndarray:
        """Rows for one request kind (by mix name or kind index)."""
        if isinstance(op, str):
            if op not in self.ops:
                raise KeyError(
                    f"unknown request kind {op!r}; mix kinds: "
                    f"{', '.join(self.ops)}")
            op = self.ops.index(op)
        packed = self.pack()
        return packed[packed["kind"] == int(op)]


def replay(stream: ArrivalStream, cluster: ClusterSpec,
           service_seconds: float, *, policy: str = "none",
           faults=NULL_FAULTS, site: str = "serving",
           slo_seconds: float = 0.5, engine: str = "vector",
           ctx=None) -> ReplayOutcome:
    """Drive ``stream`` through the cluster's core/NIC queues.

    Each node contributes ``cores`` FIFO service slots (service time
    scaled by the reference/node clock ratio) and a full-duplex NIC
    pair: requests serialize through the inbound link before queueing
    for a core, responses through the outbound link.  Requests go in
    ready order to the earliest-free slot -- the c-server FIFO queue the
    analytic ``mm_c`` baseline models.  Policies and armed fault rules
    map onto three recovery paths: ``shed`` (or an ``overload`` rule)
    bounds the admission wait, ``hedge`` (or a ``straggler`` rule)
    duplicates slow requests, ``retry`` (or a ``timeout`` rule)
    re-issues with backoff.  The outcome carries a :class:`RequestArena`
    (``outcome.events``).

    ``engine`` accepts only ``"vector"``, the one engine, and raises
    ``ValueError`` otherwise; it remains only because
    ``bench/workloads.py`` still passes ``engine="vector"``.
    """
    if engine != "vector":
        raise ValueError(
            f"unknown serving engine {engine!r}; the only engine is 'vector'")
    return _VectorReplay(stream, cluster, service_seconds, policy, faults,
                         site, slo_seconds, ctx).run()


class _VectorReplay:
    """One vector replay: shared precompute + the two execution paths."""

    def __init__(self, stream, cluster, service_seconds, policy, faults,
                 site, slo_seconds, ctx):
        from repro.uarch.perfctx import context_or_null

        self.stream = stream
        self.cluster = cluster
        self.service_seconds = service_seconds
        self.tokens = set(policy_tokens(policy))
        self.faults = faults
        self.site = site
        self.slo_seconds = slo_seconds
        self.ctx = context_or_null(ctx)

        nodes = cluster.nodes
        ref_hz = cluster.node.machine.freq_hz
        # Core-major slot enumeration, identical to the heap oracle
        # (consecutive arrivals spread across nodes on the id tiebreak).
        slot_node, slot_scale = [], []
        for core in range(max(node.cores for node in nodes)):
            for node_id, node in enumerate(nodes):
                if core < node.cores:
                    slot_node.append(node_id)
                    slot_scale.append(ref_hz / node.machine.freq_hz)
        self.slot_node = slot_node
        self.slot_scale = slot_scale
        self.homogeneous = all(s == 1.0 for s in slot_scale)
        self.num_nodes = len(nodes)
        # Precomputed per-node constants.  The heap oracle divides
        # ``wire_bytes / bandwidth`` at every event; the quotient of the
        # same two doubles is the same double, so hoisting it is exact.
        self.req_c = [REQUEST_WIRE_BYTES / n.nic.bandwidth for n in nodes]
        self.resp_c = [RESPONSE_WIRE_BYTES / n.nic.bandwidth for n in nodes]
        self.lat = [n.nic.latency_seconds for n in nodes]

        self.timeout_armed = faults.enabled and faults.active_for("timeout")
        self.straggler_armed = (faults.enabled
                                and faults.active_for("straggler"))
        self.overload_rule = (faults.standing("overload", site)
                              if faults.enabled else None)
        shed_bounds = []
        if "shed" in self.tokens:
            shed_bounds.append(slo_seconds)
        if self.overload_rule is not None and faults.recovery:
            shed_bounds.append(self.overload_rule.factor * service_seconds)
        self.shed_bound = min(shed_bounds) if shed_bounds else None
        self.hedge_on = "hedge" in self.tokens
        self.retry_on = "retry" in self.tokens
        self.hedge_delay = HEDGE_DELAY_SERVICES * service_seconds
        # Both policies fire on a latency (``completion - ready``) past
        # a bound; below the smaller armed one neither ever does.
        fire_bounds = []
        if self.hedge_on:
            fire_bounds.append(self.hedge_delay)
        if self.retry_on:
            fire_bounds.append(TIMEOUT_SECONDS)
        self.fire_bound = min(fire_bounds, default=None)
        self.closed = stream.users > 0

        self.factors = 1.0 + STRAGGLER_TAIL * _eighth_power(stream.tail_u)
        # Left-assoc product prefix: scalar computes
        # ``((service_seconds * mult) * factor) * slot_scale``.
        self.sm2 = service_seconds * np.asarray(stream.service_mult)
        self.base3 = self.sm2 * self.factors

    # -- entry ---------------------------------------------------------------

    def run(self) -> ReplayOutcome:
        from repro.obs.metrics import METRICS

        outcome = None
        if not (self.closed or self.timeout_armed or self.straggler_armed):
            # Hedge and retry are the only feedback left, and the fast
            # path models everything else (a shed admission is not
            # feedback): run it first.  If no latency crosses the
            # smallest armed bound, no policy fires and the event loop
            # would have taken the very same steps; otherwise the pass
            # is discarded -- a trial, ~6 % of the loop it precedes.
            outcome = self._run_fast()
            if self.fire_bound is not None:
                latencies = outcome.latencies
                if latencies.size and latencies.max() > self.fire_bound:
                    METRICS.counter("serving.vector.trials_rejected").inc()
                    outcome = None
                else:
                    self.dispatch_span.set("speculated", True)
        fast = outcome is not None
        if not fast:
            outcome = self._run_events()

        if self.overload_rule is not None:
            capacity = self.cluster.total_cores / self.service_seconds
            if self.faults.recovery and outcome.shed:
                self.faults.recovered(
                    "load_shed", self.site,
                    shed_rps=round(outcome.shed / outcome.duration, 3))
            elif (not self.faults.recovery
                  and outcome.offered_rps > capacity):
                self.faults.lost("overload", self.site)

        METRICS.counter("serving.vector.requests").inc(outcome.requests)
        METRICS.counter(
            "serving.vector.%s" % ("fastpath" if fast else "eventpath")).inc()
        return outcome

    def _outcome(self, latencies, issued, completed, shed, failed, hedged,
                 retries, busy, last_completion) -> ReplayOutcome:
        stream = self.stream
        duration = stream.duration
        self.arena.used = issued
        if not self.closed and (self.fire_bound is not None
                                or self.timeout_armed or self.straggler_armed):
            # ``bench/digests.json`` hashes ``repr(makespan)``, and these
            # replays used to read their clock off the stream's float64
            # array: a last completion past the window stays np.float64
            # (``duration`` is a float) until the digests are re-recorded.
            last_completion = np.float64(last_completion)
        return ReplayOutcome(
            latencies=latencies, requests=issued, completed=completed,
            shed=shed, failed=failed, hedged=hedged, retries=retries,
            busy_cpu_seconds=busy, duration=duration,
            makespan=max(duration, last_completion),
            offered_rps=issued / duration if duration > 0 else 0.0,
            mix=stream.mix_counts(issued if self.closed else None),
            ops=stream.ops, arena=self.arena,
        )

    # -- fast path: two batched phases ---------------------------------------

    def _run_fast(self) -> ReplayOutcome:
        from repro.obs.metrics import METRICS

        stream = self.stream
        n = stream.size
        self.arena = RequestArena(n, stream.ops, np.asarray(stream.kinds),
                                  eager=False)
        times = np.asarray(stream.times) if n else np.zeros(0)
        # Every row is written by dispatch except rounds-path shed rows'
        # starts/ends (scan sheds write NaN inline) -- those are NaN'd
        # below, so plain ``empty`` avoids a prefill pass per column.
        starts = np.empty(n)
        ends = np.empty(n)
        enode = np.empty(n, dtype=np.int32)
        svc = self.base3 if self.homogeneous else np.empty(n)
        shed_mask = np.zeros(n, dtype=bool)

        with self.ctx.span("serve:round:dispatch", category="serving",
                           requests=n) as sp:
            rounds = self._dispatch_fast(times, starts, ends, enode, svc,
                                         shed_mask)
            sp.set("rounds", rounds)
        self.dispatch_span = sp        # run() marks an accepted trial
        shed = int(shed_mask.sum())
        live = np.flatnonzero(~shed_mask) if shed else None
        if shed:
            starts[shed_mask] = np.nan
            self.arena.finish = np.full(n, np.nan)

        with self.ctx.span("serve:round:complete", category="serving",
                           requests=n - shed) as sp:
            comp_rounds, latencies, last_completion = self._complete_fast(
                times, ends, enode, live)
            sp.set("rounds", comp_rounds)
        METRICS.counter("serving.vector.rounds").inc(rounds + comp_rounds)

        # Scalar busy accumulation order: one left fold over dispatched
        # (non-shed) service times in arrival order; shed requests add
        # nothing, so compacting before the fold keeps the bits.
        live_svc = svc if live is None else svc[live]
        busy = float(np.add.accumulate(live_svc)[-1]) if live_svc.size \
            else 0.0

        arena = self.arena
        arena.arrival = times
        arena.admit = times          # open loop: ready == arrival
        arena.start = starts
        arena.node = enode
        arena.shed = shed_mask
        arena.completed = ~shed_mask
        arena.attempt = np.ones(n, dtype=np.int16)
        if arena.finish is None:     # n == 0: completion never ran
            arena.finish = np.full(n, np.nan)

        return self._outcome(latencies, n, n - shed, shed, 0, 0, 0, busy,
                             last_completion)

    def _dispatch_fast(self, times, starts, ends, enode, svc,
                       shed_mask) -> int:
        """Phase 1: admit every arrival in order.  Frontier rounds while
        the committed prefix stays healthy, tight scan otherwise."""
        n = len(times)
        S = len(self.slot_node)
        slot_free = np.zeros(S)
        nic_in = np.zeros(self.num_nodes)
        rounds = 0
        i = 0
        # Round overhead only amortizes when batches are wide and the
        # stream is long relative to the slot count.
        if S >= 8 and n >= 4 * S:
            sn_np = np.asarray(self.slot_node, dtype=np.int64)
            sc_np = np.asarray(self.slot_scale)
            req_c = np.asarray(self.req_c)
            lat_np = np.asarray(self.lat)
            bound = self.shed_bound
            starved = 0
            while i < n:
                C = min(S, n - i)
                # Stable sort breaks free-time ties by slot id == the
                # scalar heap's (t_free, slot) pop order.
                order = stable_order(slot_free)
                slots = order[:C]
                tf = slot_free[slots]
                nds = sn_np[slots]
                ready = times[i:i + C]
                sent, _ = _fifo_chains(ready, nds, req_c, nic_in)
                start = np.maximum(sent + lat_np[nds], tf)
                b3 = self.base3[i:i + C]
                round_svc = b3 if self.homogeneous else b3 * sc_np[slots]
                end = start + round_svc
                # Pairing row j with slot order[j] holds while every
                # earlier committed end stays strictly later than the
                # next slot's free time (else the freed slot wins the
                # heap pop; ties cut -- the id tiebreak is ambiguous).
                if C > 1:
                    ok = np.minimum.accumulate(end)[:-1] > tf[1:]
                    bad = int(np.argmin(ok))
                    K = C if ok[bad] else bad + 1
                else:
                    K = 1
                take_shed = False
                if bound is not None:
                    is_shed = (start - ready) > bound
                    first_shed = int(np.argmax(is_shed[:K]))
                    if is_shed[first_shed]:
                        K = first_shed        # commit the clean prefix
                        take_shed = True      # then one scalar shed step
                if K:
                    csl = slots[:K]
                    slot_free[csl] = end[:K]
                    # Per-node sent is monotone within the batch, so the
                    # running max lands on each node's last committed.
                    np.maximum.at(nic_in, nds[:K], sent[:K])
                    starts[i:i + K] = start[:K]
                    ends[i:i + K] = end[:K]
                    enode[i:i + K] = nds[:K]
                    if not self.homogeneous:
                        svc[i:i + K] = round_svc[:K]
                    i += K
                if take_shed:
                    # The shed admission consumed inbound NIC time but
                    # no slot; the pairing shifts, so restart the round.
                    nd = int(nds[K])
                    nic_in[nd] = sent[K]
                    shed_mask[i] = True
                    enode[i] = nd
                    i += 1
                rounds += 1
                committed = K + (1 if take_shed else 0)
                starved = starved + 1 \
                    if committed < max(_ROUND_MIN_COMMIT, C >> 3) else 0
                if starved >= 2:
                    break   # saturation regime: the scan wins
        if i < n:
            self._dispatch_scan(i, times, starts, ends, enode, svc,
                                shed_mask, slot_free, nic_in)
        return rounds

    def _dispatch_scan(self, i0, times, starts, ends, enode, svc,
                       shed_mask, slot_free, nic_in) -> None:
        """Tight flat-array transcription of the dispatch inner loop
        (regime-independent ~3M req/s; exact heap and NIC arithmetic)."""
        heap = [(slot_free[s], s) for s in range(len(self.slot_node))]
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        nic = nic_in.tolist()
        tl = times[i0:].tolist()
        b3 = self.base3[i0:].tolist()
        sn = self.slot_node
        sc = self.slot_scale
        rc = self.req_c
        lt = self.lat
        bound = self.shed_bound
        homo = self.homogeneous
        st_l, en_l, nd_l = [], [], []
        sv_l = [] if not homo else None
        shed_idx = []
        nan = float("nan")
        for j, r in enumerate(tl):
            t_free, slot = heap[0]
            nd = sn[slot]
            s = nic[nd]
            if s < r:
                s = r                      # max(ready, nic_in[node])
            s += rc[nd]
            nic[nd] = s
            st = s + lt[nd]
            if st < t_free:
                st = t_free                # max(sent + lat, t_free)
            if bound is not None and st - r > bound:
                shed_idx.append(i0 + j)    # slot goes back untouched
                st_l.append(nan)
                en_l.append(nan)
                nd_l.append(nd)
                if not homo:
                    sv_l.append(0.0)
                continue
            v = b3[j] if homo else b3[j] * sc[slot]
            e = st + v
            heapreplace(heap, (e, slot))
            st_l.append(st)
            en_l.append(e)
            nd_l.append(nd)
            if not homo:
                sv_l.append(v)
        starts[i0:] = st_l
        ends[i0:] = en_l
        enode[i0:] = nd_l
        if not homo:
            svc[i0:] = sv_l
        if shed_idx:
            shed_mask[shed_idx] = True
        for nd, v in enumerate(nic):
            nic_in[nd] = v

    def _complete_fast(self, times, ends, enode, live):
        """Phase 2: responses in ``(end, dispatch-seq)`` order through
        each node's outbound NIC chain (:func:`_fifo_chains`).  Returns
        (rounds, latencies, last_completion); latencies keep
        completion-processing order (the heap oracle's list order --
        the pairwise mean depends on it)."""
        if live is None:               # nothing shed: skip the compaction
            e_live, nd_live, t_live = ends, enode, times
        else:
            e_live = ends[live]
            nd_live = enode[live]
            t_live = times[live]
        m = e_live.size
        if m == 0:
            return 0, np.empty(0), 0.0
        # Stable: equal ends keep dispatch order, the heap's seq tiebreak.
        order = stable_order(e_live)
        nd_s = nd_live.take(order)
        fin, rounds = _fifo_chains(
            e_live.take(order), nd_s, np.asarray(self.resp_c),
            np.zeros(self.num_nodes))
        if self.homogeneous:
            fin += self.lat[0]
        else:
            fin += np.asarray(self.lat)[nd_s]
        latencies = fin - t_live.take(order)
        if live is None:
            finish = np.empty(m)
            finish[order] = fin        # arrival order: the arena column
            self.arena.finish = finish
        else:
            self.arena.finish[live[order]] = fin
        return rounds, latencies, float(fin.max())

    # -- general path: optimized event loop ----------------------------------

    def _run_events(self) -> ReplayOutcome:
        """Faithful transcription of the heap loop for the
        feedback-coupled configurations (closed loop, hedge, retry,
        armed timeout/straggler rules): identical event order,
        fault-clock tick order, and accumulation order, with the
        per-event arithmetic precomputed into flat lists and every
        clock a Python float.

        The heap holds feedback only -- COMPLETE events and the
        DISPATCHes that completions, sheds and timeouts schedule.
        Open-loop arrivals are sorted and carry the lowest sequence
        numbers of the oracle's heap, so they are merged in from a list:
        an arrival goes first unless a heap event is strictly earlier,
        exactly the ``(t, seq)`` order."""
        stream = self.stream
        faults = self.faults
        site = self.site
        n = stream.size
        arena = self.arena = RequestArena(n, stream.ops,
                                          np.asarray(stream.kinds))
        closed = self.closed
        duration = stream.duration
        sn = self.slot_node
        sc = self.slot_scale
        rc = self.req_c
        oc = self.resp_c
        lt = self.lat
        sm2 = self.sm2.tolist()
        factors = self.factors.tolist()
        sd = (self.service_seconds * np.asarray(stream.dup_mult)).tolist()
        think = stream.think.tolist() if closed else None
        shed_bound = self.shed_bound
        hedge_on = self.hedge_on
        retry_on = self.retry_on
        timeout_armed = self.timeout_armed
        straggler_armed = self.straggler_armed
        hedge_delay = self.hedge_delay
        heappush, heappop = heapq.heappush, heapq.heappop

        free = [(0.0, s) for s in range(len(sn))]
        nic_in = [0.0] * self.num_nodes
        nic_out = [0.0] * self.num_nodes

        DISPATCH, COMPLETE = 0, 1
        events = []
        seq = 0
        issued = 0
        arrivals = [inf]               # sentinel: no arrival left
        if closed:
            for user in range(min(stream.users, n)):
                t0 = think[issued]
                events.append((t0, seq, DISPATCH, issued, 1, t0, user,
                               -1, 0.0, False))
                seq += 1
                issued += 1
            heapq.heapify(events)
        else:
            arrivals = np.asarray(stream.times).tolist() + arrivals
            seq = n
            issued = n
        arrived = 0
        next_arrival = arrivals[0]

        latencies = []
        shed = failed = hedged = retries = completed = 0
        busy = 0.0
        last_completion = 0.0
        ar_arrival = arena.arrival
        ar_admit = arena.admit
        ar_start = arena.start
        ar_finish = arena.finish
        ar_node = arena.node
        ar_attempt = arena.attempt

        with self.ctx.span("serve:round:events", category="serving",
                           requests=n):
            while True:
                if events and events[0][0] < next_arrival:
                    t, _, kind, idx, attempt, first, user, node, ready, \
                        straggled = heappop(events)
                elif next_arrival < inf:
                    t = first = next_arrival
                    kind, idx, attempt, user = DISPATCH, arrived, 1, -1
                    arrived += 1
                    next_arrival = arrivals[arrived]
                else:
                    break

                if kind == DISPATCH:
                    ready = t
                    t_free, slot = heappop(free)
                    node = sn[slot]
                    s = nic_in[node]
                    if s < ready:
                        s = ready
                    sent = s + rc[node]
                    nic_in[node] = sent
                    start = sent + lt[node]
                    if start < t_free:
                        start = t_free
                    if attempt == 1:
                        ar_arrival[idx] = first
                    ar_admit[idx] = ready
                    ar_node[idx] = node
                    ar_attempt[idx] = attempt

                    if shed_bound is not None and start - ready > shed_bound:
                        heappush(free, (t_free, slot))
                        shed += 1
                        arena.shed[idx] = True
                        if closed and issued < n:
                            tn = ready + think[issued]
                            if tn <= duration:
                                heappush(events, (tn, seq, DISPATCH, issued,
                                                  1, tn, user, -1, 0.0,
                                                  False))
                                seq += 1
                                issued += 1
                        continue

                    srule = faults.fires("straggler", site) \
                        if straggler_armed else None
                    factor = factors[idx]
                    if srule is not None:
                        factor *= srule.factor
                    svc = sm2[idx] * factor * sc[slot]
                    end = start + svc
                    busy += svc
                    heappush(free, (end, slot))
                    heappush(events, (end, seq, COMPLETE, idx, attempt,
                                      first, user, node, ready,
                                      srule is not None and faults.recovery))
                    seq += 1
                    ar_start[idx] = start
                    continue

                end = t
                f = nic_out[node]
                if f < end:
                    f = end
                flushed = f + oc[node]
                nic_out[node] = flushed
                completion = flushed + lt[node]

                fault_straggled = straggled
                if (fault_straggled
                        or (hedge_on and completion - ready > hedge_delay)) \
                        and free:
                    t2, slot2 = heappop(free)
                    node2 = sn[slot2]
                    ready2 = ready + hedge_delay
                    s2 = nic_in[node2]
                    if s2 < ready2:
                        s2 = ready2
                    sent2 = s2 + rc[node2]
                    nic_in[node2] = sent2
                    start2 = sent2 + lt[node2]
                    if start2 < t2:
                        start2 = t2
                    svc2 = sd[idx] * sc[slot2]
                    end2 = start2 + svc2
                    busy += svc2
                    heappush(free, (end2, slot2))
                    f2 = nic_out[node2]
                    if f2 < end2:
                        f2 = end2
                    flushed2 = f2 + oc[node2]
                    nic_out[node2] = flushed2
                    alt = flushed2 + lt[node2]
                    if alt < completion:
                        completion = alt
                    hedged += 1
                    arena.hedged[idx] = True
                    if fault_straggled:
                        faults.recovered("hedge", site)

                lost_to_fault = (timeout_armed and attempt <= MAX_RETRIES
                                 and faults.fires("timeout", site)
                                 is not None)
                timed_out = lost_to_fault or (
                    retry_on and completion - ready > TIMEOUT_SECONDS)
                if timed_out and attempt <= MAX_RETRIES:
                    if lost_to_fault and not faults.recovery:
                        failed += 1
                        arena.failed[idx] = True
                        faults.lost("request", site, index=int(idx))
                        if closed and issued < n:
                            at = ready + TIMEOUT_SECONDS
                            tn = at + think[issued]
                            if tn <= duration:
                                heappush(events, (tn, seq, DISPATCH, issued,
                                                  1, tn, user, -1, 0.0,
                                                  False))
                                seq += 1
                                issued += 1
                        continue
                    jitter = 1.0 + 0.5 * unit_hash(
                        stream.seed, f"{site}:jitter:{idx}:{attempt}")
                    back = ready + TIMEOUT_SECONDS \
                        + BACKOFF_SECONDS * (2.0 ** (attempt - 1)) * jitter
                    retries += 1
                    arena.retried[idx] = True
                    if lost_to_fault:
                        faults.recovered("retry", site, attempt=attempt)
                    heappush(events, (back, seq, DISPATCH, idx, attempt + 1,
                                      first, user, -1, 0.0, False))
                    seq += 1
                    continue

                completed += 1
                latencies.append(completion - first)
                arena.completed[idx] = True
                ar_finish[idx] = completion
                if completion > last_completion:
                    last_completion = completion
                if closed and issued < n:
                    tn = completion + think[issued]
                    if tn <= duration:
                        heappush(events, (tn, seq, DISPATCH, issued, 1, tn,
                                          user, -1, 0.0, False))
                        seq += 1
                        issued += 1

        return self._outcome(
            np.asarray(latencies, dtype=np.float64), issued, completed,
            shed, failed, hedged, retries, busy, last_completion)
