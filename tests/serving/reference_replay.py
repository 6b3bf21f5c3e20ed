"""The per-event serving replay heap: the oracle for ``serving.replay``.

The serving replay semantics stated as one time-ordered heap of
DISPATCH and COMPLETE events, one Python step per event -- obviously
right and slow.  Tests compare
:func:`repro.serving.replay` against it float for float, fault event for
fault event, and ``makespan`` type for type.
"""

import heapq

import numpy as np

from repro.cluster.node import ClusterSpec
from repro.cluster.sim import STRAGGLER_TAIL, unit_hash
from repro.faults.inject import NULL_FAULTS
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


def replay_stream(stream: ArrivalStream, cluster: ClusterSpec,
                  service_seconds: float, *, policy: str = "none",
                  faults=NULL_FAULTS, site: str = "serving",
                  slo_seconds: float = 0.5) -> ReplayOutcome:
    """Drive ``stream`` through the cluster's core/NIC queues.

    Each node contributes ``cores`` FIFO service slots (service time
    scaled by the reference/node clock ratio, heterogeneous racks
    served correctly) and a full-duplex NIC pair: requests serialize
    through the node's inbound link before queueing for a core,
    responses through the outbound link.  Requests are dispatched in
    ready order to the earliest-free slot -- the c-server FIFO queue the
    analytic ``mm_c`` baseline models.

    Policies and fault kinds map onto the same three recovery paths:

    * shedding -- ``shed`` policy bounds the admission wait at
      ``slo_seconds``; an armed ``overload`` rule (with recovery) bounds
      it at ``factor`` mean services.
    * hedging -- ``hedge`` policy duplicates any request outstanding
      past :data:`HEDGE_DELAY_SERVICES` mean services; an armed
      ``straggler`` rule (with recovery) hedges the requests it strikes.
    * retry -- ``retry`` policy re-issues past :data:`TIMEOUT_SECONDS`
      with exponential backoff and deterministic jitter; an armed
      ``timeout`` rule forces timeouts at its rate.

    The request *mix* counts issued requests, so it is independent of
    faults and policies -- the chaos layer's bit-identical-output
    invariant holds by construction.  The outcome carries no request
    arena.
    """
    profile = stream.profile
    tokens = set(policy_tokens(policy))
    nodes = cluster.nodes
    ref_hz = cluster.node.machine.freq_hz

    # Slots are enumerated core-major (node 0 core 0, node 1 core 0, ...)
    # so the earliest-free-slot heap's index tiebreak spreads consecutive
    # arrivals across *nodes* -- per-request round-robin, the front-door
    # load-balancer behavior -- instead of bursting one node's NIC with
    # a whole node's worth of back-to-back requests.
    slot_node, slot_scale = [], []
    for core in range(max(node.cores for node in nodes)):
        for node_id, node in enumerate(nodes):
            if core < node.cores:
                slot_node.append(node_id)
                slot_scale.append(ref_hz / node.machine.freq_hz)
    free = [(0.0, s) for s in range(len(slot_node))]   # sorted => valid heap
    nic_in = [0.0] * len(nodes)
    nic_out = [0.0] * len(nodes)
    nic_bw = [n.nic.bandwidth for n in nodes]
    nic_lat = [n.nic.latency_seconds for n in nodes]

    timeout_armed = faults.enabled and faults.active_for("timeout")
    straggler_armed = faults.enabled and faults.active_for("straggler")
    overload_rule = faults.standing("overload", site) if faults.enabled else None

    shed_bounds = []
    if "shed" in tokens:
        shed_bounds.append(slo_seconds)
    if overload_rule is not None and faults.recovery:
        shed_bounds.append(overload_rule.factor * service_seconds)
    shed_bound = min(shed_bounds) if shed_bounds else None
    hedge_on = "hedge" in tokens
    retry_on = "retry" in tokens
    hedge_delay = HEDGE_DELAY_SERVICES * service_seconds

    closed = stream.users > 0
    duration = stream.duration
    n = stream.size
    # One time-ordered event heap: DISPATCH events (a request reaches the
    # front door) interleave with COMPLETE events (its service finishes).
    # Processing completions in *completion* order -- not arrival order --
    # is what keeps the outbound-NIC FIFO causal: a response only queues
    # behind responses that actually finished before it.
    DISPATCH, COMPLETE = 0, 1
    events = []   # (time, seq, kind, idx, attempt, first, user, node, ready, straggled)
    seq = 0
    issued = 0
    if closed:
        for user in range(min(stream.users, n)):
            t0 = stream.think[issued]
            events.append((t0, seq, DISPATCH, issued, 1, t0, user,
                           -1, 0.0, False))
            seq += 1
            issued += 1
        heapq.heapify(events)
    else:
        times = stream.times
        events = [(times[i], i, DISPATCH, i, 1, times[i], -1, -1, 0.0, False)
                  for i in range(n)]   # sorted times => valid heap
        seq = n
        issued = n

    latencies = []
    shed = failed = hedged = retries = completed = 0
    busy = 0.0
    last_completion = 0.0
    req_i = REQUEST_WIRE_BYTES
    resp_o = RESPONSE_WIRE_BYTES

    def issue_next(user: int, at: float) -> None:
        """Closed loop: the user thinks, then issues the next request."""
        nonlocal seq, issued
        if not closed or issued >= n:
            return
        t = at + stream.think[issued]
        if t > duration:
            return
        heapq.heappush(events, (t, seq, DISPATCH, issued, 1, t, user,
                                -1, 0.0, False))
        seq += 1
        issued += 1

    while events:
        t, _, kind, idx, attempt, first, user, node, ready, straggled = \
            heapq.heappop(events)

        if kind == DISPATCH:
            ready = t
            t_free, slot = heapq.heappop(free)
            node = slot_node[slot]
            # The link is held for the transfer only; the per-message
            # latency is propagation delay -- it postpones arrival but
            # does not stop the NIC pipelining the next message.
            sent = max(ready, nic_in[node]) + req_i / nic_bw[node]
            nic_in[node] = sent
            start = max(sent + nic_lat[node], t_free)

            if shed_bound is not None and start - ready > shed_bound:
                heapq.heappush(free, (t_free, slot))
                shed += 1
                issue_next(user, ready)
                continue

            srule = faults.fires("straggler", site) if straggler_armed \
                else None
            factor = 1.0 + STRAGGLER_TAIL * stream.tail_u[idx] ** 8
            if srule is not None:
                factor *= srule.factor
            svc = service_seconds * stream.service_mult[idx] * factor \
                * slot_scale[slot]
            end = start + svc
            busy += svc
            heapq.heappush(free, (end, slot))
            heapq.heappush(events, (end, seq, COMPLETE, idx, attempt, first,
                                    user, node,
                                    ready, srule is not None and faults.recovery))
            seq += 1
            continue

        # COMPLETE: serialize the response through the node's outbound
        # link (responses transmit in completion order), then apply the
        # recovery policies.
        end = t
        flushed = max(end, nic_out[node]) + resp_o / nic_bw[node]
        nic_out[node] = flushed
        completion = flushed + nic_lat[node]

        fault_straggled = straggled
        if (fault_straggled or (hedge_on and completion - ready > hedge_delay)) \
                and free:
            # Hedge: a duplicate on the next free slot, first answer wins.
            # Both copies run to completion (the duplicated work is the
            # cost hedging pays to hide the straggler's tail).
            t2, slot2 = heapq.heappop(free)
            node2 = slot_node[slot2]
            ready2 = ready + hedge_delay
            sent2 = max(ready2, nic_in[node2]) + req_i / nic_bw[node2]
            nic_in[node2] = sent2
            start2 = max(sent2 + nic_lat[node2], t2)
            svc2 = service_seconds * stream.dup_mult[idx] * slot_scale[slot2]
            end2 = start2 + svc2
            busy += svc2
            heapq.heappush(free, (end2, slot2))
            flushed2 = max(end2, nic_out[node2]) + resp_o / nic_bw[node2]
            nic_out[node2] = flushed2
            completion = min(completion, flushed2 + nic_lat[node2])
            hedged += 1
            if fault_straggled:
                faults.recovered("hedge", site)

        lost_to_fault = (timeout_armed and attempt <= MAX_RETRIES
                         and faults.fires("timeout", site) is not None)
        timed_out = lost_to_fault or (
            retry_on and completion - ready > TIMEOUT_SECONDS)
        if timed_out and attempt <= MAX_RETRIES:
            if lost_to_fault and not faults.recovery:
                failed += 1
                faults.lost("request", site, index=int(idx))
                issue_next(user, ready + TIMEOUT_SECONDS)
                continue
            jitter = 1.0 + 0.5 * unit_hash(
                stream.seed, f"{site}:jitter:{idx}:{attempt}")
            back = ready + TIMEOUT_SECONDS \
                + BACKOFF_SECONDS * (2.0 ** (attempt - 1)) * jitter
            retries += 1
            if lost_to_fault:
                faults.recovered("retry", site, attempt=attempt)
            heapq.heappush(events, (back, seq, DISPATCH, idx, attempt + 1,
                                    first, user, -1, 0.0, False))
            seq += 1
            continue
        # Retries exhausted accept the late answer (legacy semantics:
        # bounded retries, then the request completes regardless).

        completed += 1
        latencies.append(completion - first)
        if completion > last_completion:
            last_completion = completion
        issue_next(user, completion)

    makespan = max(duration, last_completion)
    offered = issued / duration if duration > 0 else 0.0
    if overload_rule is not None:
        capacity = cluster.total_cores / service_seconds
        if faults.recovery and shed:
            faults.recovered("load_shed", site,
                             shed_rps=round(shed / duration, 3))
        elif not faults.recovery and offered > capacity:
            faults.lost("overload", site)

    return ReplayOutcome(
        latencies=np.asarray(latencies, dtype=np.float64),
        requests=issued, completed=completed, shed=shed, failed=failed,
        hedged=hedged, retries=retries, busy_cpu_seconds=busy,
        duration=duration, makespan=makespan, offered_rps=offered,
        mix=stream.mix_counts(issued if closed else None),
        ops=stream.ops,
    )
