"""The event plane's engine: numpy batch kernels for :class:`ClusterSim`.

Stated one task at a time, the semantics of :mod:`repro.cluster.sim`
are O(TASK_WAVES x slots) per-task loops and O(n^2) pairwise shuffle
flows -- in pure Python a 1000-node replay would cost thousands of
times the 15-node paper preset.  This module replays them with batch
kernels over flat numpy state.  The per-task loop is kept as the test
oracle ``tests/cluster/reference_sim.py``, and the engine is
**bit-identical** to it (same ``SimResult.seconds``, phases, and node
usage -- gated in ``tests/cluster/test_sim_vectorized.py``).

Bit-identity is an IEEE-754 argument, not a tolerance: every float the
per-task loop produces is the result of a specific sequence of exactly
rounded +, *, /, and max operations, and the kernels below perform the
*same operations on the same operands in the same per-accumulator
order*, just batched across nodes:

* a phase barrier clamps every per-node resource clock to the phase
  start, and every resource time within a phase stays <= the phase end
  -- so each phase opens with *uniform* state and the replay is
  phase-local (only the busy-time accumulators, ``compute_end``, and
  the killed set carry across phases);
* straggler variates and flow keys are the oracle's
  :func:`repro.sitehash.unit` draws, batched by
  :func:`repro.sitehash.units` over the sites' shared prefix.  The
  eighth-power shaping is ``np.float_power``, libm ``pow`` like the
  oracle's Python ``**`` -- ``np.power`` is repeated squaring, which
  is *not* bit-equal;
* placement is an inherently sequential argmin scan (each decision
  feeds the next task's load), kept as a tight loop over flat arrays
  and per-node slot heaps.  The write-behind FIFO rides in the scan,
  in task order (``ws = max(write_free, ce)``); the scan keeps only
  each task's node, slot, compute start, and read/write start, and
  everything else -- straggler factors, compute and read ends
  re-formed by the same single IEEE operations, busy folds, spill,
  usage -- moves into vectorized pre/post passes;
* order-sensitive float accumulations (busy seconds, working bytes)
  are reproduced as exact left folds: ``np.add.accumulate`` over
  per-node task-ordered rows (accumulate is sequential, unlike the
  pairwise ``np.add.reduce``) or count-indexed fold tables;
* the O(n^2) shuffle is evaluated as a *level schedule* over the two
  NIC FIFO queues (:class:`FlowPlan`): the flows of one level touch
  disjoint queues and wait only for earlier levels, so each level is
  one vectorized max-plus advance.  Levels depend on the hash order
  alone: they are found with it, once -- a frontier walk over linked
  queue heads -- and memoized process-wide (as are the per-phase
  straggler factors), keyed by ``(seed, phase, nodes)``, so sweep
  replays skip both.

Per task the engine also records one event-arena row (node, slot,
read/compute/write windows, straggle factor) -- the structured-array
event log ``SimResult.events`` exposes lazily.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapreplace
from math import inf

import numpy as np

from repro.cluster.sim import (
    REPLICATION,
    SimPhase,
    SimResult,
    STRAGGLER_TAIL,
    TASK_WAVES,
    USABLE_MEMORY_FRACTION,
    _eighth_power,
    node_usage,
)
from repro.keyed import sort_group, stable_order
from repro.sitehash import units


#: Structured layout of one event-arena record (one per simulated task).
EVENT_DTYPE = np.dtype([
    ("node", "<i4"), ("slot", "<i4"),
    ("read_start", "<f8"), ("read_end", "<f8"),
    ("compute_start", "<f8"), ("compute_end", "<f8"),
    ("write_start", "<f8"), ("write_end", "<f8"),
    ("straggle", "<f8"), ("straggled", "?"), ("remote", "?"),
])


class _LRUCache:
    """Tiny process-wide memo keyed by (seed, phase, nodes), bounded by
    total element count so 1000-node entries cannot hoard memory."""

    def __init__(self, max_elements: int):
        self.max_elements = max_elements
        self._table: OrderedDict = OrderedDict()
        self._elements = 0

    def get(self, key):
        entry = self._table.get(key)
        if entry is not None:
            self._table.move_to_end(key)
            return entry[0]
        return None

    def put(self, key, value, elements: int) -> None:
        if key in self._table:
            return
        self._table[key] = (value, elements)
        self._elements += elements
        while self._elements > self.max_elements and len(self._table) > 1:
            _, (_, dropped) = self._table.popitem(last=False)
            self._elements -= dropped


#: Straggler factors per (seed, phase name, task count).
_FACTOR_CACHE = _LRUCache(max_elements=2_000_000)

#: Shuffle level schedules per (seed, phase name, alive nodes).
#: A 1000-node plan is ~4M elements (~32 MB), so the budget holds a
#: few huge entries or hundreds of sweep-scale ones.
_FLOW_CACHE = _LRUCache(max_elements=24_000_000)


def straggler_factors(seed: int, phase_name: str, count: int):
    """Batched scalar-identical straggler tail for ``count`` tasks.

    Returns ``(factors, straggled)``: the per-task slowdown factors
    (``1 + STRAGGLER_TAIL * u**8``) and the ``u**8 > 0.5`` flags.
    """
    key = (seed, phase_name, count)
    hit = _FACTOR_CACHE.get(key)
    if hit is not None:
        return hit
    tails = _eighth_power(units(f"{seed}|{phase_name}:task".encode(),
                                [b"%d" % t for t in range(count)]))
    factors = 1.0 + STRAGGLER_TAIL * tails
    straggled = tails > 0.5
    value = (factors, straggled)
    _FACTOR_CACHE.put(key, value, count)
    return value


def _queue_links(node):
    """The FIFO queues of flows sharing an endpoint ``node``, in flow
    (hash) order, as links: each flow's successor in its queue
    (``node.size`` after a queue's last flow) and the first flow of every
    non-empty queue, by ascending node.  Both come from the stable
    order's groups -- never from last-write-wins on repeated fancy
    indices."""
    flows = node.size
    grouped, order = sort_group(node)
    first = np.ones(flows, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    # The next flow in group order, unless that one opens a new queue.
    following = np.append(order[1:], flows)
    following[:-1][first[1:]] = flows
    successor = np.empty(flows, dtype=np.int64)
    successor[order] = following
    return successor, order[first]


class FlowPlan:
    """The shuffle of one (seed, phase, alive) as a level schedule.

    A flow's *level* is one more than the later of its predecessors in
    its source's out-queue and its destination's in-queue (both in hash
    order): the flows of one level touch disjoint queues and wait only
    for earlier levels.  ``src``/``dst`` hold the flows level by level,
    level ``k`` in ``bounds[k]:bounds[k + 1]`` (a list: the replay walks
    it in Python).  ``cell_src``/``cell_dst`` are each flow's two cells
    in the ``(nodes, width)`` busy-net fold block: ``node * width + rank
    + 1`` for the ``rank``-th charge the node takes when every flow
    charges its source, then its destination, in hash order (two
    arrays: one scatter each beats one over ``(flows, 2)`` by a third).

    The levels are found by frontier rounds over both queues kept as
    linked lists: each flow's successor in its out- and in-queue, the
    current head of every out-queue and every in-queue.  Round ``k``
    takes each out-queue head that also heads its in-queue -- exactly
    level ``k``, by ascending source -- and advances both heads.  An
    exhausted out-queue's head is the sentinel flow ``flows``, whose
    destination is an extra node that heads no flow, so it is never
    taken; a round that takes nothing ends the walk.

    All of it is a pure function of the flow *order* -- none of it
    depends on bandwidths or prior phases -- so sweep replays reuse it
    wholesale from the cache.
    """

    __slots__ = ("src", "dst", "bounds", "cell_src", "cell_dst", "width",
                 "elements")

    def __init__(self, src, dst, total_nodes: int):
        flows = src.size
        # ``head``: each sending node's out-queue head (ascending node);
        # ``in_head``: each node's in-queue head, plus the extra node
        # ``total_nodes`` -- the sentinel flow's destination -- heading
        # no flow (-1), so an exhausted out-queue is never ready.
        next_out, head = _queue_links(src)
        next_in, first_in = _queue_links(dst)
        in_head = np.full(total_nodes + 1, -1, dtype=np.int64)
        in_head[dst[first_in]] = first_in
        dst_of = np.append(dst, total_nodes)
        # Frontier rounds.  A flow that heads both its queues has both
        # predecessors in earlier rounds, and is taken in the round it
        # becomes ready: round k finds exactly level k.  The earliest
        # pending flow always heads both, so a round takes nothing only
        # once every queue is exhausted.
        levels = []
        while True:
            d = dst_of[head]
            ok = np.flatnonzero(in_head[d] == head)
            if not ok.size:
                break
            ready = head[ok]
            levels.append(ready)
            head[ok] = next_out[ready]
            in_head[d[ok]] = next_in[ready]
        del next_out, next_in, dst_of
        schedule = np.concatenate(levels)
        self.bounds = np.cumsum(
            [0] + [level.size for level in levels]).tolist()
        self.src = src[schedule]
        self.dst = dst[schedule]
        # busy_net fold cells: group the interleaved endpoint stream per
        # node (stable: a node's charges keep hash order).
        endpoints = np.empty(2 * flows, dtype=np.int64)
        endpoints[0::2] = src
        endpoints[1::2] = dst
        counts = np.bincount(endpoints, minlength=total_nodes)
        self.width = int(counts.max()) + 1
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        first_cell = np.arange(total_nodes) * self.width + 1 - starts
        grouped = stable_order(endpoints)
        cells = np.empty(2 * flows, dtype=np.int64)
        cells[grouped] = np.arange(2 * flows) + first_cell[endpoints[grouped]]
        self.cell_src = cells[2 * schedule]
        self.cell_dst = cells[2 * schedule + 1]
        self.elements = 4 * flows


def flow_order(seed: int, phase_name: str, alive: tuple,
               total_nodes: int) -> FlowPlan:
    """The all-to-all shuffle's :class:`FlowPlan`, hash-sorted.

    The per-flow walk sorts pairwise flows by ``(unit, src, dst)``; this
    reproduces that order with one batched hash pass plus one stable
    sort on the units.  ``alive`` must be ascending (the engine's node
    walk is).
    """
    key = (seed, phase_name, alive)
    hit = _FLOW_CACHE.get(key)
    if hit is not None:
        return hit
    idx = np.array(alive, dtype=np.int64)
    n = idx.size
    # Hash the full n x n site grid (diagonal discarded below: +1/n
    # hashes buys 2n instead of n^2 byte-formatting operations), one
    # source row -- one absorbed prefix -- at a time: a list of all n^2
    # digests is 40 MB and 0.1 s at 1000 nodes.
    prefix = f"{seed}|{phase_name}:flow:"
    tails = [b"%d" % j for j in alive]
    grid = np.concatenate([
        units(f"{prefix}{i}->".encode(), tails) for i in alive])
    # Cell ``c`` of the grid is the flow alive[c // n] -> alive[c % n];
    # the diagonal is every (n + 1)-th cell.
    cells = np.flatnonzero(np.arange(n * n) % (n + 1))
    # The cells are row-major over ascending ``alive``, i.e. already in
    # (src, dst) order, which a stable sort keeps among equal keys: the
    # permutation a lexsort by (keys, src, dst) would give.
    cells = cells[stable_order(grid[cells])]
    plan = FlowPlan(idx[cells // n], idx[cells % n], total_nodes)
    _FLOW_CACHE.put(key, plan, plan.elements)
    return plan


class EventArena:
    """Preallocated structured-array event log: one record per task.

    Filled column-wise by the vector engine during the replay; packed
    into a single :data:`EVENT_DTYPE` array lazily on first access via
    :attr:`SimResult.events`.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self.node = np.zeros(rows, dtype=np.int32)
        self.slot = np.zeros(rows, dtype=np.int32)
        self.read_start = np.zeros(rows)
        self.read_end = np.zeros(rows)
        self.compute_start = np.zeros(rows)
        self.compute_end = np.zeros(rows)
        self.write_start = np.zeros(rows)
        self.write_end = np.zeros(rows)
        self.straggle = np.zeros(rows)
        self.straggled = np.zeros(rows, dtype=bool)
        self.remote = np.zeros(rows, dtype=bool)
        self._phases: list = []          # (name, offset, count)
        self._packed = None

    def mark(self, name: str, offset: int, count: int) -> None:
        self._phases.append((name, offset, count))

    def pack(self) -> np.ndarray:
        """The whole arena as one structured array (built lazily)."""
        if self._packed is None:
            out = np.empty(self.rows, dtype=EVENT_DTYPE)
            for field in EVENT_DTYPE.names:
                out[field] = getattr(self, field)
            self._packed = out
        return self._packed

    def phase_events(self, name: str) -> np.ndarray:
        """Records of the first phase named ``name``."""
        for phase_name, offset, count in self._phases:
            if phase_name == name:
                return self.pack()[offset:offset + count]
        raise KeyError(f"no simulated phase named {name!r} has tasks")


class VectorEngine:
    """One vectorized replay of a :class:`JobCost` for a ClusterSim."""

    def __init__(self, sim, killed: tuple):
        self.sim = sim
        cluster = sim.cluster
        specs = cluster.nodes
        self.specs = specs
        self.n = len(specs)
        self.killed = killed
        kill_set = set(killed)
        # Fault modifiers, consumed in the scalar path's order (disk
        # then NIC per node) so standing-fault events match exactly.
        disk_factor, nic_factor = [], []
        for index in range(self.n):
            disk_factor.append(sim._modifier("slow_disk", index))
            nic_factor.append(sim._modifier("slow_nic", index))
        self.disk_bw = np.array([
            spec.disk.seq_bandwidth / factor
            for spec, factor in zip(specs, disk_factor)])
        self.nic_bw = np.array([
            spec.nic.bandwidth / factor
            for spec, factor in zip(specs, nic_factor)])
        ref_freq = cluster.node.machine.freq_hz
        self.ratio = np.array([
            ref_freq / spec.machine.freq_hz for spec in specs])
        self.cores = np.array([spec.cores for spec in specs], dtype=np.int64)
        self.mem_budget = np.array([
            USABLE_MEMORY_FRACTION * spec.memory_bytes for spec in specs])
        self.alive = [i for i in range(self.n) if i not in kill_set]
        if not self.alive:
            raise RuntimeError("cluster simulation has no alive nodes")
        self.slots = int(self.cores[self.alive].sum())
        # Replica candidates repeat with period n, so the per-task
        # placement table is one row per (task % n): the alive holders
        # of the round-robin replica set, pre-sorted by index so the
        # scan's first-strictly-less walk IS the (load, index) argmin.
        count = min(REPLICATION, self.n)
        alive_set = set(self.alive)
        self.cand_table = []
        for r in range(self.n):
            replicas = [(r + k) % self.n for k in range(count)]
            cands = sorted(i for i in replicas if i in alive_set)
            if cands:
                self.cand_table.append((cands, 0))
            else:
                self.cand_table.append((self.alive, 1))
        self.remote_by_residue = np.array(
            [entry[1] for entry in self.cand_table], dtype=bool)
        # Cross-phase carry: busy accumulators and compute horizon.
        self.busy_cpu = np.zeros(self.n)
        self.busy_disk = np.zeros(self.n)
        self.busy_net = np.zeros(self.n)
        self.compute_end = np.zeros(self.n)

    # -- whole job -----------------------------------------------------------

    def run(self, job) -> SimResult:
        sim = self.sim
        scaled = [phase.scaled(sim.data_scale) for phase in job.phases]
        task_counts = [self._num_tasks(phase) for phase in scaled]
        arena = EventArena(sum(task_counts))
        now = 0.0
        offset = 0
        phases = []
        for phase, num_tasks in zip(scaled, task_counts):
            with sim.ctx.span(f"sim:phase:{phase.name}",
                              category="cluster") as span:
                record = self._run_phase(phase, num_tasks, now, arena, offset)
                span.set("tasks", record.tasks)
                span.set("seconds", record.seconds)
            phases.append(record)
            offset += num_tasks
            now = record.end
            # The scalar phase barrier clamps every alive resource to
            # ``now``; every in-phase resource time is <= the phase end,
            # so the clamp *collapses* the state -- each phase opens
            # uniform and nothing but the accumulators carries over.
        makespan = now
        usage = tuple(
            node_usage(index, spec, float(self.busy_cpu[index]),
                       float(self.busy_disk[index]),
                       float(self.busy_net[index]), makespan)
            for index, spec in enumerate(self.specs))
        return SimResult(seconds=makespan, phases=tuple(phases), nodes=usage,
                         killed=self.killed, arena=arena)

    def _num_tasks(self, phase) -> int:
        """Arena rows this phase needs (0 when it schedules no tasks)."""
        has_tasks = (phase.cpu_seconds > 0 or phase.disk_read_bytes > 0
                     or phase.disk_write_bytes > 0 or phase.working_bytes > 0)
        return max(1, TASK_WAVES * self.slots) if has_tasks else 0

    # -- one phase -----------------------------------------------------------

    def _run_phase(self, phase, num_tasks: int, now: float,
                   arena: EventArena, offset: int) -> SimPhase:
        end = now
        straggled = 0
        remote_tasks = 0
        spill_total = 0.0
        if num_tasks:
            end, straggled, remote_tasks, spill_total = self._task_waves(
                phase, num_tasks, now, arena, offset)
        if phase.shuffle_bytes > 0 and len(self.alive) > 1:
            end = max(end, self._shuffle(phase, now))
        return SimPhase(name=phase.name, start=now,
                        end=end + phase.fixed_seconds, tasks=num_tasks,
                        straggled=straggled, remote_tasks=remote_tasks,
                        spill_bytes=spill_total)

    def _task_waves(self, phase, num_tasks: int, now: float,
                    arena: EventArena, offset: int):
        n = self.n
        cpu_share = phase.cpu_seconds / num_tasks
        read_share = phase.disk_read_bytes / num_tasks
        write_share = phase.disk_write_bytes / num_tasks
        work_share = phase.working_bytes / num_tasks
        has_read = read_share > 0
        has_write = write_share > 0

        factors, straggled_mask = straggler_factors(
            self.sim.seed, phase.name, num_tasks)
        # First multiply of the scalar's cpu_share * factor * ratio.
        weighted = cpu_share * factors

        # Per-node constants: one division, reused for every task on
        # the node (the scalar recomputes the same quotient per task).
        read_time = read_share / self.disk_bw
        write_time = write_share / self.disk_bw

        # --- placement scan (sequential by construction) -------------------
        # Each decision feeds the next task's load, and the write-behind
        # FIFO follows the tasks' compute ends in task order, so this
        # stays a Python loop -- but over flat lists and per-node slot
        # heaps, keeping only what no batched pass can form afterwards.
        cand_table = self.cand_table
        weighted_l = weighted.tolist()
        ratio_l = self.ratio.tolist()
        read_l = read_time.tolist()
        write_l = write_time.tolist()
        disk_free = [now] * n
        core_min = [now] * n
        write_free = [now] * n
        heaps = [[(now, slot) for slot in range(int(c))] for c in self.cores]
        nodes_l, slots_l, st_l, rs_l, ws_l = [], [], [], [], []
        remote_total = 0
        for task in range(num_tasks):
            cands, remote = cand_table[task % n]
            remote_total += remote
            best = -1
            best_load = inf
            for c in cands:
                load = disk_free[c]
                m = core_min[c]
                if m > load:
                    load = m
                if load < best_load:
                    best_load = load
                    best = c
            if has_read:
                rs = disk_free[best]
                re = rs + read_l[best]
                disk_free[best] = re
                rs_l.append(rs)
            else:
                re = now
            heap = heaps[best]
            core_free, slot = heap[0]
            st = core_free if core_free > re else re
            ce = st + weighted_l[task] * ratio_l[best]
            heapreplace(heap, (ce, slot))
            core_min[best] = heap[0][0]
            if has_write:
                ws = write_free[best]
                if ce > ws:
                    ws = ce
                write_free[best] = ws + write_l[best]
                ws_l.append(ws)
            nodes_l.append(best)
            slots_l.append(slot)
            st_l.append(st)

        # --- batched post passes -------------------------------------------
        # The scan's own per-task values, re-formed by the same single
        # IEEE operations on the same operands.
        node_arr = np.array(nodes_l, dtype=np.int64)
        st_arr = np.array(st_l)
        ct_arr = weighted * self.ratio[node_arr]
        ce_arr = st_arr + ct_arr
        if has_read:
            rs_arr = np.array(rs_l)
            re_arr = rs_arr + read_time[node_arr]
        else:
            rs_arr = re_arr = now
        if has_write:
            ws_arr = np.array(ws_l)
            we_arr = ws_arr + write_time[node_arr]
            task_end = we_arr
        else:
            ws_arr = we_arr = task_end = ce_arr
        write_free = np.array(write_free)

        # Per-node task grouping (stable: rows keep task order).
        counts = np.bincount(node_arr, minlength=n)
        max_k = int(counts.max())
        order = stable_order(node_arr)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        grouped_nodes = node_arr[order]
        ranks = np.arange(num_tasks) - starts[grouped_nodes]

        # busy_cpu: exact left fold of each node's cpu times in task
        # order (accumulate is sequential; trailing zero pads are exact).
        cpu_rows = np.zeros((n, max_k + 1))
        cpu_rows[:, 0] = self.busy_cpu
        cpu_rows[grouped_nodes, ranks + 1] = ct_arr[order]
        self.busy_cpu = np.add.accumulate(cpu_rows, axis=1)[:, -1]

        # busy_disk: the scalar adds read_time then write_time per task,
        # both per-node constants -- the same fold over rows that
        # alternate them for the node's task count (the zeros elsewhere
        # are exact: the sums are non-negative).
        if has_read or has_write:
            ran = np.arange(max_k) < counts[:, None]
            disk_rows = np.zeros((n, 2 * max_k + 1))
            disk_rows[:, 0] = self.busy_disk
            if has_read:
                disk_rows[:, 1::2] = np.where(ran, read_time[:, None], 0.0)
            if has_write:
                disk_rows[:, 2::2] = np.where(ran, write_time[:, None], 0.0)
            self.busy_disk = np.add.accumulate(disk_rows, axis=1)[:, -1]

        np.maximum.at(self.compute_end, node_arr, ce_arr)

        end = max(now, float(task_end.max()))

        # Memory pressure: count-indexed fold table gives each node's
        # working-byte total with the scalar's exact addition sequence.
        spill_total = 0.0
        if work_share > 0:
            fold = [0.0]
            acc = 0.0
            for _ in range(max_k):
                acc += work_share
                fold.append(acc)
            working = np.array(fold)[counts]
            excess = working - self.mem_budget
            spilling = np.nonzero(excess > 0)[0]
            if spilling.size:
                spill_time = (excess * self.sim.spill_passes) / self.disk_bw
                spill_start = np.maximum(write_free, self.compute_end)
                write_free[spilling] = (spill_start[spilling]
                                        + spill_time[spilling])
                self.busy_disk[spilling] += spill_time[spilling]
                # Node-index-ordered fold, like the scalar's alive walk.
                for value in excess[spilling].tolist():
                    spill_total += value
                end = max(end, float(write_free[spilling].max()))

        # --- event arena ----------------------------------------------------
        sl = slice(offset, offset + num_tasks)
        arena.node[sl] = node_arr
        arena.slot[sl] = slots_l
        arena.read_start[sl] = rs_arr
        arena.read_end[sl] = re_arr
        arena.compute_start[sl] = st_arr
        arena.compute_end[sl] = ce_arr
        arena.write_start[sl] = ws_arr
        arena.write_end[sl] = we_arr
        arena.straggle[sl] = factors
        arena.straggled[sl] = straggled_mask
        arena.remote[sl] = self.remote_by_residue[
            np.arange(num_tasks) % n]
        arena.mark(phase.name, offset, num_tasks)

        return end, int(straggled_mask.sum()), remote_total, spill_total

    # -- shuffle -------------------------------------------------------------

    def _shuffle(self, phase, now: float) -> float:
        """Hash-ordered pairwise flows, one :class:`FlowPlan` level --
        one batched max-plus update -- at a time; levels in order serve
        every queue in FIFO order, so every float matches the scalar
        walk.  The scalar starts a flow at ``max(compute_end[src],
        nic_out[src], nic_in[dst], now)``; a queue only moves forward,
        and max is exact and order-free, so the two operands that never
        change are folded into the opening times.
        """
        alive = self.alive
        m = len(alive)
        per_flow = phase.shuffle_bytes / (m * (m - 1))
        plan = flow_order(self.sim.seed, phase.name, tuple(alive), self.n)
        src, dst, bounds = plan.src, plan.dst, plan.bounds
        rate = np.minimum(self.nic_bw[src], self.nic_bw[dst])
        duration = per_flow / rate

        nic_out = np.maximum(self.compute_end, now)
        nic_in = np.full(self.n, now)
        for lo, hi in zip(bounds, bounds[1:]):
            s = src[lo:hi]
            d = dst[lo:hi]
            finish = nic_out[s]
            np.maximum(finish, nic_in[d], out=finish)
            finish += duration[lo:hi]
            nic_out[s] = finish
            nic_in[d] = finish

        # busy_net: each flow charges src then dst in hash order -- an
        # exact left fold along each node's row of the plan's cells.
        rows = np.zeros((self.n, plan.width))
        rows[:, 0] = self.busy_net
        flat = rows.reshape(-1)
        flat[plan.cell_src] = duration
        flat[plan.cell_dst] = duration
        self.busy_net = np.add.accumulate(rows, axis=1)[:, -1]
        # Every alive node sends, and its out-queue ends on its last
        # finish: the latest of them is the latest finish of all.
        return max(now, float(nic_out[alive].max()))
