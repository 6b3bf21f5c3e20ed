"""Per-engine fault recovery: output preserved with recovery on,
loss observable with recovery off."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.mapreduce import Dfs, MapReduceJob, MapReduceRuntime
from repro.mpi import BspProgram, BspRuntime
from repro.nosql import LsmStore
from repro.serving import Server, ServingRun, run_serving
from repro.uarch import PerfContext, XEON_E5645
from repro.uarch.perfctx import NullPerfContext

SMALL = ClusterSpec(num_nodes=4)


def injector(spec: str, recovery: bool = True, seed: int = 0,
             ckpt: int = 2) -> FaultInjector:
    return FaultInjector(
        FaultPlan.parse(spec, recovery=recovery, checkpoint_interval=ckpt),
        seed=seed)


# -- MapReduce ---------------------------------------------------------------

class CountJob(MapReduceJob):
    name = "chaos-count"
    use_combiner = True

    def record_count(self, split):
        return len(split.payload)

    def map_batch(self, split, ctx):
        tokens = split.payload
        return tokens.astype(np.int64), np.ones(len(tokens), dtype=np.int64)

    def reduce_batch(self, keys, values, starts, ctx):
        return keys, np.add.reduceat(values, starts)


def mr_input():
    data = np.arange(20_000) % 31
    return Dfs(block_size=64 * 1024).put("in", data, 1024 * 1024)  # 16 splits


def run_mr(faults=None, ctx=None):
    runtime = MapReduceRuntime(cluster=SMALL, ctx=ctx, faults=faults)
    return runtime.run(CountJob(), mr_input())


class TestMapReduceRecovery:
    def test_task_crash_retry_preserves_output(self):
        clean = run_mr()
        chaos = run_mr(injector("task_crash:rate=0.5"))
        assert np.array_equal(clean.output_keys, chaos.output_keys)
        assert np.array_equal(clean.output_values, chaos.output_values)
        assert chaos.counters.get("task_retries") > 0

    def test_task_crash_costs_extra_instructions(self):
        def instructions(faults):
            ctx = PerfContext(XEON_E5645, seed=0)
            run_mr(faults, ctx=ctx)
            return ctx.finalize().events.instructions

        assert instructions(injector("task_crash:rate=0.6")) \
            > 1.2 * instructions(None)

    def test_task_crash_costs_extra_time(self):
        from repro.cluster.timemodel import TimeModel

        tm = TimeModel(data_scale=8192)
        chaos = run_mr(injector("task_crash:rate=0.6"))
        assert tm.job_time(chaos.cost) > tm.job_time(run_mr().cost)

    def test_attempts_bounded_at_rate_one(self):
        chaos = run_mr(injector("task_crash:rate=1.0"))
        splits = len(mr_input().splits())
        assert chaos.counters.get("task_retries") == \
            (MapReduceRuntime.MAX_ATTEMPTS - 1) * splits

    def test_task_crash_without_recovery_loses_splits(self):
        clean = run_mr()
        chaos = run_mr(injector("task_crash:rate=0.5", recovery=False))
        assert chaos.counters.get("lost_splits") > 0
        assert chaos.output_values.sum() < clean.output_values.sum()

    def test_node_kill_rereads_from_replica(self):
        clean = run_mr()
        faults = injector("node_kill:node=1")
        chaos = run_mr(faults)
        assert np.array_equal(clean.output_values, chaos.output_values)
        assert chaos.counters.get("replica_rereads") > 0
        actions = {e.kind for e in faults.event_log()
                   if e.phase == "recovery"}
        assert "replica_reread" in actions
        # Replica reads are remote: charged as extra shuffle+disk bytes.
        map_cost = [p for p in chaos.cost.phases if p.name == "map"][0]
        clean_map = [p for p in clean.cost.phases if p.name == "map"][0]
        assert map_cost.disk_read_bytes > clean_map.disk_read_bytes

    def test_all_replicas_dead_loses_split(self):
        # Replication on a 2-node cluster is 2; killing both nodes
        # leaves no survivor for any split.
        two = ClusterSpec(num_nodes=2)
        data = np.arange(5_000) % 7
        file = Dfs(block_size=64 * 1024).put("in", data, 1024 * 1024)
        faults = injector("node_kill:node=0;node_kill:node=1")
        result = MapReduceRuntime(cluster=two, faults=faults).run(
            CountJob(), file)
        assert result.counters.get("lost_splits") > 0
        assert len(result.output_keys) == 0
        assert any(e.phase == "lost" for e in faults.event_log())

    def test_straggler_speculation_preserves_output(self):
        clean = run_mr()
        faults = injector("straggler:rate=0.4")
        chaos = run_mr(faults)
        assert np.array_equal(clean.output_values, chaos.output_values)
        assert chaos.counters.get("speculative_tasks") > 0

    def test_straggler_without_recovery_stretches_phase(self):
        faults = injector("straggler:rate=0.4:factor=8", recovery=False)
        chaos = run_mr(faults)
        assert chaos.counters.get("straggled_tasks") > 0
        map_cost = [p for p in chaos.cost.phases if p.name == "map"][0]
        assert map_cost.fixed_seconds > 0


# -- BSP ---------------------------------------------------------------------

class Iterate(BspProgram):
    """Deterministic multi-superstep program with rank communication."""

    name = "iterate"
    STEPS = 6

    def init_rank(self, rank, num_ranks, ctx):
        return {"acc": np.zeros(8), "received": 0.0}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        for payload in inbox:
            state["received"] += float(np.asarray(payload).sum())
        state["acc"] = state["acc"] + rank + step
        if step < self.STEPS:
            comm.send((rank + 1) % comm.num_ranks,
                      np.full(8, rank + step, dtype=np.float64))
            return True
        return False


def bsp_states(result):
    return [(s["acc"].tolist(), s["received"]) for s in result.states]


class TestBspRecovery:
    def test_checkpoint_restart_preserves_states(self):
        clean = BspRuntime(num_ranks=4).run(Iterate())
        faults = injector("rank_crash:at=3")
        chaos = BspRuntime(num_ranks=4, faults=faults).run(Iterate())
        assert bsp_states(clean) == bsp_states(chaos)
        actions = [e for e in faults.event_log()
                   if e.kind == "checkpoint_restart"]
        assert actions
        # The restart re-reads the checkpoint and pays fixed time.
        names = [p.name for p in chaos.cost.phases]
        assert any(n.startswith("recovery:restart") for n in names)
        assert any(n.startswith("checkpoint") for n in names)

    def test_msg_drop_retransmit_preserves_states(self):
        clean = BspRuntime(num_ranks=4).run(Iterate())
        faults = injector("msg_drop:rate=0.3")
        chaos = BspRuntime(num_ranks=4, faults=faults).run(Iterate())
        assert bsp_states(clean) == bsp_states(chaos)
        retransmits = [e for e in faults.event_log()
                       if e.kind == "retransmit"]
        assert retransmits
        # Retransmitted bytes cross the wire twice.
        assert chaos.bytes_communicated > clean.bytes_communicated

    def test_rank_crash_without_recovery_diverges(self):
        clean = BspRuntime(num_ranks=4).run(Iterate())
        faults = injector("rank_crash:at=3", recovery=False)
        chaos = BspRuntime(num_ranks=4, faults=faults).run(Iterate())
        assert bsp_states(clean) != bsp_states(chaos)
        assert any(e.kind == "rank_state" for e in faults.event_log())

    def test_msg_drop_without_recovery_diverges(self):
        clean = BspRuntime(num_ranks=4).run(Iterate())
        faults = injector("msg_drop:rate=0.3", recovery=False)
        chaos = BspRuntime(num_ranks=4, faults=faults).run(Iterate())
        assert bsp_states(clean) != bsp_states(chaos)

    def test_checkpoints_only_written_when_crash_armed(self):
        faults = injector("msg_drop:rate=0.3")
        chaos = BspRuntime(num_ranks=4, faults=faults).run(Iterate())
        names = [p.name for p in chaos.cost.phases]
        assert not any(n.startswith("checkpoint") for n in names)


# -- LSM store ---------------------------------------------------------------

def key(i: int) -> bytes:
    return f"row:{i:08d}".encode()


class TestLsmRecovery:
    def test_wal_replay_rebuilds_memtable(self):
        clean = LsmStore("a")
        chaos = LsmStore("b", faults=injector("crash:at=50"))
        for i in range(120):
            clean.put(key(i), 100 + i)
            chaos.put(key(i), 100 + i)
        assert chaos.stats.crashes == 1
        assert chaos.stats.wal_replays == 1
        for i in range(120):
            a, b = clean.get(key(i)), chaos.get(key(i))
            assert (a is None) == (b is None)
            assert a.size == b.size and a.stamp == b.stamp
        assert chaos._memtable == clean._memtable

    def test_crash_without_recovery_loses_unflushed_writes(self):
        faults = injector("crash:at=50", recovery=False)
        store = LsmStore("c", faults=faults)
        for i in range(60):
            store.put(key(i), 100)
        # Everything written before the crash (and not flushed) is gone.
        assert store.get(key(0)) is None
        assert store.get(key(55)) is not None
        assert any(e.kind == "memtable_records" for e in faults.event_log())

    def test_flush_rolls_the_wal(self):
        store = LsmStore("d", faults=injector("crash:at=999999"))
        for i in range(50):
            store.put(key(i), 100)
        store.flush()
        assert store._wal == []

    def test_checksum_reread_preserves_reads(self):
        def build(store):
            for i in range(200):
                store.put(key(i), 100 + i)
            store.flush()
            return store

        clean = build(LsmStore("e"))
        chaos = build(LsmStore("f", faults=injector("block_corrupt:rate=0.3")))
        for i in range(200):
            assert clean.get(key(i)).stamp == chaos.get(key(i)).stamp
        assert chaos.stats.checksum_failures > 0
        assert chaos.stats.block_read_bytes > clean.stats.block_read_bytes

    def test_corrupt_block_without_recovery_can_miss(self):
        faults = injector("block_corrupt:rate=1.0", recovery=False)
        store = LsmStore("g", faults=faults)
        for i in range(50):
            store.put(key(i), 100)
        store.flush()
        # Every sstable read hits a bad checksum and is skipped.
        assert store.get(key(0)) is None
        assert any(e.kind == "block" for e in faults.event_log())


# -- Serving -----------------------------------------------------------------

class TinyServer(Server):
    name = "tiny"
    MIX = (("a", 0.7), ("b", 0.3))

    def handle(self, rng, ctx):
        return "a" if rng.random() < 0.7 else "b"

    def dataset_bytes(self):
        return 1024


def serve(plan=None, recovery=True, rps=100.0):
    """Replay TinyServer's study with ``plan`` attached to the context,
    as the harness attaches a chaos run's injector."""
    ctx = NullPerfContext()
    if plan is not None:
        ctx.faults = injector(plan, recovery=recovery)
    spec = ServingRun(server=TinyServer(), seed=3, sample_requests=400,
                      profile=f"constant:rps={rps}:duration=4")
    return run_serving(spec, ctx=ctx), ctx.faults


def retry_keeps_the_mix(clean, chaos, faults):
    assert chaos.request_mix == clean.request_mix
    assert chaos.completed == chaos.requests
    assert chaos.retried_fraction > 0
    assert chaos.mean_latency > clean.mean_latency


def timeouts_fail_requests(clean, chaos, faults):
    lost = sum(event.phase == "lost" and event.kind == "request"
               for event in faults.event_log())
    assert lost > 0
    assert chaos.completed == chaos.requests - lost
    assert chaos.failed_fraction == lost / chaos.requests
    # The replay's mix counts issued requests, failed ones included.
    assert chaos.request_mix == clean.request_mix


def hedging_keeps_the_mix(clean, chaos, faults):
    assert chaos.request_mix == clean.request_mix
    assert chaos.completed == chaos.requests
    assert chaos.hedged_fraction > 0


def stragglers_add_latency(clean, chaos, faults):
    assert chaos.request_mix == clean.request_mix
    assert chaos.hedged_fraction == 0
    assert chaos.mean_latency > clean.mean_latency


def shedding_bounds_latency(clean, chaos, faults):
    # Far past saturation the clean queue grows without bound; shedding
    # the excess keeps every completed request below the clean mean.
    assert clean.queueing.saturated and clean.shed_fraction == 0
    assert chaos.shed_fraction > 0
    assert chaos.max_latency < clean.mean_latency


class TestServingRecovery:
    @pytest.mark.parametrize("plan, recovery, rps, check", [
        ("timeout:rate=0.2", True, 100.0, retry_keeps_the_mix),
        ("timeout:rate=0.2", False, 100.0, timeouts_fail_requests),
        ("straggler:rate=0.2", True, 100.0, hedging_keeps_the_mix),
        ("straggler:rate=0.2:factor=8", False, 100.0,
         stragglers_add_latency),
        ("overload:rate=1.0", True, 1e5, shedding_bounds_latency),
    ], ids=["retry", "no-recovery-timeout", "hedge", "unhedged-straggler",
            "shed"])
    def test_replay_keeps_the_fault_invariant(self, plan, recovery, rps,
                                              check):
        clean, _ = serve(rps=rps)
        chaos, faults = serve(plan, recovery=recovery, rps=rps)
        check(clean, chaos, faults)


# -- SQL ---------------------------------------------------------------------

class TestSqlRecovery:
    def make_engine(self, faults=None):
        from repro.datagen.table import Table
        from repro.sql import SqlEngine

        engine = SqlEngine(faults=faults)
        engine.register("orders", Table("orders", {
            "ORDER_ID": np.arange(1, 101, dtype=np.int64),
            "BUYER_ID": np.arange(1, 101, dtype=np.int64) % 13,
        }), nbytes=4000)
        return engine

    QUERY = "SELECT ORDER_ID FROM orders WHERE BUYER_ID = 3"

    def test_fragment_retry_preserves_result(self):
        clean = self.make_engine().execute(self.QUERY)
        faults = injector("task_crash:rate=1.0")
        chaos = self.make_engine(faults=faults).execute(self.QUERY)
        assert (clean.table.column("ORDER_ID").tolist()
                == chaos.table.column("ORDER_ID").tolist())
        assert chaos.stats.fragments_retried == 1
        assert any(e.kind == "fragment_retry" for e in faults.event_log())

    def test_fragment_crash_without_recovery_records_loss(self):
        faults = injector("task_crash:rate=1.0", recovery=False)
        self.make_engine(faults=faults).execute(self.QUERY)
        assert any(e.kind == "scan_fragment" and e.phase == "lost"
                   for e in faults.event_log())


# -- Spark -------------------------------------------------------------------

class TestSparkRecovery:
    def run_sort(self, faults=None):
        from repro.spark import SparkContext

        ctx = PerfContext(XEON_E5645, seed=0)
        if faults is not None:
            ctx.faults = faults
        sc = SparkContext(ctx=ctx)
        data = np.random.default_rng(7).integers(0, 1000, size=2000)
        return np.concatenate(
            sc.parallelize(data, name="in").sort_by_key().collect())

    def test_lineage_recompute_preserves_output(self):
        clean = self.run_sort()
        faults = injector("task_crash:at=1")
        chaos = self.run_sort(faults=faults)
        assert np.array_equal(clean, chaos)
        assert any(e.kind == "lineage_recompute"
                   for e in faults.event_log())

    def test_crash_without_recovery_records_loss(self):
        faults = injector("task_crash:at=1", recovery=False)
        self.run_sort(faults=faults)
        assert any(e.kind == "action_partitions" and e.phase == "lost"
                   for e in faults.event_log())
