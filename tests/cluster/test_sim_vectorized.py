"""The event plane's engine: bit-identity with the per-task oracle.

The engine (:mod:`repro.cluster.vector`) must replay every job
*bit-identically* to the per-task loop in ``reference_sim`` -- same
``SimResult.seconds``, phase records, per-node busy seconds -- across
seeds, heterogeneous clusters, scaled clusters, and fault plans.  The
grid here is property-style: every job shape the simulator models
(cpu/io/shuffle/spill/fixed/mixed) crossed with the cluster and fault
axes, fingerprinted down to the float.

Also covered: the invariants of the shuffle's level schedule
(:class:`~repro.cluster.vector.FlowPlan`) over drawn clusters and one
with long queues, the straggler draws and their eighth-power shaping
against Python's ``**``, the event arena (one structured record per task)
agreeing with the ``SimPhase`` aggregates, and the per-node gauge
limit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import sitehash
from repro.cluster import (
    ClusterSim,
    ClusterSpec,
    JobCost,
    MIXED_CLUSTER,
    PAPER_CLUSTER,
    PhaseCost,
)
from repro.cluster.sim import STRAGGLER_TAIL, _eighth_power
from repro.cluster.vector import _fold_cells, flow_order, straggler_factors
from repro.keyed import GUIDE_CHUNK
from repro.faults import FaultInjector, FaultPlan
from tests.cluster import reference_sim
from tests.cluster.test_sim import fingerprint, mr_like_job

GB = 1024 ** 3


def cpu_job():
    return JobCost().add(PhaseCost(name="cpu", cpu_seconds=20_000.0))


def io_job():
    return JobCost().add(PhaseCost(
        name="scan", cpu_seconds=200.0, disk_read_bytes=500 * GB))


def shuffle_job():
    return JobCost().add(PhaseCost(name="exchange", shuffle_bytes=40 * GB))


def spill_job():
    return JobCost().add(PhaseCost(
        name="map", cpu_seconds=100.0, working_bytes=400 * GB))


def fixed_job():
    return JobCost().add(PhaseCost(name="setup", fixed_seconds=32.0))


def two_shuffle_job():
    """Busy seconds carried from one phase's folds into the next's: two
    shuffles and two disk phases in one job."""
    return JobCost().add(PhaseCost(
        name="map", cpu_seconds=3000.0, disk_read_bytes=80 * GB,
        shuffle_bytes=40 * GB,
    )).add(PhaseCost(
        name="join", cpu_seconds=500.0, disk_read_bytes=50 * GB,
        disk_write_bytes=20 * GB, shuffle_bytes=25 * GB))


JOBS = {
    "mr": mr_like_job,
    "two_shuffles": two_shuffle_job,
    "cpu": cpu_job,
    "io": io_job,
    "shuffle": shuffle_job,
    "spill": spill_job,
    "fixed": fixed_job,
}

#: Fault plans covering every per-node modifier the simulator knows:
#: a kill, combined slow_disk+slow_nic, and three consecutive kills
#: (which leaves some tasks' whole replica set dead -> remote reads).
FAULT_PLANS = {
    "none": None,
    "kill": "node_kill:node=3",
    "slow": "slow_disk:node=2:factor=8;slow_nic:node=0:factor=10",
    "kill_replica_run": ("node_kill:node=3;node_kill:node=4;"
                         "node_kill:node=5"),
}


def make_sim(cluster, seed=0, plan=None, data_scale=1.0):
    faults = (FaultInjector(FaultPlan.parse(plan), seed=seed)
              if plan else None)
    return ClusterSim(cluster, data_scale=data_scale, seed=seed,
                      faults=faults)


def assert_equivalent(cluster, job, seed=0, plan=None, data_scale=1.0):
    reference = reference_sim.run(
        make_sim(cluster, seed, plan, data_scale), job)
    vector = make_sim(cluster, seed, plan, data_scale).run(job)
    assert fingerprint(reference) == fingerprint(vector)
    return vector


class TestEquivalenceGrid:
    """The full property grid on the paper cluster; spot checks widen
    the cluster axis below."""

    @pytest.mark.parametrize("job_name", sorted(JOBS))
    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_paper_cluster(self, job_name, plan_name, seed):
        assert_equivalent(PAPER_CLUSTER, JOBS[job_name](), seed=seed,
                          plan=FAULT_PLANS[plan_name])

    @pytest.mark.parametrize("job_name", sorted(JOBS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_mixed_cluster(self, job_name, seed):
        assert_equivalent(MIXED_CLUSTER, JOBS[job_name](), seed=seed)

    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    def test_mixed_cluster_faults(self, plan_name):
        assert_equivalent(MIXED_CLUSTER, mr_like_job(), seed=3,
                          plan=FAULT_PLANS[plan_name])

    @pytest.mark.parametrize("seed", [0, 5])
    def test_scaled_100(self, seed):
        assert_equivalent(PAPER_CLUSTER.scaled(100), mr_like_job(),
                          seed=seed)

    def test_scaled_100_with_faults(self):
        assert_equivalent(PAPER_CLUSTER.scaled(100), mr_like_job(),
                          seed=2, plan=FAULT_PLANS["slow"])

    def test_single_node(self):
        assert_equivalent(ClusterSpec(num_nodes=1), mr_like_job())

    def test_data_scale(self):
        assert_equivalent(PAPER_CLUSTER, mr_like_job(), data_scale=4.0)

    def test_fault_event_log_identical(self):
        """The engine must drive the fault injector through the same
        sites in the same order as the oracle (the injector records
        standing events once per site)."""
        plan = ("node_kill:node=1;slow_disk:node=2:factor=4;"
                "slow_nic:node=5:factor=2")

        def events(replay):
            faults = FaultInjector(FaultPlan.parse(plan), seed=3)
            replay(ClusterSim(PAPER_CLUSTER, seed=3, faults=faults),
                   mr_like_job())
            return tuple((e.kind, e.site, e.phase) for e in faults.events)

        assert events(reference_sim.run) == events(ClusterSim.run)


@st.composite
def shuffles(draw):
    """``(seed, alive, total_nodes)``: up to 12 nodes, any killed set
    that leaves two alive."""
    total = draw(st.integers(2, 12))
    killed = draw(st.sets(st.integers(0, total - 1), max_size=total - 2))
    alive = tuple(i for i in range(total) if i not in killed)
    return draw(st.integers(0, 10_000)), alive, total


class TestFlowPlan:
    """The level schedule against the oracle's own flow order."""

    @given(case=shuffles())
    @settings(max_examples=150, deadline=None)
    def test_level_schedule_invariants(self, case):
        self.check_plan(*case)

    def test_long_queues(self):
        """Queues 146 flows long, a non-contiguous alive set, and
        trailing dead nodes (``total_nodes > max(alive) + 1``): the
        linked queue heads and the sentinel far past what the drawn
        clusters reach."""
        killed = {11, 90, 149}
        self.check_plan(29, tuple(i for i in range(150) if i not in killed),
                        150)

    @staticmethod
    def check_plan(seed, alive, total):
        plan = flow_order(seed, "exchange", alive, total)
        flows = len(alive) * (len(alive) - 1)
        # The oracle's order: by (unit, src, dst).
        hashed = sorted(
            (sitehash.unit(seed, f"exchange:flow:{s}->{d}"), s, d)
            for s in alive for d in alive if s != d)
        position = {(s, d): k for k, (_, s, d) in enumerate(hashed)}

        # Levels partition the flows.
        assert plan.bounds[0] == 0 and plan.bounds[-1] == flows
        assert all(lo < hi for lo, hi in zip(plan.bounds, plan.bounds[1:]))
        # A flow's endpoints are its cells' rows.
        src = plan.cell_src // plan.width
        dst = plan.cell_dst // plan.width
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert sorted(pairs) == sorted(position)
        level = {}
        for k, (lo, hi) in enumerate(zip(plan.bounds, plan.bounds[1:])):
            # Within a level no queue is touched twice.
            assert len(set(src[lo:hi].tolist())) == hi - lo
            assert len(set(dst[lo:hi].tolist())) == hi - lo
            level.update((pair, k) for pair in pairs[lo:hi])

        # A flow's level is one more than the later of its predecessors
        # in its source's out-queue and its destination's in-queue.
        last_out, last_in = {}, {}
        for _, s, d in hashed:
            assert level[s, d] == 1 + max(last_out.get(s, -1),
                                          last_in.get(d, -1))
            last_out[s] = last_in[d] = level[s, d]

        # Fold cells: distinct, never the carry column, and along the
        # node's own row in the order the oracle charges the node.
        cells = np.concatenate((plan.cell_src, plan.cell_dst))
        assert len(set(cells.tolist())) == 2 * flows
        assert (cells % plan.width != 0).all()
        cell_of = dict(zip(pairs, zip(plan.cell_src.tolist(),
                                      plan.cell_dst.tolist())))
        charged = dict.fromkeys(range(total), 0)
        for _, s, d in hashed:
            for node, cell in zip((s, d), cell_of[s, d]):
                charged[node] += 1
                assert cell == node * plan.width + charged[node]
        assert plan.width == max(charged.values()) + 1
        assert plan.nbytes == plan.cell_src.nbytes + plan.cell_dst.nbytes \
            == 8 * flows


def test_fold_cells_over_several_chunks():
    """190 alive nodes are 2 x 35 910 endpoints: the fold cells, formed
    one ``GUIDE_CHUNK`` of the grouped endpoints at a time, cross a chunk
    boundary and must still be the oracle's."""
    flows = 190 * 189
    assert 2 * flows > GUIDE_CHUNK
    TestFlowPlan.check_plan(11, tuple(range(190)), 190)


def test_fold_cells_past_int32_are_refused():
    """32 768 rows of 65 537 cells are 2^31 + 32 768 cells: one more
    than the int32 cells of a plan can name."""
    src = np.zeros(GUIDE_CHUNK, dtype=np.int64)
    with pytest.raises(ValueError, match="int32"):
        _fold_cells(src, src + 1, 32_768)


def test_shuffle_across_chunk_boundaries():
    """257 alive nodes are 65 792 flows, so the replay reads each plan in
    two ``GUIDE_CHUNK`` pieces, and a level of the first shuffle lies
    across the cut.  Two shuffles carry the busy-net fold from one phase
    into the next; node usage included, the replay is the oracle's."""
    nodes = 257
    assert nodes * (nodes - 1) > GUIDE_CHUNK
    bounds = flow_order(0, "exchange", tuple(range(nodes)), nodes).bounds
    assert GUIDE_CHUNK not in bounds
    job = shuffle_job().add(PhaseCost(name="exchange2",
                                      shuffle_bytes=25 * GB))
    result = assert_equivalent(PAPER_CLUSTER.scaled(nodes), job)
    assert all(u.busy_net_seconds > 0 for u in result.nodes)


def test_eighth_power_is_the_scalar_pow():
    """``_eighth_power`` (both replay engines) against the per-task
    oracles' Python ``u ** 8``, over 10^5 hashed units."""
    units = sitehash.units(b"3|map:task",
                           [b"%d" % t for t in range(100_000)])
    assert _eighth_power(units).tolist() == [u ** 8 for u in units.tolist()]
    for size in (0, 1, 7, 8, 9, 33):     # SIMD body and tail alike
        assert _eighth_power(units[:size]).tolist() == [
            u ** 8 for u in units[:size].tolist()]
    assert _eighth_power([0.0, 1.0, 0.5]).tolist() == [0.0, 1.0, 0.5 ** 8]


@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_straggler_factors_are_the_scalar_draws(count):
    """The batched straggler tail, bit for bit the oracle's per-task
    ``1 + STRAGGLER_TAIL * sitehash.unit(...) ** 8``."""
    factors, straggled = straggler_factors(11, "probe", count)
    tails = [sitehash.unit(11, f"probe:task{t}") ** 8 for t in range(count)]
    assert factors.tolist() == [1 + STRAGGLER_TAIL * u for u in tails]
    assert straggled.tolist() == [u > 0.5 for u in tails]


class TestEventArena:
    def result(self, **kwargs):
        return make_sim(PAPER_CLUSTER, **kwargs).run(mr_like_job())

    def test_one_record_per_task(self):
        result = self.result()
        assert len(result.events) == sum(p.tasks for p in result.phases)

    def test_phase_slices_match_aggregates(self):
        result = self.result(seed=4)
        for phase in result.phases:
            if phase.tasks == 0:
                with pytest.raises(KeyError):
                    result.phase_events(phase.name)
                continue
            events = result.phase_events(phase.name)
            assert len(events) == phase.tasks
            assert int(events["straggled"].sum()) == phase.straggled
            assert int(events["remote"].sum()) == phase.remote_tasks
            # Every record's windows are ordered and inside the phase.
            assert (events["read_start"] >= phase.start).all()
            assert (events["read_end"] >= events["read_start"]).all()
            assert (events["compute_start"] >= events["read_end"]).all()
            assert (events["compute_end"] > events["compute_start"]).all()
            assert (events["write_start"] >= events["compute_end"]).all()
            assert (events["write_end"] <= phase.end).all()

    def test_disk_queues_chain_per_node(self):
        """Per node, in task order, the reads are one FIFO and the
        writes one write-behind FIFO: each window opens exactly where
        the node's previous one closed (its first at the phase start),
        a write not before its own compute end.  A slow disk makes the
        nodes' read and write times differ."""
        result = self.result(plan=FAULT_PLANS["slow"])
        for phase in result.phases:
            if not phase.tasks:
                continue
            events = result.phase_events(phase.name)
            for node in np.unique(events["node"]):
                mine = events[events["node"] == node]
                read_start, read_end = mine["read_start"], mine["read_end"]
                assert read_start[0] == phase.start
                assert (read_start[1:] == read_end[:-1]).all()
                freed = np.concatenate(([phase.start], mine["write_end"][:-1]))
                assert (mine["write_start"]
                        == np.maximum(freed, mine["compute_end"])).all()

    def test_straggle_factors_in_band(self):
        events = self.result().events
        assert (events["straggle"] >= 1.0).all()
        assert (events["straggle"] <= 1.5).all()
        assert (events["straggle"][events["straggled"]] > 1.25).all()

    def test_nodes_and_slots_in_range(self):
        result = self.result(plan="node_kill:node=3")
        events = result.events
        assert events["node"].min() >= 0
        assert events["node"].max() < 14
        assert (events["node"] != 3).all()
        assert events["slot"].min() >= 0
        assert events["slot"].max() < 12  # dual E5645: 12 cores

    def test_busy_cpu_matches_arena_sum(self):
        result = self.result(seed=6)
        events = result.events
        for usage in result.nodes:
            mine = events[events["node"] == usage.index]
            spans = mine["compute_end"] - mine["compute_start"]
            assert float(spans.sum()) == pytest.approx(
                usage.busy_cpu_seconds)

    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    def test_every_result_carries_its_arena(self, plan_name):
        result = self.result(plan=FAULT_PLANS[plan_name])
        assert result.arena is not None
        assert len(result.events) == sum(p.tasks for p in result.phases)
        for phase in result.phases:
            if phase.tasks:
                assert len(result.phase_events(phase.name)) == phase.tasks


class TestOneEngine:
    """``ClusterSim`` runs the vector engine and takes no selector."""

    def test_sim_takes_no_engine_keyword(self):
        with pytest.raises(TypeError):
            ClusterSim(PAPER_CLUSTER, engine="vector")
        assert not hasattr(ClusterSim(PAPER_CLUSTER), "engine")

    def test_timemodel_takes_no_engine_keyword(self):
        from repro.cluster import TimeModel

        with pytest.raises(TypeError):
            TimeModel(PAPER_CLUSTER, mode="event", sim_engine="vector")
        event = TimeModel(PAPER_CLUSTER, mode="event")
        assert event.job_time(mr_like_job()) == make_sim(
            PAPER_CLUSTER).run(mr_like_job()).seconds

    def test_scalar_env_var_changes_nothing(self, monkeypatch):
        before = make_sim(PAPER_CLUSTER, seed=2).run(mr_like_job())
        monkeypatch.setenv("REPRO_SCALAR_SIM", "1")
        after = make_sim(PAPER_CLUSTER, seed=2).run(mr_like_job())
        assert after.arena is not None
        assert fingerprint(after) == fingerprint(before)


class TestMetricsCardinality:
    def run_fresh(self, cluster):
        from repro.obs.metrics import METRICS

        METRICS.reset()
        ClusterSim(cluster).run(mr_like_job())
        return METRICS

    def test_small_cluster_keeps_per_node_gauges(self):
        metrics = self.run_fresh(PAPER_CLUSTER)
        assert "cluster.node.0.cpu_util" in metrics.gauges
        assert "cluster.node.13.net_util" in metrics.gauges
        hist = metrics.histograms["cluster.sim.node_util.cpu"]
        assert hist.count == 14

    def test_large_cluster_rolls_into_histograms(self):
        metrics = self.run_fresh(PAPER_CLUSTER.scaled(100))
        per_node = [name for name in metrics.gauges
                    if name.startswith("cluster.node.")]
        assert per_node == []
        for kind in ("cpu", "disk", "net"):
            hist = metrics.histograms[f"cluster.sim.node_util.{kind}"]
            assert hist.count == 100
            assert 0.0 <= hist.min <= hist.max <= 1.0

    @pytest.mark.parametrize("nodes,gauges", [(32, True), (33, False)])
    def test_gauge_limit_is_inclusive(self, nodes, gauges):
        from repro.cluster.sim import NODE_GAUGE_LIMIT

        assert NODE_GAUGE_LIMIT == 32
        metrics = self.run_fresh(PAPER_CLUSTER.scaled(nodes))
        assert ("cluster.node.0.cpu_util" in metrics.gauges) is gauges

    def test_existing_sim_metrics_keep_meaning(self):
        metrics = self.run_fresh(PAPER_CLUSTER)
        assert metrics.counters["cluster.sim.runs"].value == 1.0
        assert metrics.histograms["cluster.sim.seconds"].count == 1
