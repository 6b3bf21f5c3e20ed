"""The event plane on characterized costs: agreement, identity, budgets.

One workload per engine family (MapReduce, Spark, SQL, serving, BSP) is
characterized once through the harness; its ``JobCost`` then replays on
the analytic model, the vector engine and the per-task oracle
(``tests/cluster/reference_sim.py``).  The ``slow`` tests are wall-clock
budgets (``pytest -m slow``).
"""

import time

import pytest

from repro.cluster import ClusterSim, MIXED_CLUSTER, PAPER_CLUSTER, TimeModel
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.core.workload import DATA_SCALE
from tests.cluster import reference_sim
from tests.cluster.test_sim import fingerprint

#: One workload per engine family, as (workload, stack).
FAMILY_WORKLOADS = [
    ("Sort", "hadoop"),
    ("Sort", "spark"),
    ("Select Query", None),
    ("Nutch Server", None),
    ("BFS", None),
]

#: On the homogeneous paper cluster the event replay's modeled seconds
#: stay within this band of the analytic model's: per-node contention,
#: stragglers and pairwise shuffle refine the flat model, they do not
#: contradict it.
AGREEMENT_BAND = (0.5, 2.0)

#: Warm replay budget per job on the 14-node paper cluster.
PAPER_MS_PER_JOB = 25.0

#: At 1000 nodes: the engine's warm replay against the per-task oracle,
#: and its absolute budget.
SCALE_NODES = 1000
SCALE_MIN_SPEEDUP = 5.0
SCALE_WARM_BUDGET_SECONDS = 2.0

#: ~2000 warm evaluations (families x clusters x data scales x seeds,
#: the shape of the characterization grid) inside this budget.
SWEEP_SEEDS = 40
SWEEP_DATA_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)
SWEEP_BUDGET_SECONDS = 30.0


@pytest.fixture(scope="module")
def family_costs():
    points = Harness().run_many([RunSpec(workload=name, stack=stack)
                                 for name, stack in FAMILY_WORKLOADS])
    return {key: point.result.cost
            for key, point in zip(FAMILY_WORKLOADS, points)}


def _model(mode, cluster=PAPER_CLUSTER):
    return TimeModel(cluster, data_scale=DATA_SCALE, mode=mode)


def test_event_plane_agrees_with_the_analytic_model(family_costs):
    low, high = AGREEMENT_BAND
    for key, cost in family_costs.items():
        event = _model("event").job_time(cost)
        ratio = event / _model("analytic").job_time(cost)
        assert low <= ratio <= high, f"{key}: planes disagree ({ratio:.2f}x)"


def test_engine_is_the_oracle_on_real_costs(family_costs):
    for cluster in (PAPER_CLUSTER, MIXED_CLUSTER):
        for key, cost in family_costs.items():
            oracle = reference_sim.run(
                ClusterSim(cluster, data_scale=DATA_SCALE, seed=11), cost)
            engine = ClusterSim(cluster, data_scale=DATA_SCALE,
                                seed=11).run(cost)
            assert fingerprint(oracle) == fingerprint(engine), (
                f"{key} diverges on {cluster.total_nodes} nodes")


def test_the_slow_node_helps_on_the_mixed_cluster(family_costs):
    """The mixed E5645+E5310 preset only exists on the event plane: a
    real cost replays there deterministically, and its fifteenth (slow)
    node takes work without slowing the job down."""
    cost = family_costs[("Sort", "hadoop")]
    paper = _model("event").job_time(cost)
    mixed = _model("event", MIXED_CLUSTER).job_time(cost)
    assert mixed == _model("event", MIXED_CLUSTER).job_time(cost)
    assert mixed <= paper * 1.05
    result = _model("event", MIXED_CLUSTER).simulate(cost)
    assert len(result.nodes) == 15
    assert result.nodes[14].busy_cpu_seconds > 0


@pytest.mark.slow
def test_warm_paper_replay_fits_the_job_budget(family_costs):
    def replay_all():
        for cost in family_costs.values():
            _model("event").job_time(cost)

    replay_all()  # warm the straggler and flow-plan memos
    start = time.perf_counter()
    replay_all()
    per_job_ms = (time.perf_counter() - start) / len(family_costs) * 1e3
    assert per_job_ms <= PAPER_MS_PER_JOB, (
        f"warm replay {per_job_ms:.2f} ms/job over the "
        f"{PAPER_MS_PER_JOB} ms budget")


@pytest.mark.slow
def test_engine_beats_the_oracle_at_1000_nodes(family_costs):
    big = PAPER_CLUSTER.scaled(SCALE_NODES)
    cost = family_costs[("Sort", "hadoop")]

    def timed(run):
        start = time.perf_counter()
        result = run(cost)
        return result, time.perf_counter() - start

    oracle, oracle_seconds = timed(lambda c: reference_sim.run(
        ClusterSim(big, data_scale=DATA_SCALE), c))
    cold, _ = timed(ClusterSim(big, data_scale=DATA_SCALE).run)
    warm, warm_seconds = timed(ClusterSim(big, data_scale=DATA_SCALE).run)
    assert fingerprint(oracle) == fingerprint(cold) == fingerprint(warm)
    speedup = oracle_seconds / max(warm_seconds, 1e-9)
    assert speedup >= SCALE_MIN_SPEEDUP, (
        f"warm replay only {speedup:.1f}x the oracle at {SCALE_NODES} nodes")
    assert warm_seconds <= SCALE_WARM_BUDGET_SECONDS, (
        f"warm {SCALE_NODES}-node replay took {warm_seconds:.2f}s")


@pytest.mark.slow
def test_replay_sweep_fits_its_budget(family_costs):
    clusters = (PAPER_CLUSTER, MIXED_CLUSTER)
    for cluster in clusters:  # one warm pass: sweep steady state
        for cost in family_costs.values():
            ClusterSim(cluster, data_scale=DATA_SCALE, seed=0).run(cost)
    grid = [(cost, cluster, scale, seed)
            for cost in family_costs.values()
            for cluster in clusters
            for scale in SWEEP_DATA_SCALES
            for seed in range(SWEEP_SEEDS)]
    start = time.perf_counter()
    for cost, cluster, scale, seed in grid:
        ClusterSim(cluster, data_scale=DATA_SCALE * scale, seed=seed).run(cost)
    seconds = time.perf_counter() - start
    assert seconds <= SWEEP_BUDGET_SECONDS, (
        f"{len(grid)}-evaluation sweep took {seconds:.1f}s")
