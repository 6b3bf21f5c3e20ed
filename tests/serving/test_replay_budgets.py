"""The traffic plane, wall-clock (``pytest -m slow``).

Generating a capped stream fits a per-shape budget; the vector replay
drives a million requests through a 100-node cluster at a floor of
simulated requests per wall second and at least 10x the per-event heap
oracle (``tests/serving/reference_replay.py``; the two are bit-identical,
``test_vector_replay.py``); a million-user day generates and replays
inside its budget; and the 10 -> 1000-node autoscale sweep runs warm
inside a minute.
"""

import time

import pytest

from repro.cluster.node import PAPER_CLUSTER, SINGLE_NODE
from repro.datagen.seeds import wikipedia_entries
from repro.serving import (
    AUTOSCALE_NODES,
    NutchServer,
    ServingRun,
    autoscale_sweep,
    measure_demand,
    replay,
)
from repro.serving.load import LoadProfile, PROFILE_SHAPES, generate_stream
from tests.serving.reference_replay import replay_stream

#: Per-shape budget for one capped (20k-request) stream.
GENERATION_BUDGET_SECONDS = 0.5

#: Warm vector replay of a million requests on 100 nodes, in simulated
#: requests per wall second.  Measured ~2M: >6x headroom.
REPLAY_FLOOR_RPS = 300_000.0

#: Warm vector engine over the heap oracle on the same stream
#: (measured ~17x).
VECTOR_SPEEDUP_FLOOR = 10.0

#: Generating and replaying 5 x 10^7 requests.  Measured ~44 s + ~70 s.
DAY_SCALE_BUDGET_SECONDS = 360.0

#: Generating and replaying the day peaks at ~89 bytes per request
#: (tracemalloc over generate + ``replay(policy="shed")`` on the day
#: profile capped at 5 x 10^6 requests): 5 x 10^7 x 89 B x 1.25.  Below
#: this much available memory the test skips rather than thrash.
DAY_SCALE_MIN_AVAILABLE_GB = 5.6

AUTOSCALE_BUDGET_SECONDS = 60.0

#: A million-user site at ~50 requests per user per day: mean 579 req/s
#: with a 4x diurnal peak, capped at exactly 5 x 10^7 requests.
DAY_PROFILE = "diurnal:rps=579:peak=4:duration=86400:cap=50000000"

#: A diurnal hour at city scale, capped at exactly 10^6 requests.
MILLION_PROFILE = "diurnal:rps=4000:peak=4:duration=600:cap=1000000"


def _available_gb():
    """MemAvailable from /proc/meminfo in GB (None if unreadable)."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1e6
    except (OSError, ValueError, IndexError):
        pass
    return None


@pytest.fixture(scope="module")
def server():
    return NutchServer(wikipedia_entries(num_docs=120))


@pytest.fixture(scope="module")
def demand(server):
    # Unprofiled: the deterministic fallback demand -- these budgets time
    # the traffic plane, not the profiler.
    return measure_demand(server, SINGLE_NODE, sample_requests=200)


def _seconds(run):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


@pytest.mark.slow
@pytest.mark.parametrize("shape", PROFILE_SHAPES)
def test_capped_stream_generation_budget(server, shape):
    profile = LoadProfile(shape=shape, rps=4000.0, duration=10.0)
    generate_stream(profile, server.MIX, seed=0, store=False)  # warm numpy
    _, seconds = _seconds(lambda: generate_stream(
        profile, server.MIX, seed=0, store=False))
    assert seconds <= GENERATION_BUDGET_SECONDS, (
        f"{shape} stream took {seconds:.3f}s")


@pytest.mark.slow
def test_million_request_replay_floor_and_speedup(server, demand):
    stream = generate_stream(LoadProfile.parse(MILLION_PROFILE), server.MIX,
                             seed=0, store=False)
    cluster = PAPER_CLUSTER.scaled(100)
    svc = demand.service_seconds

    def best_of(replay_fn, runs):
        timings = [_seconds(lambda: replay_fn(stream, cluster, svc,
                                              policy="shed"))
                   for _ in range(runs)]
        return timings[-1][0], min(seconds for _, seconds in timings)

    replay(stream, cluster, svc, policy="shed")  # warm the engine
    vector, vector_seconds = best_of(replay, 3)
    oracle, oracle_seconds = best_of(replay_stream, 2)
    assert oracle.requests == vector.requests
    rps = vector.requests / max(vector_seconds, 1e-9)
    speedup = oracle_seconds / max(vector_seconds, 1e-9)
    assert rps >= REPLAY_FLOOR_RPS, f"vector replay {rps:,.0f} req/s"
    assert speedup >= VECTOR_SPEEDUP_FLOOR, (
        f"vector engine only {speedup:.1f}x the heap oracle")


@pytest.mark.slow
def test_million_user_day(demand):
    available = _available_gb()
    if available is not None and available < DAY_SCALE_MIN_AVAILABLE_GB:
        pytest.skip(f"{available:.1f} GB available; the day-scale arrays "
                    f"need ~{DAY_SCALE_MIN_AVAILABLE_GB:.1f} GB")
    stream, generate_seconds = _seconds(lambda: generate_stream(
        LoadProfile.parse(DAY_PROFILE), (("read", 0.6), ("write", 0.4)),
        seed=0, store=False))
    assert stream.size == 50_000_000
    _, replay_seconds = _seconds(lambda: replay(
        stream, PAPER_CLUSTER.scaled(100), demand.service_seconds,
        policy="shed"))
    total = generate_seconds + replay_seconds
    assert total <= DAY_SCALE_BUDGET_SECONDS, (
        f"day-scale study took {total:.1f}s wall")


@pytest.mark.slow
def test_autoscale_sweep_warm_under_a_minute(server, demand):
    spec = ServingRun(server=server, profile="constant:rps=3200:duration=5",
                      policy="shed")
    reports, seconds = _seconds(lambda: autoscale_sweep(
        spec, node_counts=AUTOSCALE_NODES, demand=demand))
    assert seconds <= AUTOSCALE_BUDGET_SECONDS, (
        f"10 -> 1000-node sweep took {seconds:.1f}s")
    # Scaling out never makes the median worse.
    p50 = [report.p50_latency for _, report in reports]
    assert p50[-1] <= p50[0] * 1.05
