"""Serving-plane performance: generation, vector replay, day-scale SLO.

Five gates on the traffic plane, measured on a real server:

1. **Generation**: materializing a capped (20k-request) arrival stream
   for every profile shape fits a per-shape budget -- the generator is
   vectorized inverse-CDF sampling, not a Python event loop.
2. **Replay floor**: the vector engine drives a million-request stream
   through a 100-node cluster at >= 300k simulated requests per
   wall-clock second (measured ~2M/s; the floor leaves >6x headroom).
3. **Engine vs oracle**: on the same million-request stream the
   engine is >= 10x the per-event heap oracle
   (``tests/serving/reference_replay.py``; measured ~17x).  The two are
   bit-identical (gated in tests/serving), so this is pure speedup, not
   an accuracy trade.
4. **Day scale**: a million-user diurnal day -- 5 x 10^7 requests over
   86 400 simulated seconds -- generates and replays inside a
   checked-in wall-clock budget.  Skipped on small machines (the
   arrays peak ~11 GB resident).
5. **Autoscale**: the 10 -> 1000-node sweep -- demand measured once,
   then pure event replay per size -- completes warm under a minute.

A policy comparison under flash-crowd overload and the store's
stream cache timings are recorded in the JSON document (ungated --
trajectory data).  The checked-in ``BENCH_serving_load.json`` is the
trajectory baseline; set ``REPRO_BENCH_DIR`` to persist a fresh
document.
"""

import tempfile
import time

import pytest

from benchmarks.conftest import emit, emit_json
from repro.cluster.node import PAPER_CLUSTER, SINGLE_NODE
from repro.core.report import render_table
from repro.core.store import Store
from repro.datagen.seeds import wikipedia_entries
from repro.serving import (
    AUTOSCALE_NODES,
    NutchServer,
    ServingRun,
    autoscale_sweep,
    measure_demand,
    replay,
    run_serving,
)
from repro.serving.load import (
    LoadProfile,
    PROFILE_SHAPES,
    generate_stream,
)
from tests.serving.reference_replay import replay_stream

#: Per-shape budget for generating one capped (20k-request) stream.
GENERATION_BUDGET_SECONDS = 0.5

#: Floor on warm vector replay throughput (simulated requests per
#: wall-clock second) over a million-request stream on a 100-node
#: cluster.  Measured ~2M req/s; the floor leaves >6x headroom.
REPLAY_FLOOR_RPS = 300_000.0

#: Floor on the warm vector-over-scalar speedup for the same replay
#: (the PR's acceptance bound; measured ~17x).
VECTOR_SPEEDUP_FLOOR = 10.0

#: Wall budget for the million-user diurnal day: generating and
#: replaying 5 x 10^7 requests.  Measured ~44s + ~70s; the budget
#: leaves ~3x headroom for slow CI machines.
DAY_SCALE_BUDGET_SECONDS = 360.0

#: The day-scale arrays peak around 11 GB resident; skip the test
#: (rather than thrash or OOM) below this much available memory.
DAY_SCALE_MIN_AVAILABLE_GB = 16.0

#: The acceptance bound on the warm 10 -> 1000-node sweep.
AUTOSCALE_BUDGET_SECONDS = 60.0

#: One simulated day of a million-user site at ~50 requests per user
#: per day: mean 579 req/s with a 4x diurnal peak, capped at exactly
#: 5 x 10^7 requests.
DAY_PROFILE = "diurnal:rps=579:peak=4:duration=86400:cap=50000000"

#: The million-request stream both replay gates share: a diurnal hour
#: at city scale, capped at exactly 10^6 requests.
MILLION_PROFILE = "diurnal:rps=4000:peak=4:duration=600:cap=1000000"

_DOC = {"bench": "serving_load"}


def _available_gb():
    """MemAvailable from /proc/meminfo, in GB (None if unreadable)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1e6
    except (OSError, ValueError, IndexError):
        pass
    return None


@pytest.fixture(scope="module", autouse=True)
def _write_doc():
    yield
    emit_json(_DOC, "serving_load")


@pytest.fixture(scope="module")
def server():
    return NutchServer(wikipedia_entries(num_docs=120))


@pytest.fixture(scope="module")
def demand(server):
    # Unprofiled sample: deterministic fallback demand -- the bench
    # times the traffic plane, not the profiler.
    return measure_demand(server, SINGLE_NODE, sample_requests=200)


@pytest.fixture(scope="module")
def million_stream(server):
    return generate_stream(LoadProfile.parse(MILLION_PROFILE), server.MIX,
                           seed=0, store=False)


def _capped_profile(shape: str) -> LoadProfile:
    """A profile of ``shape`` whose stream hits the 20k-request cap."""
    return LoadProfile(shape=shape, rps=4000.0, duration=10.0)


def test_stream_generation_budget(server):
    mix = server.MIX
    rows = []
    payload = {}
    for shape in PROFILE_SHAPES:
        profile = _capped_profile(shape)
        generate_stream(profile, mix, seed=0, store=False)  # warm numpy
        start = time.perf_counter()
        stream = generate_stream(profile, mix, seed=0, store=False)
        seconds = time.perf_counter() - start
        rows.append([shape, str(stream.size), f"{stream.duration:.2f}",
                     f"{seconds * 1e3:.2f}"])
        payload[shape] = {"requests": stream.size, "seconds": seconds}
        assert seconds <= GENERATION_BUDGET_SECONDS, (
            f"{shape} stream took {seconds:.3f}s "
            f"(budget {GENERATION_BUDGET_SECONDS}s)")
    emit(render_table(
        ["Shape", "Requests", "Window s", "Gen ms"],
        rows, title="Arrival-stream generation at the 20k cap"))
    _DOC["generation"] = payload


def test_vector_replay_floor_and_speedup(million_stream, demand):
    """Gates 2 and 3: one million-request replay, engine and oracle."""
    cluster = PAPER_CLUSTER.scaled(100)
    svc = demand.service_seconds

    def best_of(replay_fn, runs):
        seconds = []
        for _ in range(runs):
            start = time.perf_counter()
            outcome = replay_fn(million_stream, cluster, svc, policy="shed")
            seconds.append(time.perf_counter() - start)
        return outcome, min(seconds)

    # Warm the engine (page faults, numpy dispatch, code paths).
    replay(million_stream, cluster, svc, policy="shed")
    vec_out, vec_s = best_of(replay, 3)
    scal_out, scal_s = best_of(replay_stream, 2)
    assert scal_out.requests == vec_out.requests
    vec_rps = vec_out.requests / max(vec_s, 1e-9)
    scal_rps = scal_out.requests / max(scal_s, 1e-9)
    speedup = scal_s / max(vec_s, 1e-9)

    emit(render_table(
        ["Engine", "Requests", "Wall s", "Sim req/s"],
        [["vector", f"{vec_out.requests:,}", f"{vec_s:.3f}",
          f"{vec_rps:,.0f}"],
         ["scalar", f"{scal_out.requests:,}", f"{scal_s:.3f}",
          f"{scal_rps:,.0f}"]],
        title=f"Million-request replay, 100-node cluster "
              f"({speedup:.1f}x vector speedup)"))
    _DOC["replay_requests"] = vec_out.requests
    _DOC["replay_seconds"] = vec_s
    _DOC["replay_sim_rps"] = vec_rps
    _DOC["scalar_replay_seconds"] = scal_s
    _DOC["scalar_replay_sim_rps"] = scal_rps
    _DOC["vector_speedup"] = speedup
    assert vec_rps >= REPLAY_FLOOR_RPS, (
        f"vector replay sustained {vec_rps:,.0f} simulated req/s "
        f"(floor {REPLAY_FLOOR_RPS:,.0f})")
    assert speedup >= VECTOR_SPEEDUP_FLOOR, (
        f"vector engine only {speedup:.1f}x the heap oracle "
        f"(floor {VECTOR_SPEEDUP_FLOOR:.0f}x)")


def test_million_user_day(demand):
    """Gate 4: one simulated day of a million-user site, end to end."""
    available = _available_gb()
    if available is not None and available < DAY_SCALE_MIN_AVAILABLE_GB:
        pytest.skip(f"{available:.1f} GB available; day-scale arrays "
                    f"need ~{DAY_SCALE_MIN_AVAILABLE_GB:.0f} GB")
    mix = (("read", 0.6), ("write", 0.4))
    cluster = PAPER_CLUSTER.scaled(100)

    start = time.perf_counter()
    stream = generate_stream(LoadProfile.parse(DAY_PROFILE), mix, seed=0,
                             store=False)
    gen_s = time.perf_counter() - start
    assert stream.size == 50_000_000

    start = time.perf_counter()
    outcome = replay(stream, cluster, demand.service_seconds,
                     policy="shed")
    replay_s = time.perf_counter() - start
    sim_rps = outcome.requests / max(replay_s, 1e-9)

    emit(render_table(
        ["Quantity", "Value"],
        [["requests", f"{outcome.requests:,}"],
         ["simulated window", f"{stream.duration / 3600:.1f} h"],
         ["generation s", f"{gen_s:.1f}"],
         ["replay s", f"{replay_s:.1f}"],
         ["simulated req/s", f"{sim_rps:,.0f}"],
         ["completed", f"{outcome.completed:,}"],
         ["shed", f"{outcome.shed:,}"]],
        title="Million-user diurnal day (5e7 requests)"))
    _DOC["day_scale"] = {
        "requests": outcome.requests,
        "generation_seconds": gen_s,
        "replay_seconds": replay_s,
        "sim_rps": sim_rps,
        "completed": outcome.completed,
        "shed": outcome.shed,
    }
    total = gen_s + replay_s
    assert total <= DAY_SCALE_BUDGET_SECONDS, (
        f"day-scale study took {total:.1f}s wall "
        f"(budget {DAY_SCALE_BUDGET_SECONDS:.0f}s)")


def test_stream_artifact_cache_timings(server):
    """Ungated: what the store buys on repeat sweeps."""
    profile = LoadProfile.parse("diurnal:rps=4000:peak=4:duration=60")
    with tempfile.TemporaryDirectory() as root:
        store = Store(root)
        start = time.perf_counter()
        generate_stream(profile, server.MIX, seed=0, store=store)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        stream = generate_stream(profile, server.MIX, seed=0, store=store)
        warm_s = time.perf_counter() - start
    emit(render_table(
        ["Path", "Seconds"],
        [["cold (generate + persist)", f"{cold_s * 1e3:.2f} ms"],
         ["warm (store hit)", f"{warm_s * 1e3:.2f} ms"]],
        title=f"Stream artifact cache ({stream.size:,} requests)"))
    _DOC["artifact_cold_seconds"] = cold_s
    _DOC["artifact_warm_seconds"] = warm_s


def test_policy_comparison_under_flash_crowd(server, demand):
    """Ungated trajectory data: what each recovery policy buys under a
    flash-crowd overload (the SLO study's headline comparison)."""
    rows = []
    payload = []
    for policy in ("none", "shed", "hedge", "retry", "all"):
        spec = ServingRun(server=server,
                          profile="flash:rps=3200:peak=8:duration=6",
                          policy=policy, slo_seconds=0.5)
        report = run_serving(spec, demand=demand)
        rows.append([policy, f"{report.achieved_rps:.0f}",
                     f"{report.goodput_rps:.0f}",
                     f"{report.p99_latency * 1e3:.1f}",
                     f"{report.shed_fraction:.1%}",
                     f"{report.hedged_fraction:.1%}",
                     f"{report.retried_fraction:.1%}"])
        payload.append({
            "policy": policy,
            "achieved_rps": report.achieved_rps,
            "goodput_rps": report.goodput_rps,
            "p99_seconds": report.p99_latency,
            "shed_fraction": report.shed_fraction,
            "hedged_fraction": report.hedged_fraction,
            "retried_fraction": report.retried_fraction,
        })
    emit(render_table(
        ["Policy", "RPS", "Goodput", "p99 ms", "Shed", "Hedged", "Retried"],
        rows, title="Flash crowd at 3200 rps: recovery-policy comparison"))
    _DOC["flash_policies"] = payload


def test_autoscale_sweep_warm_under_a_minute(server, demand):
    spec = ServingRun(server=server,
                      profile="constant:rps=3200:duration=5",
                      policy="shed")
    start = time.perf_counter()
    reports = autoscale_sweep(spec, node_counts=AUTOSCALE_NODES,
                              demand=demand)
    seconds = time.perf_counter() - start

    rows = [[str(n), f"{r.achieved_rps:.0f}",
             f"{r.p50_latency * 1e3:.2f}", f"{r.p99_latency * 1e3:.2f}",
             f"{r.utilization:.1%}"] for n, r in reports]
    emit(render_table(
        ["Nodes", "RPS", "p50 ms", "p99 ms", "Util"],
        rows, title=f"Autoscale sweep 10 -> 1000 nodes ({seconds:.2f}s warm)"))
    _DOC["autoscale_nodes"] = list(AUTOSCALE_NODES)
    _DOC["autoscale_seconds"] = seconds
    _DOC["autoscale_p50_seconds"] = {
        str(n): r.p50_latency for n, r in reports}
    assert seconds <= AUTOSCALE_BUDGET_SECONDS, (
        f"10->1000-node sweep took {seconds:.1f}s warm "
        f"(budget {AUTOSCALE_BUDGET_SECONDS}s)")
    # Scaling out must never make the tail worse.
    p50 = [r.p50_latency for _, r in reports]
    assert p50[-1] <= p50[0] * 1.05
