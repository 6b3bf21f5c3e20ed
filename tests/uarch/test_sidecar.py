"""The data-side cache chain in the sidecar process.

``tests/uarch/test_record_drain.py`` shows a context whose L1D -> L2 ->
L3 chain runs in the sidecar observes what an in-process one does.
This module covers the process itself: pool workers keep their hands
off their parent's sidecar, contexts share it without sharing state,
abandoned contexts leave nothing behind, a dead or failing sidecar
raises instead of hanging, and no process outlives the tests.
"""

import gc
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.obs.metrics import METRICS
from repro.uarch import lru, sidecar
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645
from repro.uarch.perfctx import DATA, FETCH, PerfContext

NAMES = ("Grep", "K-means", "Naive Bayes")


def _children() -> list:
    """Pids of this process's children that have not exited."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            found.append(int(entry))
    return found


@pytest.fixture(scope="module", autouse=True)
def no_process_left():
    sidecar.shutdown()
    yield
    sidecar.shutdown()
    assert _children() == []


def _in_process(*args, **kwargs) -> PerfContext:
    with mock.patch.object(sidecar, "AVAILABLE", False):
        return PerfContext(*args, **kwargs)


def _program(ctx, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for step in range(12):
        ctx.rand_read("table", float(rng.integers(1, 4e4)), 8)
        ctx.seq_write("out", int(rng.integers(1, 1 << 18)), 8)
        ctx.int_ops(3e6)
        ctx.skewed_read("cache", float(rng.integers(1, 2e4)), 16, 0.1, 0.9)


def _observed(ctx) -> tuple:
    memsys = ctx.memsys
    return repr(ctx.events), [
        [cache.lru_order(s) for s in range(cache.config.num_sets)]
        for cache in memsys.data_caches]


def test_an_untraced_context_runs_its_chain_beside():
    ctx = PerfContext(XEON_E5645)
    ctx.rand_read("table", 8 * 70_000, 8)          # one drain
    assert ctx._chain is not None
    assert ctx._chain.sidecar is sidecar.current()
    assert ctx._chain.sidecar.pid != os.getpid()
    ctx.finalize()
    assert ctx._chain is None


def test_memory_bytes_keep_program_order_beside():
    """Data bytes come back from the sidecar at ``settle``; they are
    added between the fetch bytes as the runs were recorded.  Each data
    run misses once at every level: 32 * 64 * 3.0 = 6144 bytes, below
    half the spacing of floats near 1e20.  Data first reads 16384.0,
    fetch first 12288.0."""
    ctx = PerfContext(XEON_E5645)
    ctx.memsys.inst_fetch = lambda addresses, weights, ends: [1e20, -1e20]
    ctx._record(DATA, np.array([0]), 32.0)
    ctx._record(FETCH, np.array([7, 8]), 0.5)
    ctx._record(DATA, np.array([1 << 20]), 32.0)
    ctx._record(FETCH, np.array([9]), 0.25)
    ctx.settle()
    assert ctx._chain is not None
    assert ctx.events.mem_bytes == ((6144.0 + 1e20) + 6144.0) - 1e20 == 0.0


def test_a_batch_longer_than_the_ring_goes_in_parts():
    beside = PerfContext(XEON_E5310, cap=3 * sidecar.RING)
    alone = _in_process(XEON_E5310, cap=3 * sidecar.RING)
    for ctx in (beside, alone):
        ctx.rand_read("table", 8 * 3 * sidecar.RING, 8)
        ctx.stride_read("table", 2.5 * sidecar.RING, 64)
        ctx.finalize()
    assert _observed(beside) == _observed(alone)


def test_interleaved_live_contexts_keep_their_own_chains():
    with mock.patch.object(lru, "DRAIN_AT", 4096):
        pairs = []
        for machine, seed in ((XEON_E5645, 1), (XEON_E5310, 2)):
            pairs.append((PerfContext(machine, seed=seed),
                          _in_process(machine, seed=seed)))
        for step in range(6):
            for beside, alone in pairs:
                for ctx in (beside, alone):
                    _program(ctx, seed=step)
                    if step == 3:
                        ctx.settle()
        assert pairs[0][0]._chain.sidecar is pairs[1][0]._chain.sidecar
        assert pairs[0][0]._chain.key != pairs[1][0]._chain.key
        for beside, alone in pairs:
            assert alone._chain is None
            beside.finalize()
            alone.finalize()
            assert _observed(beside) == _observed(alone)


def test_abandoned_contexts_leave_no_state_in_the_sidecar():
    car = sidecar.current()
    live = car.stats()["live"]
    with mock.patch.object(lru, "DRAIN_AT", 100):
        for seed in range(200):
            ctx = PerfContext(XEON_E5645, seed=seed)
            ctx.rand_read("table", 8 * 150, 8)       # drained: a chain opened
            ctx.int_ops(1e3)
            assert ctx._chain is not None
            del ctx
    gc.collect()
    assert car.stats()["live"] == live
    assert sidecar.current() is car


def test_pool_workers_start_their_own_sidecar():
    serial = Harness(cache=False, artifacts=False, seed=3)
    want = [repr(result.events) for result in serial.run_many(
        [RunSpec(workload=name) for name in NAMES])]
    car = sidecar.current()
    received = car.stats()["received"]
    assert received == car.sent

    pooled = Harness(cache=False, artifacts=False, seed=3, jobs=2)
    got = [repr(result.events) for result in pooled.run_many(
        [RunSpec(workload=name) for name in NAMES])]
    assert got == want
    # One message since: the stats request itself.
    assert car.stats()["received"] == received + 1 == car.sent
    assert sidecar.current() is car


def test_a_killed_sidecar_raises_within_seconds():
    ctx = PerfContext(XEON_E5645, seed=5)
    ctx.rand_read("table", 8 * 70_000, 8)
    car = ctx._chain.sidecar
    os.kill(car.pid, signal.SIGKILL)
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="sidecar"):
        ctx.rand_read("table", 8 * 70_000, 8)
        ctx.finalize()
    assert time.monotonic() - began < 5
    assert sidecar.current() is not car         # the next context forks anew
    fresh = PerfContext(XEON_E5645, seed=5)
    fresh.rand_read("table", 8 * 70_000, 8)
    fresh.finalize()
    assert fresh.events.l1d_misses > 0


def test_an_error_in_the_sidecar_reaches_the_caller():
    def broken(*args):
        raise ArithmeticError("the chain broke")

    sidecar.shutdown()
    with mock.patch.object(sidecar, "cache_chain", broken):
        ctx = PerfContext(XEON_E5645)
        ctx.rand_read("table", 8 * 70_000, 8)
        with pytest.raises(RuntimeError, match="the chain broke"):
            ctx.finalize()
    sidecar.shutdown()


def test_the_metrics_show_the_sidecar_of_untraced_runs_only():
    names = ("uarch.sidecar.drains", "uarch.sidecar.wait_s",
             "uarch.sidecar.busy_s", "uarch.sidecar.peak_rss_mb")

    def values(trace: bool) -> dict:
        METRICS.reset()
        Harness(cache=False, artifacts=False, trace=trace).run(
            RunSpec(workload="Sort"))
        snapshot = METRICS.snapshot()
        return {name: snapshot.get(name, {"value": 0})["value"]
                for name in names}

    sidecar.shutdown()
    try:
        assert all(values(trace=False).values())
        assert not any(values(trace=True).values())
    finally:
        METRICS.reset()
